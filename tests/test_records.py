"""Rules, policies, moves and result records: reprs, pickle, copy, equality and start-up imports.

The result records are ``NamedTuple`` types; rules, policies, moves, windows
and triangular decompositions are slotted classes that check their input.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import RECORDS, UNHASHABLE_RECORDS, cfg
from sandlab.pile import _Frozen
from sandlab.rules import fp_rule
from sandlab.sequential import (
    MoveRule,
    RulesetPolicy,
    SequentialMove,
    decompose_parallel_transition,
    explore_digraph,
)

SRC = Path(__file__).parent.parent / "src"

# the reprs of the conftest instances, as the dataclass versions of these types printed them
REPRS = {
    "LatticeWindow": "LatticeWindow(lo=-1, hi=2)",
    "RuleSpec": "RuleSpec(kind=<RuleKind.FP: 'fp'>, neighborhood=(-1, 2), distribution=(3, 5))",
    "SequentialMove": "SequentialMove(rule=<MoveRule.HR_S: 'HRs'>, site=-2)",
    "RulesetPolicy": (
        "RulesetPolicy(enabled=frozenset({<MoveRule.BT_D: 'BTd'>}), hr_convention=True, "
        "hr_summary_strict=True, bt_height_floor=2)"
    ),
    "TransitionDigraph": (
        "TransitionDigraph(root=Configuration(values=(2,), offset=0), "
        "nodes=(Configuration(values=(2,), offset=0), Configuration(values=(1, 1), "
        "offset=0)), edges=((Configuration(values=(2,), offset=0), "
        "SequentialMove(rule=<MoveRule.VR_D: 'VRd'>, site=0), Configuration(values=(1, 1), "
        "offset=0)),), equilibria=(Configuration(values=(1, 1), offset=0),), "
        "levels={Configuration(values=(2,), offset=0): 0, Configuration(values=(1, 1), "
        "offset=0): 1}, node_cap_reached=False, quotient_translations=False)"
    ),
    "DecompositionResult": (
        "DecompositionResult(reachable=True, "
        "paths=((SequentialMove(rule=<MoveRule.VR_D: 'VRd'>, site=0),),), "
        "explored_nodes=2, budget_exceeded=False, depth=1, path_count=1)"
    ),
    "NecessityReport": (
        "NecessityReport(rows=(('VR', DecompositionResult(reachable=True, paths=(), "
        "explored_nodes=2, budget_exceeded=False, depth=1, path_count=None)), ('VR+HR', "
        "DecompositionResult(reachable=True, paths=(), explored_nodes=2, "
        "budget_exceeded=False, depth=1, path_count=None)), ('VR+HR+BT', "
        "DecompositionResult(reachable=True, paths=(), explored_nodes=2, "
        "budget_exceeded=False, depth=1, path_count=None))), minimal_family='VR')"
    ),
    "SpmOrbitSummary": (
        "SpmOrbitSummary(digraph=TransitionDigraph(root=Configuration(values=(2,), "
        "offset=0), nodes=(Configuration(values=(2,), offset=0), Configuration(values=(1, "
        "1), offset=0)), edges=((Configuration(values=(2,), offset=0), "
        "SequentialMove(rule=<MoveRule.VR_D: 'VRd'>, site=0), Configuration(values=(1, 1), "
        "offset=0)),), equilibria=(Configuration(values=(1, 1), offset=0),), "
        "levels={Configuration(values=(2,), offset=0): 0, Configuration(values=(1, 1), "
        "offset=0): 1}, node_cap_reached=False, quotient_translations=False), "
        "equilibrium=Configuration(values=(1, 1), offset=0), path_lengths=frozenset({1}))"
    ),
    "TriangularDecomposition": "TriangularDecomposition(n=8, k=3, k_prime=2)",
    "NNViolation": (
        "NNViolation(rule=RuleSpec(kind=<RuleKind.GEN_1G: 'gen1g'>, neighborhood=(-3, 3), "
        "distribution=(-3, 3)), witness=Configuration(values=(2,), offset=0), cell=0, "
        "value=-1)"
    ),
    "CheckResult": (
        "CheckResult(name='ordered-counts', passed=True, detail='recurrence cross-check, "
        "n <= 2')"
    ),
}


def test_every_record_type_has_a_pinned_repr():
    assert sorted(REPRS) == sorted(RECORDS)
    assert all(type(record).__name__ == name for name, record in RECORDS.items())


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_is_pinned(name):
    assert repr(RECORDS[name]) == REPRS[name]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_pickle_and_copy_round_trip(name):
    record = RECORDS[name]
    pickled = [pickle.dumps(record, protocol) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in (*map(pickle.loads, pickled), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record)
        assert clone == record and repr(clone) == REPRS[name]
        if name in UNHASHABLE_RECORDS:
            with pytest.raises(TypeError):
                hash(clone)
        else:
            assert hash(clone) == hash(record)


def test_a_policy_compares_on_its_four_fields_not_on_its_caches():
    used = RulesetPolicy(enabled=frozenset({MoveRule.VR_D}))
    explore_digraph(cfg("5,4,2,1"), used)  # fills the forward table and the interned moves
    decompose_parallel_transition(cfg("5,4,2,1"), cfg("4,4,2,1,1"), used)  # and the backward one
    assert used._moves and used._back and used._interned
    fresh = RulesetPolicy(frozenset({MoveRule.VR_D}), True, False, 1)
    assert fresh == used and hash(fresh) == hash(used)
    clone = pickle.loads(pickle.dumps(used))
    assert clone._moves == clone._back == {}
    for other in (
        RulesetPolicy(enabled=frozenset({MoveRule.VR_S})),
        RulesetPolicy(enabled=frozenset({MoveRule.VR_D}), hr_convention=False),
        RulesetPolicy(enabled=frozenset({MoveRule.VR_D}), hr_summary_strict=True),
        RulesetPolicy(enabled=frozenset({MoveRule.VR_D}), bt_height_floor=2),
    ):
        assert other != used


def test_a_move_compares_on_rule_and_site_and_keeps_its_stored_hash():
    move = SequentialMove(MoveRule.BT_S, -3)
    assert move == SequentialMove(rule=MoveRule.BT_S, site=-3)
    assert move != SequentialMove(MoveRule.BT_D, -3) and move != SequentialMove(MoveRule.BT_S, 3)
    assert hash(move) == -3 * len(MoveRule) + list(MoveRule).index(MoveRule.BT_S)


def test_slotted_records_equal_only_their_own_type():
    rule, move = fp_rule(), SequentialMove(MoveRule.VR_D, 0)
    assert rule != (rule.kind, rule.neighborhood, rule.distribution)
    assert move != (MoveRule.VR_D, 0) and (MoveRule.VR_D, 0) != move


class Pair(_Frozen):
    __slots__ = _fields = ("a", "b")

    def __init__(self, a, b):
        self._init(a, b)


class Summed(_Frozen):
    """A record with a derived slot after its fields, as rules and moves have."""

    _fields = ("a", "b")
    __slots__ = (*_fields, "total")

    def __init__(self, a, b):
        self._init(a, b, a + b)


class TestFrozenSlots:
    def test_init_sets_every_slot_in_slot_order(self):
        pair, summed = Pair(1, [2]), Summed(3, 4)
        assert (pair.a, pair.b) == (1, [2])
        assert (summed.a, summed.b, summed.total) == (3, 4, 7)

    @pytest.mark.parametrize("delta", [-1, 1], ids=["too-few", "too-many"])
    @pytest.mark.parametrize("cls", [Pair, Summed])
    def test_one_value_too_many_or_too_few_raises(self, cls, delta):
        with pytest.raises(ValueError):
            cls(0, 0)._init(*range(len(cls.__slots__) + delta))

    @pytest.mark.parametrize("name", ["a", "b", "total", "other"])
    def test_assignment_and_deletion_still_raise(self, name):
        record = Summed(1, 2)
        with pytest.raises(AttributeError):
            setattr(record, name, 5)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert (record.a, record.b, record.total) == (1, 2, 3)

    def test_repr_pickle_and_equality_follow_the_fields(self):
        for record in (Pair(1, "x"), Summed(1, 2)):
            name = type(record).__name__
            assert repr(record) == f"{name}(a=1, b={record.b!r})"
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                clone = pickle.loads(pickle.dumps(record, protocol))
                assert type(clone) is type(record) and clone == record
                assert hash(clone) == hash(record) and repr(clone) == repr(record)
        assert Summed(1, 2).total == pickle.loads(pickle.dumps(Summed(1, 2))).total == 3
        assert Pair(1, 2) == Pair(1, 2) and Pair(1, 2) != Pair(2, 1)
        assert Pair(1, 2) != Summed(1, 2) and Pair(1, 2) != (1, 2)


def test_result_records_are_named_tuples():
    result = RECORDS["DecompositionResult"]
    reachable, paths, explored, budget, depth, count = result
    assert result._replace(reachable=False) == (False, paths, explored, budget, depth, count)
    assert RECORDS["NecessityReport"].result_for("VR") == RECORDS["NecessityReport"].rows[0][1]


def test_start_up_imports_neither_dataclasses_nor_inspect():
    # pytest itself imports both, so a fresh interpreter runs the benchmark's set-up probe
    probe = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        "import sandlab, sandlab.cli; sandlab.cli.build_parser(); "
        "print(sandlab.__file__); print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    origin, loaded = done.stdout.split("\n")[:2]
    assert Path(origin).resolve().is_relative_to(SRC.resolve())
    assert loaded == ""
