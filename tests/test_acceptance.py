"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

All checks are exact (integer dynamics); there are no tolerances to tune.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they print.
"""

import itertools
import random

import reference_rules as ref
from conftest import cfg, count_paths, hp
from sandlab.analysis import (
    enumerate_partition_spaces,
    fp_equilibrium_shape,
    gk_equilibrium_shape,
    gk_transient_time,
    nn_search,
)
from sandlab.pile import (
    Configuration,
    NegativeValue,
    height_profile,
    is_fp_stable,
    is_gk_stable,
)
from sandlab.rules import (
    RuleKind,
    RuleSpec,
    fp_rule,
    fp_step,
    gen1g_rule,
    gen1g_step,
    gk_rule,
    gk_step,
    height_rule,
    height_step,
)
from sandlab.sequential import (
    ALL_RULES,
    VR_FAMILY,
    MoveRule,
    RulesetPolicy,
    applicable_moves,
    apply_move,
    enumerate_paths,
    explore_digraph,
    necessity_analysis,
    sequential_spm_orbit,
)
from test_analysis import independent_composition_counts
from test_sequential import CLASSIC_5421_TRAJECTORIES, FIFTH_5421_TRAJECTORY


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {detail} -> {'PASS' if ok else 'FAIL'}")
    return ok


def random_config(rng, max_support, max_value):
    width = rng.randint(1, max_support)
    values = [rng.randint(0, max_value) for _ in range(width)]
    return Configuration(values, rng.randint(-8, 8))


def test_criterion_01_gk_orbit_from_815():
    expected = [
        ((8, 1, 5), 0),
        ((7, 2, 4, 1), 0),
        ((6, 3, 3, 2), 0),
        ((5, 4, 3, 1, 1), 0),
        ((5, 4, 2, 2, 1), 0),
        ((5, 3, 3, 2, 1), 0),
        ((4, 4, 3, 2, 1), 0),
    ]
    orbit = ref.orbit(cfg("8,1,5"), gk_rule())
    rows = [(s.values, s.offset) for s, _ in orbit]
    totals = {s.total() for s, _ in orbit}
    ok = rows == expected and ref.transient_time(orbit) == 6 and totals == {14}
    assert report(1, ok, "gk orbit 8,1,5: 7 exact rows, transient 6, total 14")


def test_criterion_02_fp_orbits_from_concentrated_states():
    tables = {
        2: ([((2,), 0), ((1, 0, 1), -1)], 1),
        3: ([((3,), 0), ((1, 1, 1), -1)], 1),
        4: (
            [
                ((4,), 0),
                ((1, 2, 1), -1),
                ((2, 0, 2), -1),
                ((1, 0, 2, 0, 1), -2),
                ((1, 1, 0, 1, 1), -2),
            ],
            4,
        ),
        6: (
            [
                ((6,), 0),
                ((1, 4, 1), -1),
                ((2, 2, 2), -1),
                ((1, 1, 2, 1, 1), -2),
                ((1, 2, 0, 2, 1), -2),
                ((2, 0, 2, 0, 2), -2),
                ((1, 0, 2, 0, 2, 0, 1), -3),
                ((1, 1, 0, 2, 0, 1, 1), -3),
                ((1, 1, 1, 0, 1, 1, 1), -3),
            ],
            8,
        ),
    }
    ok = True
    for k, (rows, transient) in tables.items():
        orbit = ref.orbit(cfg(str(k)), fp_rule())
        got = [(s.values, s.offset) for s, _ in orbit]
        ok = ok and got == rows and ref.transient_time(orbit) == transient
    assert report(2, ok, "fp orbits 2/3/4/6 reproduce their tables, transient(6)=8")


def test_criterion_03_height_dynamics_and_commutation():
    expected = [((-6, 6), -1), ((-5, 4, 1), -1), ((-4, 2, 2), -1), ((-3, 1, 1, 1), -1)]
    rows = [(s.values, s.offset) for s, _ in ref.orbit(hp("-6|6"), height_rule())]
    table_ok = rows == expected
    rng = random.Random(2024)
    commute_ok = True
    for _ in range(1000):
        c = random_config(rng, max_support=30, max_value=40)
        if height_profile(gk_step(c)) != height_step(height_profile(c)):
            commute_ok = False
            break
    assert report(
        3,
        table_ok and commute_ok,
        "height table -6|6 exact; transform commutes on 1000 random states",
    )


def test_criterion_04_5421_digraph():
    d = explore_digraph(
        cfg("5,4,2,1"), RulesetPolicy(enabled=frozenset({MoveRule.VR_D}))
    )
    sink = cfg("4,3,2,2,1")
    nodes_ok = len(d.nodes) == 10
    eq_ok = d.equilibria == (sink,)
    # an explicit cap above the DP count, so a truncated list cannot match it
    dp_count = count_paths(d.edges, d.root, sink)
    max_paths = 100
    paths = enumerate_paths(d, sink, max_paths=max_paths)
    lengths_ok = {len(p) for p in paths} == {6}
    count_ok = len(paths) == dp_count < max_paths
    trajectories = set()
    for path in paths:
        states = [d.root]
        for move in path:
            states.append(apply_move(states[-1], move))
        trajectories.add(tuple(str(s) for s in states))
    expected = {tuple(t) for t in CLASSIC_5421_TRAJECTORIES + [FIFTH_5421_TRAJECTORY]}
    trajectories_ok = trajectories == expected and len(paths) == len(expected)
    ok = nodes_ok and eq_ok and lengths_ok and count_ok and trajectories_ok
    report(
        4,
        ok,
        f"vr_d digraph of 5,4,2,1: nodes=10 ({nodes_ok}), unique equilibrium "
        f"({eq_ok}), all paths length 6 ({lengths_ok}), {len(paths)} maximal "
        f"paths = DP count {dp_count} ({count_ok}), the 4 classic trajectories "
        f"plus {' -> '.join(FIFTH_5421_TRAJECTORY)} ({trajectories_ok}); "
        f"the source states 4 maximal paths, the vr_d rule gives {dp_count}",
    )
    assert nodes_ok and eq_ok and lengths_ok
    assert count_ok, f"{len(paths)} paths, DP count {dp_count}, max_paths {max_paths}"
    assert trajectories_ok, sorted(trajectories ^ expected)


def test_criterion_05_necessity_tables():
    hump = necessity_analysis(cfg("0,1|2,1,0"), cfg("0,2|0,2,0"))
    hump_ok = (
        [(name, res.reachable) for name, res in hump.rows]
        == [("VR", False), ("VR+HR", False), ("VR+HR+BT", True)]
        and hump.result_for("VR+HR+BT").depth == 2
        and not hump.result_for("VR").budget_exceeded
        and not hump.result_for("VR+HR").budget_exceeded
    )
    pair = necessity_analysis(cfg("2"), cfg("1|0,1"))
    vr_result = pair.result_for("VR")
    d = explore_digraph(cfg("2"), RulesetPolicy(enabled=VR_FAMILY))
    pair_ok = (
        not vr_result.reachable
        and not vr_result.budget_exceeded
        and set(d.equilibria) == {cfg("1|1,0"), cfg("0|1,1")}
    )
    ok = hump_ok and pair_ok
    assert report(
        5,
        ok,
        "necessity: hump needs VR+HR+BT (length-2 path); 2->1|0,1 beyond VR, "
        "VR equilibria are 1|1,0 and 0|1,1",
    )


def test_criterion_06_closed_form_crosscheck():
    shapes_ok = True
    for n in range(31):
        start = cfg(str(n)) if n else Configuration()
        last, fixed = ref.orbit(start, gk_rule())[-1]
        if not (fixed and last == gk_equilibrium_shape(n)):
            shapes_ok = False
    seq_ok = True
    for n in range(13):
        start = cfg(str(n)) if n else Configuration()
        summary = sequential_spm_orbit(start)
        if summary.path_lengths != frozenset({gk_transient_time(n)}):
            seq_ok = False
    pinned_ok = (
        gk_transient_time(6) == 4 and ref.transient_time(ref.orbit(cfg("6"), gk_rule())) == 3
    )
    ok = shapes_ok and seq_ok and pinned_ok
    assert report(
        6,
        ok,
        "gk shapes reached for n<=30; sequential path lengths = T(n) for n<=12; "
        "T(6)=4, parallel transient 3",
    )


def test_criterion_07_fp_shape_theorem():
    ok = True
    for k in range(61):
        start = cfg(str(k)) if k else Configuration()
        orbit = ref.orbit(start, fp_rule())
        last, fixed = orbit[-1]
        if not (fixed and last == fp_equilibrium_shape(k)):
            ok = False
            break
        for state, _ in orbit:
            span = 0 if state.is_zero else max(abs(state.support.lo), state.support.hi)
            if any(state.value_at(x) != state.value_at(-x) for x in range(span + 1)):
                ok = False
                break
    assert report(7, ok, "fp orbits for k<=60 end at the predicted symmetric shapes")


def test_criterion_08_non_negativity_suite():
    rng = random.Random(88)
    fp_ok = True
    for _ in range(10_000):
        size = rng.randint(1, 5)
        offsets = rng.sample([y for y in range(-6, 7) if y != 0], size)
        payouts = [rng.randint(1, 4) for _ in offsets]
        rule = fp_rule(tuple(offsets), tuple(payouts))
        c = random_config(rng, max_support=12, max_value=3 * rule.theta)
        try:
            fp_step(c, rule)  # would raise NegativeValue on any negative cell
        except NegativeValue:
            fp_ok = False
            break
    searches = {
        y: nn_search([gen1g_rule((-y, y))], window_radius=4, value_bound=8)
        for y in (1, 2, 3, 4)
    }
    signatures = {
        y: {(v.witness.value_at(v.cell), v.value) for v in found}
        for y, found in searches.items()
    }
    search_ok = (
        signatures[1] == set()
        and signatures[2] == set()
        and signatures[3] == {(2, -1)}
        and signatures[4] == {(2, -2), (3, -1)}
    )
    replay_ok = all(
        gen1g_step(v.witness, v.rule).value_at(v.cell) == v.value
        for found in searches.values()
        for v in found
    )
    ok = fp_ok and search_ok and replay_ok
    assert report(
        8,
        ok,
        "fp non-negative on 10^4 random rule/state pairs; pair-rule witnesses "
        "match for y=3,4 and vanish for y=1,2",
    )


def test_criterion_09_conservation_suite():
    rng = random.Random(99)
    policy = RulesetPolicy(hr_convention=False)  # widest guards, all six rules fire
    gk_ok = True
    moves_ok = True
    uses = {rule: 0 for rule in ALL_RULES}
    for _ in range(10_000):
        c = random_config(rng, max_support=14, max_value=9)
        if gk_step(c).total() != c.total():
            gk_ok = False
        for move in applicable_moves(c, policy):
            uses[move.rule] += 1
            if apply_move(c, move).total() != c.total():
                moves_ok = False
    coverage_ok = all(count > 0 for count in uses.values())
    witness = cfg("0,4|0,4,0")
    image = gen1g_step(witness, RuleSpec(RuleKind.CONSTANT_G1))
    violation_ok = witness.total() == 8 and image.total() == 12
    ok = gk_ok and moves_ok and coverage_ok and violation_ok
    assert report(
        9,
        ok,
        "gk and all six moves conserve over 10^4 cases; const-g1 witness 8->12",
    )


def all_small_configurations(max_support=5, max_value=4):
    yield Configuration()
    for width in range(1, max_support + 1):
        for values in itertools.product(range(max_value + 1), repeat=width):
            if width > 1 and (values[0] == 0 or values[-1] == 0):
                continue
            if width == 1 and values[0] == 0:
                continue
            yield Configuration(values)


def test_criterion_10_fixed_point_characterizations():
    checked = 0
    ok = True
    for c in all_small_configurations():
        checked += 1
        if (gk_step(c) == c) != is_gk_stable(c):
            ok = False
        if (fp_step(c) == c) != is_fp_stable(c):
            ok = False
    ok = ok and checked > 2000
    assert report(
        10,
        ok,
        f"fixed point <=> stability for both rules, exhaustive over {checked} states",
    )


def test_criterion_11_partition_enumeration():
    ok = True
    for n in range(13):
        counts = enumerate_partition_spaces(n)
        if tuple(counts) != independent_composition_counts(n):
            ok = False
        if not counts.ordered <= counts.generalized:
            ok = False
    print(
        "criterion 11 note: the factorial cardinality identity for the ambient "
        "mapping space is intentionally NOT asserted; only the enumerated "
        "inclusion chain is checked"
    )
    assert report(
        11,
        ok,
        "splitting-space counts for n<=12 match an independent enumerator, "
        "with |ordered| <= |generalized|",
    )
