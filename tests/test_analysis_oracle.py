"""The case drawers of ``analysis`` against the ``randint`` drawers they replaced.

``random_configuration`` and ``random_fp_rule`` draw through
``analysis._draws``, which repeats what CPython's ``Random.randint`` does
underneath, once for each bound it is given, and ``random_fp_rule`` picks its
offsets with the pool method of ``Random.sample``.  The ``randint`` drawers
below are the old implementation, kept as the oracle: every test asserts the
same cases, the same rules and the same generator state afterwards, so a
change in how ``randint`` or ``sample`` draws fails here instead of silently
changing the cases the ``verify`` suites test.
"""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from sandlab.analysis import _draws, random_configuration, random_fp_rule
from sandlab.pile import Configuration
from sandlab.rules import fp_rule

seeds = st.integers(0, 2**64)


def randint_configuration(rng, max_support=20, max_value=9, offset_range=(-8, 8)):
    width = rng.randint(1, max_support)
    vals = [rng.randint(0, max_value) for _ in range(width)]
    return Configuration(vals, rng.randint(*offset_range))


def randint_fp_rule(rng, max_offset=6, max_payout=4):
    size = rng.randint(1, 5)
    offsets = rng.sample([y for y in range(-max_offset, max_offset + 1) if y != 0], size)
    payouts = [rng.randint(1, max_payout) for _ in offsets]
    return fp_rule(tuple(offsets), tuple(payouts))


def assert_same_rule(rule, expected):
    assert rule == expected
    assert (rule.theta, rule.radius, rule._weights) == (
        expected.theta,
        expected.radius,
        expected._weights,
    )


def assert_same_state_after(rng, oracle_rng):
    assert rng.random() == oracle_rng.random()


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_the_suites_draw_the_cases_randint_draws(seed):
    rng, oracle = random.Random(seed), random.Random(seed)
    for _ in range(20):
        # verify nn: a rule, then a state scaled to its threshold
        rule = random_fp_rule(rng)
        assert_same_rule(rule, randint_fp_rule(oracle))
        scaled = random_configuration(rng, max_support=12, max_value=3 * rule.theta)
        assert scaled == randint_configuration(oracle, max_support=12, max_value=3 * rule.theta)
        # verify conservation and verify commutation
        assert random_configuration(rng) == randint_configuration(oracle)
        wide = random_configuration(rng, max_support=30, max_value=40)
        assert wide == randint_configuration(oracle, max_support=30, max_value=40)
    assert_same_state_after(rng, oracle)


@settings(max_examples=150, deadline=None)
@given(
    seeds,
    st.one_of(st.just(1), st.integers(1, 70)),
    st.one_of(st.just(0), st.integers(0, 300), st.integers(0, 2**80)),
    st.integers(-(2**40), 2**40),
    st.one_of(st.just(0), st.integers(0, 40), st.integers(0, 2**70)),
)
def test_configurations_match_randint_at_any_bounds(seed, max_support, max_value, lo, span):
    # bound 1 (one support size, only 0 values, a one-cell offset range) draws and rejects bits too
    bounds = dict(max_support=max_support, max_value=max_value, offset_range=(lo, lo + span))
    rng, oracle = random.Random(seed), random.Random(seed)
    for _ in range(5):
        assert random_configuration(rng, **bounds) == randint_configuration(oracle, **bounds)
    assert_same_state_after(rng, oracle)


@settings(max_examples=150, deadline=None)
@given(
    seeds,
    st.integers(3, 40),
    st.one_of(st.just(1), st.integers(1, 12), st.integers(1, 2**64)),
)
def test_fp_rules_match_randint_at_any_bounds(seed, max_offset, max_payout):
    rng, oracle = random.Random(seed), random.Random(seed)
    bounds = dict(max_offset=max_offset, max_payout=max_payout)
    for _ in range(5):
        assert_same_rule(random_fp_rule(rng, **bounds), randint_fp_rule(oracle, **bounds))
    assert_same_state_after(rng, oracle)


# a bound n takes n.bit_length() bits, so 1, 2, 2^k and 2^k + 1 reject about half their draws
mixed_bounds = st.lists(
    st.one_of(
        st.sampled_from([1, 2]),
        st.integers(0, 70).flatmap(lambda k: st.sampled_from([2**k, 2**k + 1])),
        st.integers(1, 2**80),
    ),
    max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(seeds, mixed_bounds)
def test_draws_are_successive_randint_draws(seed, bounds):
    rng, oracle = random.Random(seed), random.Random(seed)
    assert _draws(rng.getrandbits, bounds) == [oracle.randint(0, n - 1) for n in bounds]
    assert_same_state_after(rng, oracle)


@settings(max_examples=60, deadline=None)
@given(seeds, mixed_bounds, st.sampled_from([0, -1, -(2**70)]), mixed_bounds)
def test_an_empty_bound_raises_after_the_draws_before_it(seed, before, empty, after):
    rng, oracle = random.Random(seed), random.Random(seed)
    for n in before:
        oracle.randint(0, n - 1)
    with pytest.raises(ValueError):
        oracle.randint(0, empty - 1)
    with pytest.raises(ValueError, match="empty range"):
        _draws(rng.getrandbits, [*before, empty, *after])
    assert_same_state_after(rng, oracle)


class BoundedRandom(random.Random):
    """A generator that fails after a few thousand ``getrandbits`` calls instead of looping on."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        if self.calls > 5000:
            raise RuntimeError("still drawing after 5000 calls")
        return super().getrandbits(k)


@pytest.mark.parametrize(
    "draw",
    [
        lambda drawer, rng: drawer(rng, max_support=0),
        lambda drawer, rng: drawer(rng, max_support=-3),
        lambda drawer, rng: drawer(rng, max_value=-1),
        lambda drawer, rng: drawer(rng, offset_range=(3, 2)),
    ],
    ids=["max_support=0", "max_support=-3", "max_value=-1", "offset_range=(3, 2)"],
)
def test_an_empty_range_raises_where_randint_raises(draw):
    with pytest.raises(ValueError):
        draw(randint_configuration, random.Random(0))
    with pytest.raises(ValueError, match="empty range"):
        draw(random_configuration, BoundedRandom(0))


def test_an_empty_payout_range_raises_where_randint_raises():
    with pytest.raises(ValueError):
        randint_fp_rule(random.Random(0), max_payout=0)
    with pytest.raises(ValueError, match="empty range"):
        random_fp_rule(BoundedRandom(0), max_payout=0)


@pytest.mark.parametrize("max_offset", [10, 11])
def test_fp_rules_match_sample_on_both_sides_of_its_pool_limit(max_offset):
    # rng.sample keeps a pool for at most 21 offsets (20 here) and a set of indices for 22
    for seed in range(40):
        rng, oracle = BoundedRandom(seed), random.Random(seed)
        for _ in range(5):
            rule = random_fp_rule(rng, max_offset=max_offset)
            assert_same_rule(rule, randint_fp_rule(oracle, max_offset=max_offset))
        assert_same_state_after(rng, oracle)
    with pytest.raises(ValueError, match="empty range"):
        random_fp_rule(BoundedRandom(0), max_offset=max_offset, max_payout=0)


@pytest.mark.parametrize("max_offset", [0, 1, 2])
def test_a_sample_larger_than_the_offsets_raises_where_sample_raises(max_offset):
    # 0, 2 or 4 offsets against 1 to 5 drawn: some draws fit, the rest raise in rng.sample
    outcomes = set()
    for seed in range(40):
        rng, oracle = BoundedRandom(seed), random.Random(seed)
        try:
            expected = randint_fp_rule(oracle, max_offset=max_offset)
        except ValueError as error:
            with pytest.raises(ValueError, match=re.escape(str(error))):
                random_fp_rule(rng, max_offset=max_offset)
            outcomes.add("raised")
        else:
            assert_same_rule(random_fp_rule(rng, max_offset=max_offset), expected)
            outcomes.add("drawn")
        assert_same_state_after(rng, oracle)
    assert outcomes == ({"raised"} if max_offset == 0 else {"raised", "drawn"})
