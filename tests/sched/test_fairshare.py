"""Tests for decayed-usage fair-share accounting."""

import math
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sched.fairshare import FairShareTracker


class TestValidation:
    def test_rejects_nonpositive_half_life(self):
        with pytest.raises(ConfigurationError):
            FairShareTracker(half_life_s=0.0)

    def test_rejects_negative_shares(self):
        with pytest.raises(ConfigurationError):
            FairShareTracker(shares={"a": -1.0})

    def test_rejects_negative_charge(self):
        tracker = FairShareTracker()
        with pytest.raises(ConfigurationError):
            tracker.charge("a", [-5.0], 0.0)


class TestUsage:
    def test_charge_and_read(self):
        tracker = FairShareTracker()
        tracker.charge("alice", [100.0], 0.0)
        assert tracker.usage("alice", 0.0) == 100.0

    def test_unknown_entity_zero(self):
        assert FairShareTracker().usage("ghost", 0.0) == 0.0

    def test_decay_half_life(self):
        tracker = FairShareTracker(half_life_s=100.0)
        tracker.charge("alice", [80.0], 0.0)
        assert tracker.usage("alice", 100.0) == pytest.approx(40.0)
        assert tracker.usage("alice", 200.0) == pytest.approx(20.0)

    def test_charges_accumulate_with_decay(self):
        tracker = FairShareTracker(half_life_s=100.0)
        tracker.charge("alice", [80.0], 0.0)
        tracker.charge("alice", [10.0], 100.0)
        assert tracker.usage("alice", 100.0) == pytest.approx(50.0)

    def test_usage_share(self):
        tracker = FairShareTracker()
        tracker.charge("a", [30.0], 0.0)
        tracker.charge("b", [10.0], 0.0)
        assert tracker.usage_share("a", 0.0) == pytest.approx(0.75)
        assert tracker.usage_share("b", 0.0) == pytest.approx(0.25)

    def test_usage_share_no_usage(self):
        assert FairShareTracker().usage_share("a", 0.0) == 0.0


class TestTargetShares:
    def test_equal_shares_default(self):
        tracker = FairShareTracker()
        tracker.charge("a", [1.0], 0.0)
        tracker.charge("b", [1.0], 0.0)
        assert tracker.target_share("a") == pytest.approx(0.5)

    def test_explicit_shares(self):
        tracker = FairShareTracker(shares={"big": 3.0, "small": 1.0})
        assert tracker.target_share("big") == pytest.approx(0.75)
        assert tracker.target_share("small") == pytest.approx(0.25)

    def test_newcomer_share(self):
        tracker = FairShareTracker()
        tracker.charge("a", [1.0], 0.0)
        # A never-seen entity counts as one share against the population.
        assert tracker.target_share("new") == pytest.approx(0.5)


class TestFactor:
    def test_underserved_positive(self):
        tracker = FairShareTracker()
        tracker.charge("hog", [100.0], 0.0)
        tracker.charge("idle", [0.0], 0.0)
        assert tracker.factor("idle", 0.0) > 0
        assert tracker.factor("hog", 0.0) < 0

    def test_factor_bounded(self):
        tracker = FairShareTracker()
        tracker.charge("a", [1e9], 0.0)
        tracker.charge("b", [0.0], 0.0)
        assert -1.0 <= tracker.factor("a", 0.0) <= 1.0
        assert -1.0 <= tracker.factor("b", 0.0) <= 1.0

    def test_decay_privileges_recent_usage(self):
        # Equal lifetime usage, but hog's is old: decay makes the
        # recent user look like the over-consumer.
        tracker = FairShareTracker(half_life_s=100.0)
        tracker.charge("hog", [1000.0], 0.0)
        tracker.charge("recent", [1000.0], 500.0)
        assert tracker.usage_share("hog", 500.0) < 0.5
        assert tracker.factor("hog", 500.0) > tracker.factor("recent", 500.0)


@given(
    charges=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.floats(0.0, 1e6),
            st.floats(0.0, 1e6),
        ),
        min_size=1,
        max_size=20,
    ),
    probe=st.floats(0.0, 2e6),
)
def test_property_shares_sum_to_one(charges, probe):
    """Usage shares over charged entities always sum to 1 (or all 0)."""
    tracker = FairShareTracker()
    t = 0.0
    for entity, amount, dt in sorted(charges, key=lambda c: c[2]):
        t = dt
        tracker.charge(entity, [amount], t)
    t_read = max(t, probe)
    total_share = sum(
        tracker.usage_share(e, t_read) for e in tracker.entities()
    )
    assert total_share == pytest.approx(1.0) or total_share == 0.0


@given(amount=st.floats(0.0, 1e9), dt=st.floats(0.0, 1e7))
def test_property_decay_monotone(amount, dt):
    tracker = FairShareTracker(half_life_s=3600.0)
    tracker.charge("a", [amount], 0.0)
    assert tracker.usage("a", dt) <= amount + 1e-9


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@given(
    history=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.floats(0.0, 1e6),
            st.floats(0.0, 1e5),
        ),
        max_size=10,
    ),
    batch=st.lists(
        st.tuples(st.sampled_from(["a", "b", "c", "d"]), st.floats(0.0, 1e6)),
        min_size=1,
        max_size=30,
    ),
    gap=st.floats(0.0, 1e5),
    probe=st.floats(0.0, 1e5),
)
def test_property_batched_charge_bit_identical(history, batch, gap, probe):
    """Charging each entity's amounts in one call leaves usage and
    factors bit-identical to charging the amounts one at a time."""
    one, batched = (
        FairShareTracker(half_life_s=3600.0, shares={"a": 2.0})
        for _ in range(2)
    )
    t = 0.0
    for entity, amount, step in history:
        t += step
        one.charge(entity, [amount], t)
        batched.charge(entity, [amount], t)
    t += gap
    grouped = {}
    for entity, amount in batch:
        one.charge(entity, [amount], t)
        grouped.setdefault(entity, []).append(amount)
    for entity, amounts in grouped.items():
        batched.charge(entity, amounts, t)
    assert list(batched.entities()) == list(one.entities())
    for entity in one.entities():
        for when in (t, t + probe):
            assert _bits(batched.usage(entity, when)) == _bits(
                one.usage(entity, when)
            )
            assert _bits(batched.factor(entity, when)) == _bits(
                one.factor(entity, when)
            )


def test_batched_charge_validates_before_charging():
    tracker = FairShareTracker()
    with pytest.raises(ConfigurationError):
        tracker.charge("a", [5.0, -1.0], 0.0)
    assert tracker.usage("a", 0.0) == 0.0
    assert tracker.version == 0


def _factor_from_scratch(charges, shares, half_life_s, entity, t):
    """``factor(entity, t)`` recomputed from the charge history alone:
    each stored usage decayed with ``math.exp``, summed in insertion
    order, then ``target - usage / total``."""
    rate = math.log(2.0) / half_life_s
    stored = {e: (0.0, 0.0) for e in shares}
    for who, amount, when in charges:
        value, since = stored.get(who, (0.0, when))
        if when > since:
            value = value * math.exp(-rate * (when - since))
        stored[who] = (value + amount, when)
    decayed = {
        e: value if t <= since else value * math.exp(-rate * (t - since))
        for e, (value, since) in stored.items()
    }
    total = sum(decayed.values())
    usage_share = 0.0 if total <= 0.0 else decayed.get(entity, 0.0) / total
    known = dict(shares)
    for e in stored:
        known.setdefault(e, 1.0)
    share_total = sum(known.values())
    if entity in known:
        target = known[entity] / share_total
    else:
        target = 1.0 / (share_total + 1.0)
    return target - usage_share


@given(
    history=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.floats(0.0, 1e6),
            st.floats(0.0, 1e5),
        ),
        max_size=12,
    ),
    shares=st.sampled_from([{}, {"a": 2.0, "q": 0.5}]),
    all_zero=st.booleans(),
    probes=st.tuples(st.floats(0.0, 1e5), st.floats(0.0, 1e5)),
)
def test_property_factor_bit_identical_to_from_scratch(
    history, shares, all_zero, probes
):
    """``factor`` equals a from-scratch evaluation bit for bit after
    every charge, for charged entities, entities known only through
    ``shares`` (``q``), newcomers (``z``) and an all-zero tracker; a
    second query in the same version at another time returns the
    first value."""
    tracker = FairShareTracker(half_life_s=3600.0, shares=shares)
    charges = []
    t = 0.0
    for entity, amount, step in history:
        t += step
        if all_zero:
            amount = 0.0
        tracker.charge(entity, [amount], t)
        charges.append((entity, amount, t))
        first, second = t + probes[0], t + probes[1]
        for entity_ in ("a", "b", "c", "q", "z"):
            got = tracker.factor(entity_, first)
            assert _bits(got) == _bits(
                _factor_from_scratch(charges, shares, 3600.0, entity_, first)
            )
            assert _bits(tracker.factor(entity_, second)) == _bits(got)


@given(
    history=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.floats(0.0, 1e6),
            st.floats(0.0, 1e5),
        ),
        max_size=12,
    ),
    shares=st.sampled_from([{}, {"a": 2.0, "q": 0.5}]),
    queries=st.lists(
        st.tuples(
            st.floats(0.0, 1e5),
            st.lists(st.sampled_from(["a", "b", "c", "q", "z"]),
                     max_size=6),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_property_batched_factors_match_per_entity_calls(
    history, shares, queries
):
    """``factors`` returns, bit for bit, what one ``factor`` call per
    entity returns on a twin tracker, with the same memo semantics:
    values memoized earlier in the version are reused at later times,
    misses are evaluated at the query time, and repeats hit."""
    batched, single = (
        FairShareTracker(half_life_s=3600.0, shares=shares)
        for _ in range(2)
    )
    t = 0.0
    for entity, amount, step in history:
        t += step
        batched.charge(entity, [amount], t)
        single.charge(entity, [amount], t)
        for offset, entities in queries:
            got = batched.factors(entities, t + offset)
            want = [single.factor(e, t + offset) for e in entities]
            assert [_bits(v) for v in got] == [_bits(v) for v in want]
