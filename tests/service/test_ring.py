"""Tests for the consistent-hash ring.

The fleet routes without consensus *because* the ring is a pure
function of the member list — so these tests pin the properties that
make that safe: determinism across construction orders and across
processes (a subprocess recomputes the same assignment digest), and
stability under membership change (add moves only the keys the new
replica takes, ≈K/N of them).
"""

import hashlib
import subprocess
import sys

import pytest

from repro.errors import ConfigurationError
from repro.service.ring import DEFAULT_VNODES, HashRing, _point


def _keys(n):
    """n content-address-shaped keys (sha256 hex of small ints)."""
    return [
        hashlib.sha256(str(i).encode()).hexdigest() for i in range(n)
    ]


class TestBasics:
    def test_empty_ring_owns_nothing(self):
        ring = HashRing()
        assert ring.owner("abc") is None
        assert len(ring) == 0

    def test_single_replica_owns_everything(self):
        ring = HashRing(["r0"])
        assert all(ring.owner(k) == "r0" for k in _keys(50))

    def test_membership_api(self):
        ring = HashRing(["r0", "r1"])
        assert "r0" in ring and "r2" not in ring
        assert ring.replicas == ["r0", "r1"]
        ring.add("r2")
        assert len(ring) == 3

    def test_add_is_idempotent(self):
        ring = HashRing(["r0"])
        before = len(ring._points)
        ring.add("r0")
        assert len(ring._points) == before

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            HashRing([""])


class TestDeterminism:
    def test_insertion_order_irrelevant(self):
        keys = _keys(200)
        forward = HashRing(["r0", "r1", "r2", "r3"])
        backward = HashRing(["r3", "r2", "r1", "r0"])
        assert [forward.owner(k) for k in keys] == [
            backward.owner(k) for k in keys
        ]

    def test_assignment_digest_stable(self):
        keys = _keys(100)
        a = HashRing(["r0", "r1", "r2"]).assignment_digest(keys)
        b = HashRing(["r2", "r0", "r1"]).assignment_digest(keys)
        assert a == b

    def test_pinned_routing_digest(self):
        """Byte-stable routed-key -> owner mapping under a pinned
        member list and key set.  This constant changing means every
        deployed fleet would disagree with its former self — never
        update it casually."""
        digest = HashRing(["r0", "r1", "r2"]).assignment_digest(
            _keys(64)
        )
        assert digest == (
            "9da6e8b932836670fbf000385c56e5487d3df79fa2efc18606"
            "3e11973a8f4417"
        )

    def test_cross_process_determinism(self):
        """A fresh interpreter (fresh PYTHONHASHSEED) computes the
        identical assignment digest — routing never depends on
        process identity."""
        keys = _keys(64)
        local = HashRing(["r0", "r1", "r2"]).assignment_digest(keys)
        script = (
            "import hashlib\n"
            "from repro.service.ring import HashRing\n"
            "keys = [hashlib.sha256(str(i).encode()).hexdigest() "
            "for i in range(64)]\n"
            "print(HashRing(['r0','r1','r2'])"
            ".assignment_digest(keys))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == local


class TestStability:
    def test_add_moves_only_keys_to_new_replica(self):
        """Growing the fleet reassigns keys *only* to the newcomer:
        no key moves between surviving replicas, so their caches stay
        warm."""
        keys = _keys(1000)
        ring = HashRing(["r0", "r1", "r2"])
        before = {k: ring.owner(k) for k in keys}
        ring.add("r3")
        for key in keys:
            after = ring.owner(key)
            if after != before[key]:
                assert after == "r3"

    def test_add_moves_about_k_over_n(self):
        """The newcomer takes ≈K/N of the keys (its fair share), not
        ~all of them (the modulo-hash failure mode)."""
        keys = _keys(2000)
        ring = HashRing(["r0", "r1", "r2"])
        before = {k: ring.owner(k) for k in keys}
        ring.add("r3")
        moved = sum(ring.owner(k) != before[k] for k in keys)
        expected = len(keys) / 4
        assert 0.4 * expected < moved < 2.0 * expected

    def test_ownership_roughly_balanced(self):
        """With DEFAULT_VNODES the max/mean ownership skew stays
        bounded — no replica silently becomes a hotspot."""
        keys = _keys(4000)
        ring = HashRing(["r0", "r1", "r2", "r3"])
        counts = {rid: 0 for rid in ring.replicas}
        for key in keys:
            counts[ring.owner(key)] += 1
        mean = len(keys) / len(counts)
        assert max(counts.values()) < 2.0 * mean
        assert min(counts.values()) > 0.35 * mean


class TestPointFunction:
    def test_point_is_64_bit(self):
        for label in ("a", "r0#0", "x" * 100):
            assert 0 <= _point(label) < 1 << 64

    def test_vnodes_constant(self):
        assert DEFAULT_VNODES == 64
        assert len(HashRing(["r0"])._points) == 64
