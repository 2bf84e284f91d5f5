"""Tests for the content-addressed run store."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.store import RunStore, canonical_payload, content_key


class TestCanonicalPayload:
    def test_floats_tagged_with_repr(self):
        assert canonical_payload(1.0) == "float:1.0"
        assert canonical_payload(1) == 1
        assert canonical_payload(0.1) == f"float:{0.1!r}"

    def test_mapping_order_irrelevant(self):
        a = content_key({"a": 1, "b": [2, 3], "c": None})
        b = content_key({"c": None, "b": (2, 3), "a": 1})
        assert a == b

    def test_value_changes_change_key(self):
        base = {"kind": "native", "seed": 7}
        assert content_key(base) != content_key({**base, "seed": 8})
        assert content_key(base) != content_key({**base, "seed": 7.0})

    def test_rejects_non_string_keys(self):
        with pytest.raises(TypeError):
            canonical_payload({1: "x"})

    def test_rejects_live_objects(self):
        with pytest.raises(TypeError):
            canonical_payload({"rng": object()})


class TestMemoryLayer:
    def test_get_or_compute_memoizes(self):
        store = RunStore()
        calls = []

        def compute():
            calls.append(1)
            return ["product"]

        payload = {"kind": "test", "x": 1}
        a = store.get_or_compute(payload, compute)
        b = store.get_or_compute(payload, compute)
        assert a is b
        assert len(calls) == 1
        assert store.hits == 1 and store.misses == 1

    def test_none_is_a_legal_value(self):
        store = RunStore()
        key = store.key({"kind": "none"})
        store.put(key, None)
        assert key in store
        assert store.get(key, default="miss") is None

    def test_clear_drops_memory(self):
        store = RunStore()
        payload = {"kind": "test"}
        a = store.get_or_compute(payload, lambda: object())
        store.clear()
        b = store.get_or_compute(payload, lambda: object())
        assert a is not b


class TestPeerHooks:
    def test_peer_get_counts_and_distinguishes_none(self):
        from repro.store import PEER_MISS

        store = RunStore()
        key = store.key({"kind": "peer"})
        assert store.peer_get(key) is PEER_MISS
        store.put(key, None)  # None is a legal stored value...
        assert store.peer_get(key) is None  # ...and not a miss
        assert store.counters.peer_gets == 2

    def test_peer_put_is_first_write_wins(self, tmp_path):
        store = RunStore(tmp_path)
        key = store.key({"kind": "peer-put"})
        store.peer_put(key, "original")
        store.peer_put(key, "late-duplicate")
        assert store.get(key) == "original"
        assert store.counters.peer_puts == 2
        # A disk-resident entry also blocks the overwrite, even when
        # memory was cleared (fresh replica, warm disk).
        other = RunStore(tmp_path)
        other.peer_put(key, "other-process-duplicate")
        assert other.get(key) == "original"


class TestDiskLayer:
    def test_cross_store_roundtrip(self, tmp_path):
        payload = {"kind": "test", "v": [1, 2.5]}
        writer = RunStore(tmp_path)
        value = writer.get_or_compute(payload, lambda: {"answer": 42})
        reader = RunStore(tmp_path)
        got = reader.get_or_compute(
            payload, lambda: pytest.fail("should hit disk")
        )
        assert got == value
        assert reader.disk_hits == 1 and reader.misses == 0

    def test_entries_named_by_digest(self, tmp_path):
        store = RunStore(tmp_path)
        payload = {"kind": "test"}
        store.get_or_compute(payload, lambda: 1)
        assert (tmp_path / f"{content_key(payload)}.pkl").is_file()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        payload = {"kind": "test"}
        (tmp_path / f"{content_key(payload)}.pkl").write_bytes(
            b"not a pickle"
        )
        store = RunStore(tmp_path)
        assert store.get_or_compute(payload, lambda: "recomputed") == (
            "recomputed"
        )
        assert store.misses == 1
        # The recompute repairs the disk entry in place: a fresh store
        # reads it back through the integrity-checked format.
        reader = RunStore(tmp_path)
        assert reader.get(content_key(payload), default="miss") == (
            "recomputed"
        )

    def test_tampered_entry_quarantined(self, tmp_path):
        """An entry whose payload no longer matches its recorded digest
        is moved to ``corrupt/`` and reported as a miss."""
        payload = {"kind": "test"}
        RunStore(tmp_path).get_or_compute(payload, lambda: "good")
        entry = tmp_path / f"{content_key(payload)}.pkl"
        data = bytearray(entry.read_bytes())
        data[-1] ^= 0xFF  # flip a payload bit, keep the header intact
        entry.write_bytes(bytes(data))
        reader = RunStore(tmp_path)
        assert reader.get(content_key(payload), default="miss") == "miss"
        assert reader.counters.integrity_failures == 1
        assert reader.counters.quarantined == 1
        assert not entry.exists()
        assert (tmp_path / "corrupt" / entry.name).is_file()

    def test_truncated_entry_quarantined(self, tmp_path):
        """A torn write (file cut mid-payload) fails verification."""
        payload = {"kind": "test"}
        RunStore(tmp_path).get_or_compute(
            payload, lambda: list(range(100))
        )
        entry = tmp_path / f"{content_key(payload)}.pkl"
        data = entry.read_bytes()
        entry.write_bytes(data[: len(data) - 10])
        reader = RunStore(tmp_path)
        assert reader.get_or_compute(
            payload, lambda: "recomputed"
        ) == "recomputed"
        assert reader.counters.integrity_failures == 1
        assert reader.counters.quarantined == 1
        assert (tmp_path / "corrupt" / entry.name).is_file()

    def test_headerless_entry_quarantined(self, tmp_path):
        """A raw pickle without the integrity header is never loaded:
        it is quarantined like any entry that fails the check, and
        reads as a miss."""
        import pickle

        payload = {"kind": "headerless"}
        entry = tmp_path / f"{content_key(payload)}.pkl"
        entry.write_bytes(pickle.dumps({"answer": 42}))
        reader = RunStore(tmp_path)
        assert reader.get(content_key(payload), default="miss") == "miss"
        assert reader.counters.integrity_failures == 1
        assert reader.counters.quarantined == 1
        assert (tmp_path / "corrupt" / entry.name).is_file()

    def test_quarantine_preserves_bad_bytes(self, tmp_path):
        payload = {"kind": "test"}
        entry = tmp_path / f"{content_key(payload)}.pkl"
        entry.write_bytes(b"not a pickle")
        store = RunStore(tmp_path)
        assert store.get(content_key(payload), default="miss") == "miss"
        moved = tmp_path / "corrupt" / entry.name
        assert moved.read_bytes() == b"not a pickle"

    def test_clear_keeps_disk(self, tmp_path):
        store = RunStore(tmp_path)
        payload = {"kind": "test"}
        store.get_or_compute(payload, lambda: "v")
        store.clear()
        assert len(store) == 0
        assert store.get_or_compute(
            payload, lambda: pytest.fail("disk entry lost")
        ) == "v"


class TestInFlightLeases:
    """The concurrent-writer guard: one owner computes, everyone else
    waits for its entry instead of stampeding."""

    def test_waiter_reads_owners_entry(self, tmp_path):
        payload = {"kind": "lease"}
        owner = RunStore(tmp_path, poll_interval=0.01)
        waiter = RunStore(tmp_path, poll_interval=0.01)
        waiter_calls = []

        def slow_compute():
            time.sleep(0.4)
            return "owned"

        thread = threading.Thread(
            target=lambda: owner.get_or_compute(payload, slow_compute)
        )
        thread.start()
        time.sleep(0.1)  # let the owner take the lease
        got = waiter.get_or_compute(
            payload, lambda: waiter_calls.append(1) or "duplicate"
        )
        thread.join(timeout=10.0)
        assert got == "owned"
        assert waiter_calls == []
        assert waiter.counters.lease_waits == 1
        assert waiter.disk_hits == 1
        assert waiter.misses == 0

    def test_lease_released_after_compute(self, tmp_path):
        store = RunStore(tmp_path)
        payload = {"kind": "lease"}
        store.get_or_compute(payload, lambda: "v")
        assert not list(tmp_path.glob("*.lock"))

    def test_lease_released_on_compute_failure(self, tmp_path):
        store = RunStore(tmp_path)
        payload = {"kind": "lease"}

        def boom():
            raise RuntimeError("compute failed")

        with pytest.raises(RuntimeError):
            store.get_or_compute(payload, boom)
        assert not list(tmp_path.glob("*.lock"))
        # The key is still computable afterwards.
        assert store.get_or_compute(payload, lambda: "ok") == "ok"

    def test_stale_lease_is_broken(self, tmp_path):
        payload = {"kind": "lease"}
        key = content_key(payload)
        lock = tmp_path / f"{key}.lock"
        lock.write_text("99999")
        old = time.time() - 60.0
        os.utime(lock, (old, old))
        store = RunStore(tmp_path, lease_timeout=0.5)
        assert store.get_or_compute(payload, lambda: "took-over") == (
            "took-over"
        )
        assert store.misses == 1
        assert not lock.exists()
        assert store.counters.lease_breaks == 1

    def test_lease_timeout_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEASE_TIMEOUT", "2.5")
        assert RunStore(tmp_path)._lease_timeout == 2.5

    def test_explicit_lease_timeout_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEASE_TIMEOUT", "2.5")
        store = RunStore(tmp_path, lease_timeout=7.0)
        assert store._lease_timeout == 7.0

    @pytest.mark.parametrize("raw", ["banana", "-1", "0", "inf", "nan"])
    def test_bad_env_lease_timeout_rejected(self, raw, monkeypatch):
        from repro.errors import ConfigurationError

        monkeypatch.setenv("REPRO_LEASE_TIMEOUT", raw)
        with pytest.raises(ConfigurationError):
            RunStore()

    def test_waiter_takes_over_after_owner_failure(self, tmp_path):
        payload = {"kind": "lease"}
        owner = RunStore(tmp_path, poll_interval=0.01)
        waiter = RunStore(tmp_path, poll_interval=0.01)
        owner_error = []

        def failing_compute():
            time.sleep(0.3)
            raise RuntimeError("owner died")

        def run_owner():
            try:
                owner.get_or_compute(payload, failing_compute)
            except RuntimeError as exc:
                owner_error.append(exc)

        thread = threading.Thread(target=run_owner)
        thread.start()
        time.sleep(0.1)
        got = waiter.get_or_compute(payload, lambda: "recovered")
        thread.join(timeout=10.0)
        assert got == "recovered"
        assert len(owner_error) == 1
        assert waiter.counters.lease_waits >= 1

    def test_memory_store_never_touches_leases(self):
        store = RunStore()
        assert store.get_or_compute({"kind": "mem"}, lambda: 1) == 1
        assert store.counters.lease_waits == 0


#: Child process for the multi-process stampede regression: sync on a
#: ready/go file barrier, then hammer one key through a disk store.
_HAMMER_SCRIPT = """
import sys, time
from pathlib import Path
from repro.store import RunStore

store_dir, sync_dir, tag = sys.argv[1], Path(sys.argv[2]), sys.argv[3]
(sync_dir / f"ready-{tag}").touch()
while not (sync_dir / "go").exists():
    time.sleep(0.01)

store = RunStore(store_dir, poll_interval=0.02)

def compute():
    (sync_dir / f"computed-{tag}").touch()
    time.sleep(0.5)
    return "product"

print(store.get_or_compute({"kind": "stampede"}, compute), end="")
"""


class TestMultiProcessStampede:
    def test_one_key_many_processes_single_compute(self, tmp_path):
        """Regression for the cache stampede: N processes calling
        ``get_or_compute`` on one uncached key must run ``compute``
        exactly once, and every process must see the owner's value."""
        store_dir = tmp_path / "store"
        sync_dir = tmp_path / "sync"
        sync_dir.mkdir()
        env = dict(
            os.environ,
            PYTHONPATH=str(
                Path(__file__).resolve().parent.parent / "src"
            ),
        )
        n = 5
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _HAMMER_SCRIPT,
                 str(store_dir), str(sync_dir), str(i)],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for i in range(n)
        ]
        deadline = time.monotonic() + 30.0
        while len(list(sync_dir.glob("ready-*"))) < n:
            assert time.monotonic() < deadline, "children never ready"
            time.sleep(0.01)
        (sync_dir / "go").touch()
        outputs = [proc.communicate(timeout=60.0) for proc in procs]
        assert all(proc.returncode == 0 for proc in procs), outputs
        assert [out for out, _ in outputs] == ["product"] * n
        computed = list(sync_dir.glob("computed-*"))
        assert len(computed) == 1, (
            f"stampede: {len(computed)} processes computed the key"
        )
        assert not list(store_dir.glob("*.lock"))
