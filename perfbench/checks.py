"""Output checks shared by the workloads.

Every check returns the number of outputs it rejected, so failures add
up into the run's ``failed`` count.  Three kinds of evidence:

* the reference kept with the benchmark (``reference.json``) for each
  workload's default seed;
* agreement across runs: the first digest seen for an output is
  remembered in the checkout's ``.perfbench/digests.json`` and every
  later run of the same output must reproduce it;
* agreement inside one run (repeated rounds, traced against untraced
  passes, cache repeats against their first compute).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def digest(text: str) -> str:
    """sha256 of a rendered output."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def replay_fingerprint(events: int, jobs: Iterable[Tuple]) -> str:
    """Event count plus a digest of every job's (id, start, finish)."""
    h = hashlib.sha256()
    for job_id, start, finish in sorted(jobs):
        h.update(f"{job_id}:{start!r}:{finish!r};".encode("ascii"))
    return f"{events}:{h.hexdigest()}"


def load_reference() -> Dict[str, str]:
    """Output key -> reference digest for the default seeds."""
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


class DigestBook:
    """Digests this checkout has already seen, keyed by output."""

    def __init__(self, path: Path,
                 reference: Optional[Mapping[str, str]] = None) -> None:
        self.path = path
        self.reference = dict(reference or {})
        try:
            self.seen: Dict[str, str] = json.loads(
                path.read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            self.seen = {}
        #: Human-readable reasons for every rejection in this run.
        self.problems: List[str] = []

    def check(self, key: str, value: str) -> int:
        """1 when ``value`` disagrees with the reference or with an
        earlier run of the same output, else 0 (and remember it)."""
        expected = self.reference.get(key) or self.seen.get(key)
        if expected is not None and expected != value:
            source = "reference" if key in self.reference else "earlier run"
            self.problems.append(
                f"{key}: {value[:16]} differs from the {source} "
                f"{expected[:16]}"
            )
            return 1
        self.seen.setdefault(key, value)
        return 0

    def same(self, what: str, first: str, second: str) -> int:
        """1 (and a recorded problem) when two outputs differ."""
        if first == second:
            return 0
        self.problems.append(f"{what}: {first[:16]} != {second[:16]}")
        return 1

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.seen, indent=0, sort_keys=True),
                       encoding="utf-8")
        os.replace(tmp, self.path)


def check_reply(reply: Mapping, expected_key: str) -> Optional[str]:
    """Why a ``/run`` reply is wrong, or None when it is a 200 carrying
    the content key the client computed for its request."""
    if reply.get("http_status") != 200:
        return f"status {reply.get('http_status')}"
    if reply.get("key") != expected_key:
        return f"key {reply.get('key')!r} != {expected_key!r}"
    if not isinstance(reply.get("result"), str):
        return "no result text"
    return None
