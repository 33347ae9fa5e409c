"""Content-addressed schedule store: in-memory + JSON-on-disk tiers.

Entries are keyed by a :class:`~repro.service.keys.ScheduleKey` digest
and carry the *serialized* schedule (via
:mod:`repro.schedules.serialize`) plus the exact pattern the schedule
was built for — the digest may be a canonical-form hash shared by
several isomorphic patterns, and serving the wrong labeling is a
correctness bug, so lookups always get the stored pattern back for
comparison.

The disk tier is one JSON file per entry under the store directory,
written atomically (unique temp file + ``os.replace``) so a crashed run
never truncates an entry; a partial write torn by a crash lives only in
a ``.tmp`` file the loader's ``*.json`` glob never matches.  Corrupt or
forged files are **quarantined** — moved to a ``corrupt/`` sibling
directory and counted (``service.store.quarantined``,
:attr:`ScheduleStore.quarantined`) — never trusted and never silently
reloaded on the next start.  Entries under an older ``KEY_VERSION``
stay on disk but are not loaded, so they are neither hits nor warm-start
donors.  Hit/miss traffic is reported through ``repro.obs`` counters
(``service.store.*``).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..schedules.pattern import CommPattern
from .keys import KEY_VERSION, ScheduleKey

__all__ = ["StoreEntry", "ScheduleStore"]

#: On-disk entry format marker.
_ENTRY_FORMAT = "repro-schedule-entry"
_ENTRY_VERSION = 1


@dataclass(frozen=True)
class StoreEntry:
    """One cached build: key, exact pattern, serialized schedule."""

    key: ScheduleKey
    #: Exact (N, N) byte matrix the schedule covers.
    pattern: np.ndarray
    #: Canonical seating used when the key is canonical (``order[k]`` =
    #: original rank at canonical position ``k``), else None.
    order: Optional[np.ndarray]
    #: Serialized schedule (repro.schedules.serialize JSON).
    serialized: str
    #: Store-and-forward schedules are not warm-start-adaptable.
    staged: bool

    @functools.cached_property
    def pattern_bytes(self) -> bytes:
        """Raw matrix bytes, the hot path's exact-match identity."""
        return np.ascontiguousarray(self.pattern).tobytes()

    def to_json(self) -> str:
        doc = {
            "format": _ENTRY_FORMAT,
            "version": _ENTRY_VERSION,
            "key": {
                "algorithm": self.key.algorithm,
                "machine": self.key.machine,
                "pattern": self.key.pattern,
                "params": self.key.params,
                "canonical": self.key.canonical,
                "nprocs": self.key.nprocs,
                "version": self.key.version,
            },
            "pattern": self.pattern.tolist(),
            "order": None if self.order is None else self.order.tolist(),
            "serialized": self.serialized,
            "staged": self.staged,
        }
        return json.dumps(doc, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "StoreEntry":
        doc = json.loads(text)
        if not isinstance(doc, dict) or doc.get("format") != _ENTRY_FORMAT:
            raise ValueError("not a schedule-store entry")
        if doc.get("version") != _ENTRY_VERSION:
            raise ValueError(
                f"unsupported entry version {doc.get('version')!r}"
            )
        key = ScheduleKey(**doc["key"])
        order = doc.get("order")
        return cls(
            key=key,
            pattern=np.array(doc["pattern"], dtype=np.int64),
            order=None if order is None else np.array(order, dtype=np.int64),
            serialized=str(doc["serialized"]),
            staged=bool(doc["staged"]),
        )


class ScheduleStore:
    """Thread-safe two-tier (memory + optional disk) schedule cache."""

    def __init__(self, path: Optional[Path] = None):
        self._lock = threading.Lock()
        self._mem: Dict[str, StoreEntry] = {}
        #: (machine, algorithm, params, nprocs) -> digests, for the
        #: near-miss scan of the warm-start path.
        self._buckets: Dict[Tuple[str, str, str, int], List[str]] = {}
        self._path = Path(path) if path is not None else None
        #: Corrupt/forged disk entries moved to ``corrupt/`` at load.
        self.quarantined = 0
        if self._path is not None and self._path.is_dir():
            self._load_disk()

    # ------------------------------------------------------------------
    def _bucket_key(self, key: ScheduleKey) -> Tuple[str, str, str, int]:
        return (key.machine, key.algorithm, key.params, key.nprocs)

    def _index(self, digest: str, entry: StoreEntry) -> None:
        self._mem[digest] = entry
        self._buckets.setdefault(self._bucket_key(entry.key), []).append(
            digest
        )

    def _quarantine(self, p: Path) -> None:
        """Move a corrupt/forged file aside instead of trusting it.

        Quarantined files land under ``<store>/corrupt/`` with their
        original name (a collision keeps both under a numbered suffix),
        outside the loader's ``*.json`` glob — so the evidence survives
        for inspection but can never be served, and the next start does
        not re-warn about the same file forever.
        """
        assert self._path is not None
        self.quarantined += 1
        obs.count("service.store.quarantined")
        qdir = self._path / "corrupt"
        dest = qdir / p.name
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            n = 1
            while dest.exists():
                dest = qdir / f"{p.name}.{n}"
                n += 1
            os.replace(p, dest)
        except OSError:
            # Read-only store or the file vanished: it stays counted
            # and untrusted either way.
            pass

    def _load_disk(self) -> None:
        assert self._path is not None
        for p in sorted(self._path.glob("*.json")):
            try:
                entry = StoreEntry.from_json(p.read_text())
            except (OSError, ValueError, KeyError, TypeError):
                self._quarantine(p)
                continue
            if entry.key.digest != p.stem:
                self._quarantine(p)  # renamed/forged: content must name itself
                continue
            if entry.key.version != KEY_VERSION:
                continue  # built under older key semantics
            self._index(p.stem, entry)
        if self.quarantined:
            print(
                f"warning: schedule store {self._path}: quarantined "
                f"{self.quarantined} corrupt entr(y/ies) under "
                f"{self._path / 'corrupt'}",
                file=sys.stderr,
            )

    # ------------------------------------------------------------------
    def get(self, key: ScheduleKey) -> Optional[StoreEntry]:
        """Entry stored under ``key``'s digest, or None."""
        with self._lock:
            entry = self._mem.get(key.digest)
        if entry is not None:
            obs.count("service.store.hit")
        else:
            obs.count("service.store.miss")
        return entry

    def put(self, entry: StoreEntry) -> None:
        """Insert (or overwrite) one entry; persists when disk-backed."""
        digest = entry.key.digest
        with self._lock:
            fresh = digest not in self._mem
            if fresh:
                self._index(digest, entry)
            else:
                self._mem[digest] = entry
        obs.count("service.store.insert")
        if self._path is not None:
            self._write_disk(digest, entry)

    def _write_disk(self, digest: str, entry: StoreEntry) -> None:
        assert self._path is not None
        self._path.mkdir(parents=True, exist_ok=True)
        final = self._path / f"{digest}.json"
        fd, tmp = tempfile.mkstemp(
            dir=str(self._path), prefix=f".{digest[:12]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as f:
                f.write(entry.to_json())
            os.replace(tmp, final)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def near_misses(
        self, key: ScheduleKey, pattern: CommPattern, limit: int
    ) -> List[Tuple[int, StoreEntry]]:
        """Warm-start candidates: same bucket, close pattern, not staged.

        Returns ``(edit_distance, entry)`` pairs with distance in
        ``1..limit`` (0 would be an exact hit), sorted by distance then
        by key digest so the choice is deterministic.  Distance is the
        number of differing matrix cells — the natural metric for
        "one more halo neighbour" / "one message grew" drift.  The
        bucket's candidate patterns are stacked and compared with the
        request's in one pass, so the scan makes no NumPy call per entry.
        """
        with self._lock:
            digests = list(self._buckets.get(self._bucket_key(key), ()))
            entries = [self._mem[d] for d in digests if d in self._mem]
        matrix = pattern.matrix
        entries = [
            e for e in entries if not e.staged and e.pattern.shape == matrix.shape
        ]
        if not entries:
            return []
        stack = np.stack([e.pattern for e in entries])
        dists = np.count_nonzero(stack != matrix, axis=(1, 2)).tolist()
        out = [
            (dist, entry)
            for dist, entry in zip(dists, entries)
            if 1 <= dist <= limit
        ]
        out.sort(key=lambda de: (de[0], de[1].key.digest))
        return out

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._mem)

    def clear(self) -> None:
        """Drop both tiers (disk files included)."""
        with self._lock:
            self._mem.clear()
            self._buckets.clear()
            if self._path is not None and self._path.is_dir():
                for p in self._path.glob("*.json"):
                    try:
                        p.unlink()
                    except OSError:
                        pass
