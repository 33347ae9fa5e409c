"""Cache-key derivation for the scheduling service.

A schedule is a pure function of four inputs: the pattern matrix, the
machine configuration, the algorithm name, and the builder parameters.
:func:`derive_key` folds all four into a :class:`ScheduleKey` whose
digest names the cached artifact — two requests collide exactly when a
cached schedule can serve both.

Pattern hashing canonicalizes first: two patterns that differ only by
a relabeling of ranks have schedules that differ only by the same
relabeling, so they should share one cache entry.  Canonicalization
runs 1-dimensional (Weisfeiler-Leman) color refinement on the weighted
communication digraph and *applies* only when refinement separates
every rank (the permutation is then unique and isomorphism-invariant);
symmetric patterns such as a complete exchange keep their exact hash —
a wrong merge is a correctness bug, a missed merge is just a cold
build.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, fields
from typing import Mapping, Optional, Tuple

import numpy as np

from ..machine.params import MachineConfig
from ..schedules.pattern import CommPattern

__all__ = [
    "ScheduleKey",
    "KEY_VERSION",
    "canonical_order",
    "canonical_form",
    "pattern_digest",
    "machine_fingerprint",
    "params_fingerprint",
    "derive_key",
]

#: Bump when key semantics change so stale disk tiers never serve.
KEY_VERSION = 2

#: Refinement is capped at this many rounds; colors stabilize in at most
#: ``nprocs`` rounds, the cap only guards pathological inputs.
_MAX_ROUNDS = 64


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def _rank_rows(signature: np.ndarray) -> Tuple[np.ndarray, int]:
    """Each row's rank among the distinct rows in lexicographic integer
    order, and the number of distinct rows."""
    order = np.lexsort(signature.T[::-1])
    rows = signature[order]
    splits = np.any(rows[1:] != rows[:-1], axis=1)
    ranks = np.concatenate(([0], np.cumsum(splits)))
    colors = np.empty_like(ranks)
    colors[order] = ranks
    return colors, int(ranks[-1]) + 1


def canonical_order(matrix: np.ndarray) -> Optional[np.ndarray]:
    """Isomorphism-invariant rank ordering, or None when ambiguous.

    Runs 1-dimensional color refinement on the weighted digraph, with
    integer colors.  Byte values are densified to ids; an edge's key is
    ``color[partner] * n_ids + byte_id`` (non-edges sort first as -1).
    Each round a rank's signature is its own color, its sorted out-edge
    keys and its sorted in-edge keys, and its new color is the rank of
    that signature among the distinct ones.  The first round, from one
    shared color, gives each rank its in/out byte multisets.  When
    refinement ends with all ``nprocs`` colors distinct, sorting ranks
    by color is a canonical order shared by every relabeling of the
    pattern.  When two ranks stay color-tied (the pattern has a
    potential automorphism, e.g. any complete exchange) canonicalization
    does not apply and ``None`` is returned — callers fall back to the
    exact matrix hash.
    """
    m = np.asarray(matrix)
    n = m.shape[0]
    values, ids = np.unique(m, return_inverse=True)
    ids = ids.reshape(n, n).astype(np.int64)
    edge, width = m != 0, len(values)
    colors, distinct = np.zeros(n, dtype=np.int64), 1
    # One more round than the cap: the first only sets initial colors.
    for _ in range(_MAX_ROUNDS + 1):
        if distinct == n:
            break
        out_keys = np.where(edge, colors * width + ids, -1)
        in_keys = np.where(edge, colors[:, None] * width + ids, -1)
        colors, new_distinct = _rank_rows(
            np.hstack(
                [colors[:, None], np.sort(out_keys, 1), np.sort(in_keys, 0).T]
            )
        )
        if new_distinct == distinct:
            break
        distinct = new_distinct
    if distinct != n:
        return None
    return np.argsort(colors)


@functools.lru_cache(maxsize=4096)
def canonical_form(
    pattern: CommPattern,
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """``(canonical_matrix, order)`` or ``(None, None)`` when ambiguous.

    ``order[k]`` is the original rank seated at canonical position
    ``k``; the canonical matrix is the pattern relabeled through that
    seating, identical for every relabeling of the same pattern.
    Memoized — the scheduler consults the canonical form on both the key
    and the store-entry sides of one request, and each refinement round
    sorts two ``nprocs``-square key matrices.
    """
    order = canonical_order(pattern.matrix)
    if order is None:
        return None, None
    return pattern.matrix[np.ix_(order, order)], order


def pattern_digest(pattern: CommPattern) -> str:
    """Exact content hash of one pattern matrix."""
    m = np.ascontiguousarray(pattern.matrix)
    return _sha(str(m.shape[0]).encode(), m.tobytes())


@functools.lru_cache(maxsize=256)
def machine_fingerprint(config: MachineConfig) -> str:
    """Hash of the partition size and every model parameter."""
    items = [("nprocs", config.nprocs)]
    items.extend(
        (f.name, getattr(config.params, f.name))
        for f in fields(config.params)
    )
    return _sha(repr(sorted(items)).encode())


def params_fingerprint(params: Optional[Mapping[str, object]]) -> str:
    """Hash of the builder's keyword parameters (sorted, JSON-encoded)."""
    doc = json.dumps(dict(params or {}), sort_keys=True, default=repr)
    return _sha(doc.encode())


@dataclass(frozen=True)
class ScheduleKey:
    """Content address of one (pattern, machine, algorithm, params) build.

    ``pattern`` is the canonical-form hash when canonicalization applied
    (``canonical`` True) and the exact matrix hash otherwise; two
    relabel-isomorphic patterns therefore share a key exactly when the
    refinement is discrete.  The store pairs every entry with the exact
    pattern it was built for, so a shared key never serves the wrong
    ranks — the scheduler relabels and re-lints on an isomorphic hit.
    """

    algorithm: str
    machine: str
    pattern: str
    params: str
    canonical: bool
    nprocs: int
    version: int = KEY_VERSION

    @functools.cached_property
    def digest(self) -> str:
        """Stable hex name of this key (store filename)."""
        return _sha(
            repr(
                (
                    self.version,
                    self.algorithm,
                    self.machine,
                    self.pattern,
                    self.params,
                    self.canonical,
                    self.nprocs,
                )
            ).encode()
        )


def derive_key(
    pattern: CommPattern,
    algorithm: str,
    config: MachineConfig,
    params: Optional[Mapping[str, object]] = None,
    canonicalize: bool = True,
) -> ScheduleKey:
    """Content-address one scheduling request.

    With ``canonicalize`` (the default) the pattern component is the
    canonical-form hash whenever refinement is discrete, so relabeled
    but isomorphic patterns share the key.
    """
    canonical_hash: Optional[str] = None
    if canonicalize:
        cmatrix, _ = canonical_form(pattern)
        if cmatrix is not None:
            cm = np.ascontiguousarray(cmatrix)
            canonical_hash = _sha(str(cm.shape[0]).encode(), cm.tobytes())
    return ScheduleKey(
        algorithm=algorithm,
        machine=machine_fingerprint(config),
        pattern=canonical_hash or pattern_digest(pattern),
        params=params_fingerprint(params),
        canonical=canonical_hash is not None,
        nprocs=pattern.nprocs,
    )
