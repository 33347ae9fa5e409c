"""The service's column paths against the per-transfer code they replace.

Relabeling and warm-start adaptation read step columns and plain ints.
The oracles here are the versions that walked ``Transfer`` objects: on
random patterns, permutations and drifts the column paths must serve
the same bytes.  Color refinement runs on integer colors; its oracle is
the SHA-256-colored refinement it replaced, which must give the same
verdict (discrete or ``None``) on every pattern.  A served request
(cold build, isomorphic relabel) must hash a constant number of times.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.model import FaultModel
from repro.faults.plan import FaultPlan
from repro.machine import MachineConfig
from repro.machine.fattree import fat_tree_for
from repro.schedules import (
    CommPattern,
    recursive_exchange,
    schedule_to_json,
)
from repro.schedules.irregular import IRREGULAR_ALGORITHMS
from repro.service import (
    KEY_VERSION,
    Scheduler,
    ScheduleStore,
    StoreEntry,
    adapt_schedule,
    canonical_form,
    canonical_order,
    derive_key,
    drift_variant,
    machine_fingerprint,
)
from repro.service.scheduler import _base_name, _relabel

from ..schedules.checks import Step, Transfer, schedule_of, steps_of, transfers
from ..schedules.scalar_oracles import old_rank_steps
from ..schedules.test_properties import patterns


# ----------------------------------------------------------------------
# The per-transfer versions, kept as oracles.
# ----------------------------------------------------------------------
def old_relabel(schedule, mapping, name):
    steps = tuple(
        Step(
            tuple(
                Transfer(
                    src=int(mapping[t.src]),
                    dst=int(mapping[t.dst]),
                    nbytes=t.nbytes,
                    pack_bytes=t.pack_bytes,
                    unpack_bytes=t.unpack_bytes,
                )
                for t in step
            )
        )
        for step in steps_of(schedule)
    )
    return schedule_of(
        nprocs=schedule.nprocs,
        steps=steps,
        name=name,
        exchange_order=schedule.exchange_order,
    )


def old_adapt_schedule(donor, donor_pattern, pattern, config):
    if donor.nprocs != pattern.nprocs:
        return None
    for _, t in transfers(donor):
        if t.pack_bytes or t.unpack_bytes:
            return None
    diff = donor_pattern != pattern.matrix
    changed = {
        (int(i), int(j)): int(pattern.matrix[i, j])
        for i, j in zip(*np.nonzero(diff))
    }
    steps = []
    for step in steps_of(donor):
        edited = []
        for t in step:
            want = changed.get((t.src, t.dst))
            if want is None:
                edited.append(t)
            elif want > 0:
                edited.append(Transfer(t.src, t.dst, want))
        if edited:
            steps.append(edited)
    covered = {(t.src, t.dst) for s in steps for t in s}
    added = [
        (i, j, b)
        for (i, j), b in sorted(changed.items())
        if b > 0 and (i, j) not in covered and donor_pattern[i, j] == 0
    ]
    new_steps = []
    for i, j, b in added:
        for ns in new_steps:
            if all(t.src != i and t.dst != j for t in ns):
                ns.append(Transfer(i, j, b))
                break
        else:
            new_steps.append([Transfer(i, j, b)])
    steps.extend(new_steps)
    if not steps:
        return None
    final = [Step(tuple(s)) for s in steps]
    healthy = FaultModel(FaultPlan(()), fat_tree_for(config))
    order = old_rank_steps(final, config, healthy)
    return schedule_of(
        nprocs=donor.nprocs,
        steps=tuple(final[i] for i in order),
        name=f"{_base_name(donor.name)}+warm",
        exchange_order=donor.exchange_order,
    )


def _sha(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def old_canonical_order(matrix):
    n = matrix.shape[0]
    colors = [
        _sha(
            repr(
                (
                    sorted(int(b) for b in matrix[i] if b),
                    sorted(int(b) for b in matrix[:, i] if b),
                )
            ).encode()
        )
        for i in range(n)
    ]
    distinct = len(set(colors))
    for _ in range(64):
        if distinct == n:
            break
        new = [
            _sha(
                repr(
                    (
                        colors[i],
                        sorted(
                            (colors[j], int(matrix[i, j]))
                            for j in range(n)
                            if matrix[i, j]
                        ),
                        sorted(
                            (colors[j], int(matrix[j, i]))
                            for j in range(n)
                            if matrix[j, i]
                        ),
                    )
                ).encode()
            )
            for i in range(n)
        ]
        new_distinct = len(set(new))
        if new_distinct == distinct:
            colors = new
            break
        colors, distinct = new, new_distinct
    if distinct != n:
        return None
    return np.array(sorted(range(n), key=lambda i: colors[i]), dtype=np.int64)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
ALGORITHMS = sorted(IRREGULAR_ALGORITHMS)


@st.composite
def drifts(draw, pattern):
    """A near pattern: some cells grow or shrink, some messages vanish,
    some new ones appear (self-messages stay zero)."""
    n = pattern.nprocs
    m = pattern.matrix.copy()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    for _ in range(draw(st.integers(1, 2 * n))):
        i, j = cells[int(rng.integers(len(cells)))]
        kind = draw(st.sampled_from(["grow", "drop", "add"]))
        if kind == "grow":
            m[i, j] = (int(m[i, j]) or 1) * int(rng.integers(2, 5))
        elif kind == "drop":
            m[i, j] = 0
        else:
            m[i, j] = int(rng.integers(1, 4096))
    return CommPattern(m)


# ----------------------------------------------------------------------
# Oracle properties
# ----------------------------------------------------------------------
@given(
    pattern=patterns(sizes=(4, 8, 16)),
    algorithm=st.sampled_from(ALGORITHMS),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_relabel_matches_the_transfer_walk(pattern, algorithm, seed):
    donor = IRREGULAR_ALGORITHMS[algorithm](pattern)
    mapping = np.random.default_rng(seed).permutation(pattern.nprocs)
    new = _relabel(donor, mapping, "x+iso")
    old = old_relabel(donor, mapping, "x+iso")
    assert schedule_to_json(new) == schedule_to_json(old)
    assert new == old and repr(new) == repr(old)


def test_relabel_keeps_store_and_forward_bytes():
    donor = recursive_exchange(8, 64)
    mapping = np.random.default_rng(4).permutation(8)
    new, old = _relabel(donor, mapping, "r"), old_relabel(donor, mapping, "r")
    assert schedule_to_json(new) == schedule_to_json(old)


@given(
    data=st.data(),
    pattern=patterns(sizes=(4, 8, 16)),
    algorithm=st.sampled_from(ALGORITHMS),
)
@settings(max_examples=120, deadline=None)
def test_adapt_matches_the_transfer_walk(data, pattern, algorithm):
    """Random drifts; sometimes the donor's recorded pattern is not the
    one it was built for, so kept, rewritten and dropped transfers also
    meet cells the donor does not cover."""
    donor = IRREGULAR_ALGORITHMS[algorithm](pattern)
    target = data.draw(drifts(pattern))
    recorded = pattern
    if data.draw(st.booleans()):
        recorded = data.draw(drifts(pattern))
    config = MachineConfig(pattern.nprocs)
    new = adapt_schedule(donor, recorded.matrix, target, config)
    old = old_adapt_schedule(donor, recorded.matrix, target, config)
    assert (new is None) == (old is None)
    if new is not None:
        assert schedule_to_json(new) == schedule_to_json(old)
        assert new == old


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("seed", range(4))
def test_adapt_matches_on_table_11_drifts(algorithm, seed):
    """The served case: an N=32 pattern drifted by one cell."""
    pattern = CommPattern.synthetic(32, (0.1, 0.25, 0.5, 0.75)[seed], 256, seed=seed)
    donor = IRREGULAR_ALGORITHMS[algorithm](pattern)
    target = drift_variant(pattern, 1000 + seed)
    config = MachineConfig(32)
    new = adapt_schedule(donor, pattern.matrix, target, config)
    old = old_adapt_schedule(donor, pattern.matrix, target, config)
    assert schedule_to_json(new) == schedule_to_json(old)


def test_adapt_refuses_what_the_transfer_walk_refuses():
    config = MachineConfig(8)
    staged = recursive_exchange(8, 64)
    pattern = CommPattern.complete_exchange(8, 64)
    assert adapt_schedule(staged, pattern.matrix, pattern, config) is None
    # Every message dropped: nothing left to serve.
    donor = IRREGULAR_ALGORITHMS["greedy"](pattern)
    empty = CommPattern(np.zeros((8, 8), dtype=np.int64))
    assert adapt_schedule(donor, pattern.matrix, empty, config) is None
    assert old_adapt_schedule(donor, pattern.matrix, empty, config) is None


def ring(n, bump=3):
    """A directed ring whose one heavier edge takes refinement rounds
    to propagate around."""
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        m[i, (i + 1) % n] = 64 + (i == bump)
    return CommPattern(m)


@given(pattern=patterns(sizes=(4, 8, 16, 32)), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_canonical_verdict_matches_the_sha_reference(pattern, seed):
    """Integer colors split ranks exactly as SHA-256 colors did, so the
    verdict is the reference's, on the pattern and on a relabeling."""
    perm = np.random.default_rng(seed).permutation(pattern.nprocs)
    for p in (pattern, CommPattern(pattern.matrix[np.ix_(perm, perm)])):
        new, old = canonical_order(p.matrix), old_canonical_order(p.matrix)
        assert (new is None) == (old is None)
        if new is not None:
            assert sorted(new.tolist()) == list(range(p.nprocs))


def test_key_canonical_flag_matches_the_sha_reference():
    """A complete exchange stays tied and a ring needs rounds; the key is
    canonical exactly when the reference's refinement is discrete."""
    config = MachineConfig(16)
    tied = CommPattern.complete_exchange(16, 64)
    for p, discrete in ((tied, False), (ring(16), True)):
        canonical_form.cache_clear()
        assert derive_key(p, "greedy", config).canonical is discrete
        assert (canonical_order(p.matrix) is not None) is discrete
        assert (old_canonical_order(p.matrix) is not None) is discrete


@pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
def test_canonical_matrix_is_relabel_invariant(n):
    """Every relabeling seats the same canonical matrix, and an int32 or
    a Fortran-ordered copy of the matrix gets the same order."""
    rng = np.random.default_rng(n)
    for p in (CommPattern.synthetic(n, 0.5, 256, seed=n), ring(n)):
        canonical_form.cache_clear()
        cm, order = canonical_form(p)
        assert cm is not None
        for _ in range(4):
            perm = rng.permutation(n)
            relabeled = CommPattern(p.matrix[np.ix_(perm, perm)])
            np.testing.assert_array_equal(canonical_form(relabeled)[0], cm)
        for copy in (p.matrix.astype(np.int32), np.asfortranarray(p.matrix)):
            assert canonical_order(copy).tolist() == order.tolist()


@pytest.mark.parametrize("drift", [False, True])
def test_version_1_entries_never_serve(tmp_path, drift):
    """Entries under version-1 keys are not loaded: their pattern, or a
    drift of it, is built cold, not served as a hit or warm-adapted.
    One has the SHA-colored canonical hash a version-1 service wrote,
    one differs from today's key only in the version."""
    assert KEY_VERSION == 2
    pattern = CommPattern.synthetic(16, 0.5, 256, seed=3)
    config = MachineConfig(16)
    key = derive_key(pattern, "greedy", config)
    order = old_canonical_order(pattern.matrix)
    cm = np.ascontiguousarray(pattern.matrix[np.ix_(order, order)])
    serialized = schedule_to_json(IRREGULAR_ALGORITHMS["greedy"](pattern))
    writer = ScheduleStore(tmp_path)
    for pattern_hash in (_sha(b"16", cm.tobytes()), key.pattern):
        stale = dataclasses.replace(key, pattern=pattern_hash, version=1)
        writer.put(
            StoreEntry(stale, pattern.matrix.copy(), order, serialized, False)
        )
    store = ScheduleStore(tmp_path)
    assert len(store) == 0 and store.quarantined == 0
    request = drift_variant(pattern, 7) if drift else pattern
    with Scheduler(store=store, workers=0) as scheduler:
        assert scheduler.request(request, "greedy", config).source == "cold"
    assert len(list(tmp_path.glob("*.json"))) == 3


def test_served_requests_hash_a_constant_number_of_times(monkeypatch):
    """A never-seen cold request and an isomorphic relabel call SHA-256
    as often at N=128 as at N=32: refinement hashes nothing per rank."""
    sha256 = hashlib.sha256
    counts = []
    for n in (32, 128):
        pattern = CommPattern.synthetic(n, 0.5, 256, seed=11)
        perm = np.random.default_rng(5).permutation(n)
        relabeled = CommPattern(pattern.matrix[np.ix_(perm, perm)])
        canonical_form.cache_clear()
        machine_fingerprint.cache_clear()
        calls = []
        monkeypatch.setattr(
            hashlib, "sha256", lambda *a: calls.append(1) or sha256(*a)
        )
        with Scheduler(workers=0) as scheduler:
            sources = [
                scheduler.request(p, "greedy", MachineConfig(n)).source
                for p in (pattern, relabeled)
            ]
        monkeypatch.setattr(hashlib, "sha256", sha256)
        assert sources == ["cold", "isomorphic"]
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 8
