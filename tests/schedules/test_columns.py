"""Column-built schedules against step-built ones.

Every builder (PEX/BEX/LEX/REX, PS/BS/LS/GS, the broadcasts and
coloring) makes int64 step columns.  The oracles here are the
per-transfer loops those builders used to be, building their schedules
step by step (:func:`~tests.schedules.checks.schedule_of`): the
builder's schedule must have the same steps, serialize to the same
bytes, and agree with the oracle's under ``==``, ``hash``, ``repr`` and
``dataclasses.replace``.  ``Schedule`` must reject exactly what a
transfer-by-transfer build rejects, with the same first error.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.schedules import (
    CommPattern,
    Schedule,
    ScheduleError,
    balanced_exchange,
    balanced_schedule,
    coloring_schedule,
    greedy_schedule,
    linear_broadcast,
    linear_exchange,
    linear_schedule,
    optimal_step_count,
    pairing_schedule,
    pairwise_exchange,
    pairwise_schedule,
    paper_pattern_P,
    recursive_broadcast,
    recursive_exchange,
    rex_partner,
    schedule_to_json,
)
from repro.schedules.schedule import LOWER_RECV_FIRST, LOWER_SEND_FIRST

from .checks import Step, Transfer, checked_step, schedule_of, shift_pattern, steps_of


# ----------------------------------------------------------------------
# The per-transfer builders, kept as oracles.
# ----------------------------------------------------------------------
def old_bex_partner(rank, j, nprocs):
    virtual = (rank + 1) % nprocs
    node = (virtual ^ j) - 1
    if node == -1:
        node = nprocs - 1
    return node


def old_xor_partner(rank, j):
    return rank ^ j


def old_pairing_schedule(pattern, partner_fn, name):
    n = pattern.nprocs
    steps = []
    for j in range(1, n):
        transfers = []
        for rank in range(n):
            partner = partner_fn(rank, j)
            if rank < partner:
                fwd = pattern[rank, partner]
                rev = pattern[partner, rank]
                if fwd:
                    transfers.append(Transfer(rank, partner, fwd))
                if rev:
                    transfers.append(Transfer(partner, rank, rev))
        if transfers:
            steps.append(Step(tuple(transfers)))
    return schedule_of(n, steps, name, LOWER_RECV_FIRST)


def old_uniform_pairing_schedule(nprocs, nbytes, partner_fn, name):
    steps = []
    for j in range(1, nprocs):
        transfers = []
        for rank in range(nprocs):
            partner = partner_fn(rank, j)
            if rank < partner:
                transfers.append(Transfer(rank, partner, nbytes))
                transfers.append(Transfer(partner, rank, nbytes))
        steps.append(Step(tuple(transfers)))
    return schedule_of(nprocs, steps, name, LOWER_RECV_FIRST)


def old_linear_schedule(pattern, name="LS"):
    steps = []
    for receiver in range(pattern.nprocs):
        transfers = tuple(
            Transfer(src=src, dst=receiver, nbytes=nbytes)
            for src, nbytes in pattern.recvs_of(receiver)
        )
        if transfers:
            steps.append(Step(transfers))
    return schedule_of(nprocs=pattern.nprocs, steps=steps, name=name)


def old_linear_exchange(nprocs, nbytes):
    steps = tuple(
        Step(tuple(Transfer(src=j, dst=i, nbytes=nbytes) for j in range(nprocs) if j != i))
        for i in range(nprocs)
    )
    return schedule_of(nprocs=nprocs, steps=steps, name="LEX")


def old_greedy_schedule(pattern, order="lowest", name="GS"):
    n = pattern.nprocs

    def dest_list(i):
        sends = pattern.sends_of(i)
        if order == "largest_first":
            sends = sorted(sends, key=lambda dn: (-dn[1], dn[0]))
        return [j for j, _ in sends]

    remaining = {i: dest_list(i) for i in range(n)}
    pending = {(i, j) for i in range(n) for j in remaining[i]}
    steps = []
    while pending:
        send_free = [True] * n
        recv_free = [True] * n
        transfers = []
        for i in range(n):
            if not send_free[i]:
                continue
            for j in remaining[i]:
                if (j, i) in pending:
                    if send_free[j] and recv_free[i] and recv_free[j]:
                        transfers.append(Transfer(i, j, pattern[i, j]))
                        transfers.append(Transfer(j, i, pattern[j, i]))
                        send_free[i] = send_free[j] = False
                        recv_free[i] = recv_free[j] = False
                        break
                elif recv_free[j]:
                    transfers.append(Transfer(i, j, pattern[i, j]))
                    send_free[i] = False
                    recv_free[j] = False
                    break
        for t in transfers:
            pending.discard((t.src, t.dst))
            remaining[t.src].remove(t.dst)
        steps.append(Step(tuple(transfers)))
    return schedule_of(n, steps, name, LOWER_RECV_FIRST)


def assert_same_schedule(new, old):
    """``new`` is the builder's schedule, ``old`` its oracle's."""
    assert (new.nsteps, new.n_messages, new.total_bytes) == (
        old.nsteps,
        old.n_messages,
        old.total_bytes,
    )
    assert np.array_equal(new.columns, old.columns)
    assert new == old and hash(new) == hash(old)
    assert schedule_to_json(new) == schedule_to_json(old)
    renamed = replace(new, name="renamed")
    assert renamed == replace(old, name="renamed")
    assert hash(renamed) == hash(replace(old, name="renamed"))


EXCHANGES = {
    "PEX": (pairwise_exchange, lambda n, b: old_uniform_pairing_schedule(n, b, old_xor_partner, "PEX")),
    "BEX": (
        balanced_exchange,
        lambda n, b: old_uniform_pairing_schedule(
            n, b, lambda r, j: old_bex_partner(r, j, n), "BEX"
        ),
    ),
    "LEX": (linear_exchange, old_linear_exchange),
}


@pytest.mark.parametrize("nbytes", [0, 1, 512, 1920])
@pytest.mark.parametrize("nprocs", [2, 4, 8, 16, 32, 64, 128, 256])
@pytest.mark.parametrize("name", sorted(EXCHANGES))
def test_exchange_builders_match_the_per_transfer_loops(name, nprocs, nbytes):
    build, old = EXCHANGES[name]
    assert_same_schedule(build(nprocs, nbytes), old(nprocs, nbytes))


@pytest.mark.parametrize("nprocs", [3, 5, 12])
def test_linear_exchange_on_any_size(nprocs):
    assert_same_schedule(linear_exchange(nprocs, 64), old_linear_exchange(nprocs, 64))


@pytest.mark.parametrize("name", sorted(EXCHANGES))
def test_repr_and_pickle_match(name):
    build, old = EXCHANGES[name]
    assert repr(build(16, 8)) == repr(old(16, 8))
    copy = pickle.loads(pickle.dumps(build(16, 8)))
    assert copy == old(16, 8)


@st.composite
def patterns(draw):
    """Random patterns, some rows and columns all zero."""
    n = draw(st.sampled_from((2, 4, 8, 16, 32)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = (rng.random((n, n)) < draw(st.floats(0.0, 1.0))) * rng.integers(1, 3000, (n, n))
    np.fill_diagonal(m, 0)
    m[rng.random(n) < 0.3] = 0
    m[:, rng.random(n) < 0.3] = 0
    return CommPattern(m)


@settings(max_examples=60, deadline=None)
@given(pattern=patterns())
def test_pattern_builders_match_the_per_transfer_loops(pattern):
    n = pattern.nprocs
    assert_same_schedule(
        pairwise_schedule(pattern), old_pairing_schedule(pattern, old_xor_partner, "PS")
    )
    assert_same_schedule(
        balanced_schedule(pattern),
        old_pairing_schedule(pattern, lambda r, j: old_bex_partner(r, j, n), "BS"),
    )
    assert_same_schedule(linear_schedule(pattern), old_linear_schedule(pattern))


@pytest.mark.parametrize("order", ["lowest", "largest_first"])
@pytest.mark.parametrize(
    "pattern",
    [paper_pattern_P()]
    + [
        CommPattern.synthetic(n, density, 64, seed=n)
        for n in (8, 16, 32)
        for density in (0.1, 0.25, 0.5, 0.75, 1.0)
    ],
    ids=lambda p: f"n{p.nprocs}-m{p.n_operations}",
)
def test_greedy_matches_the_per_transfer_loop(pattern, order):
    assert_same_schedule(
        greedy_schedule(pattern, order=order), old_greedy_schedule(pattern, order)
    )


@settings(max_examples=40, deadline=None)
@given(pattern=patterns(), order=st.sampled_from(["lowest", "largest_first"]))
def test_greedy_matches_the_per_transfer_loop_on_random_patterns(pattern, order):
    # Mixed byte counts, so "largest_first" reorders destinations.
    assert_same_schedule(
        greedy_schedule(pattern, order=order), old_greedy_schedule(pattern, order)
    )


@pytest.mark.parametrize(
    "partner, message",
    [
        (lambda r, j: r, "pairing has a fixed point at rank 0, step 1"),
        (lambda r, j: (r + j) % 4, "pairing is not an involution at step 1: 0->1->2"),
    ],
    ids=["fixed-point", "not-involution"],
)
@pytest.mark.parametrize("pattern", [None, CommPattern.complete_exchange(4, 8)])
def test_pairing_is_checked_for_exchanges_and_patterns(partner, message, pattern):
    with pytest.raises(ValueError, match=message):
        pairing_schedule(4, partner, "X", pattern=pattern, nbytes=8)


def test_non_integral_nbytes_rejected():
    with pytest.raises(TypeError):
        pairwise_exchange(8, 1.5)
    with pytest.raises(TypeError):
        linear_exchange(8, float("nan"))


# ----------------------------------------------------------------------
# REX, the broadcasts and coloring
# ----------------------------------------------------------------------
def old_recursive_exchange(nprocs, nbytes):
    staged = nbytes * (nprocs // 2)
    steps = []
    for i in range(nprocs.bit_length() - 1):
        steps.append(
            Step(
                tuple(
                    Transfer(rank, rex_partner(rank, i, nprocs), staged, staged, staged)
                    for rank in range(nprocs)
                )
            )
        )
    return schedule_of(nprocs, steps, "REX", LOWER_SEND_FIRST)


def old_linear_broadcast(nprocs, root, nbytes, group=None):
    members = list(group) if group is not None else list(range(nprocs))
    steps = tuple(
        Step((Transfer(root, dst, nbytes),)) for dst in members if dst != root
    )
    return schedule_of(nprocs=nprocs, steps=steps, name="LIB")


def old_recursive_broadcast(nprocs, root, nbytes, group=None):
    members = list(group) if group is not None else list(range(nprocs))
    n = len(members)
    rpos = members.index(root)

    def member_at(pos):
        return members[(pos + rpos) % n]

    steps = []
    for j in range(1, n.bit_length()):
        distance = n >> j
        steps.append(
            Step(
                tuple(
                    Transfer(member_at(pos), member_at(pos + distance), nbytes)
                    for pos in range(0, n, 2 * distance)
                )
            )
        )
    return schedule_of(nprocs=nprocs, steps=steps, name="REB")


def old_coloring_schedule(pattern, name="OPT"):
    n = pattern.nprocs
    ncolors = optimal_step_count(pattern)
    if ncolors == 0:
        return schedule_of(nprocs=n, steps=(), name=name)
    sender_color = [dict() for _ in range(n)]
    recv_color = [dict() for _ in range(n)]

    def free_color(used):
        return next(c for c in range(ncolors) if c not in used)

    for src, dst, _nbytes in pattern.operations():
        cu = free_color(sender_color[src])
        cv = free_color(recv_color[dst])
        if cu == cv:
            sender_color[src][cu] = dst
            recv_color[dst][cu] = src
            continue
        chain = []
        node, node_is_recv, color = dst, True, cu
        while True:
            if node_is_recv:
                partner = recv_color[node].get(color)
                if partner is None:
                    break
                chain.append((partner, node, color))
            else:
                partner = sender_color[node].get(color)
                if partner is None:
                    break
                chain.append((node, partner, color))
            node = partner
            node_is_recv = not node_is_recv
            color = cv if color == cu else cu
        for s, r, col in chain:
            del sender_color[s][col]
            del recv_color[r][col]
        for s, r, col in chain:
            other = cv if col == cu else cu
            sender_color[s][other] = r
            recv_color[r][other] = s
        sender_color[src][cu] = dst
        recv_color[dst][cu] = src

    steps = []
    for c in range(ncolors):
        transfers = tuple(
            Transfer(src, dst, pattern[src, dst])
            for src in range(n)
            for col, dst in sender_color[src].items()
            if col == c
        )
        if transfers:
            steps.append(Step(transfers))
    return schedule_of(n, steps, name, LOWER_RECV_FIRST)


@pytest.mark.parametrize("nbytes", [0, 1, 700])
@pytest.mark.parametrize("nprocs", [2, 4, 8, 16, 64, 256])
def test_rex_and_broadcasts_match_the_per_transfer_loops(nprocs, nbytes):
    assert_same_schedule(
        recursive_exchange(nprocs, nbytes), old_recursive_exchange(nprocs, nbytes)
    )
    for root in {0, nprocs // 3, nprocs - 1}:
        assert_same_schedule(
            linear_broadcast(nprocs, root, nbytes),
            old_linear_broadcast(nprocs, root, nbytes),
        )
        assert_same_schedule(
            recursive_broadcast(nprocs, root, nbytes),
            old_recursive_broadcast(nprocs, root, nbytes),
        )


@pytest.mark.parametrize(
    "group, root",
    [([5], 5), ([7, 2], 2), ([9, 1, 4, 12], 4), ([3, 0, 15, 8, 6, 11, 2, 13], 13)],
)
def test_group_broadcasts_match_the_per_transfer_loops(group, root):
    assert_same_schedule(
        linear_broadcast(16, root, 96, group=group),
        old_linear_broadcast(16, root, 96, group=group),
    )
    assert_same_schedule(
        recursive_broadcast(16, root, 96, group=group),
        old_recursive_broadcast(16, root, 96, group=group),
    )


def old_shift_schedule(nprocs, offset, nbytes):
    k = offset % nprocs
    if k == 0:
        return schedule_of(nprocs=nprocs, steps=(), name="SHIFT0")
    transfers = tuple(Transfer(s, (s + k) % nprocs, nbytes) for s in range(nprocs))
    return schedule_of(nprocs=nprocs, steps=(Step(transfers),), name=f"SHIFT{offset:+d}")


@pytest.mark.parametrize("offset", [-17, -1, 0, 1, 3, 16, 31])
@pytest.mark.parametrize("nprocs", [2, 5, 16])
def test_shift_matches_the_per_transfer_loop(nprocs, offset):
    # A shift is a permutation: the optimal coloring schedules it as the
    # one step of the per-transfer shift loop, in the loop's order, and
    # GS finds the same step (an N/2 shift as exchange pairs).
    old = old_shift_schedule(nprocs, offset, 48)
    pattern = shift_pattern(nprocs, offset, 48)
    assert_same_schedule(coloring_schedule(pattern, name=old.name), old)
    gs = greedy_schedule(pattern)
    assert gs.nsteps == old.nsteps
    assert sorted(zip(*gs.columns.tolist())) == sorted(zip(*old.columns.tolist()))


@settings(max_examples=60, deadline=None)
@given(pattern=patterns())
def test_coloring_matches_the_per_transfer_loop(pattern):
    assert_same_schedule(coloring_schedule(pattern), old_coloring_schedule(pattern))


# ----------------------------------------------------------------------
# The constructor's checks: a per-transfer build's errors, first one first.
# ----------------------------------------------------------------------
def steps_built(nprocs, cols, order):
    """Build the same schedule the per-transfer way (raises the same)."""
    step = cols[0].tolist()
    rows = cols[1:].T.tolist()
    nsteps = step[-1] + 1 if step else 0
    steps = tuple(
        checked_step([Transfer(*row) for s, row in zip(step, rows) if s == i])
        for i in range(nsteps)
    )
    return schedule_of(nprocs, steps, "drawn", order)


def outcome(build):
    try:
        return build()
    except ScheduleError as exc:
        return str(exc)


@st.composite
def column_sets(draw):
    n = draw(st.integers(2, 6))
    m = draw(st.integers(0, 12))
    rank = st.integers(-1, n)
    size = st.sampled_from((0, 0, 5, -1))
    step = sorted(draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)))
    cols = np.array(
        [
            step,
            draw(st.lists(rank, min_size=m, max_size=m)),
            draw(st.lists(rank, min_size=m, max_size=m)),
            draw(st.lists(size, min_size=m, max_size=m)),
            draw(st.lists(size, min_size=m, max_size=m)),
            draw(st.lists(size, min_size=m, max_size=m)),
        ],
        dtype=np.int64,
    ).reshape(6, m)
    order = draw(st.sampled_from((LOWER_RECV_FIRST, LOWER_SEND_FIRST, "sideways")))
    return n, cols, order


@settings(max_examples=400, deadline=None)
@given(case=column_sets())
@example(  # one pair in two steps is no repeat
    case=(
        2,
        np.array([[0, 1], [0, 0], [1, 1], [5, 5], [0, 0], [0, 0]]),
        LOWER_RECV_FIRST,
    )
)
def test_columns_raise_what_a_per_transfer_build_raises(case):
    n, cols, order = case
    got = outcome(lambda: Schedule(n, cols, "drawn", order))
    want = outcome(lambda: steps_built(n, cols, order))
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_schedule(got, want)


def test_columns_name_the_first_repeat():
    # 0->1 occurs first, but 2->3 is the first transfer to repeat.
    cols = np.array(
        [[0, 0, 0, 0], [0, 2, 2, 0], [1, 3, 3, 1], [8] * 4, [0] * 4, [0] * 4]
    )
    want = outcome(lambda: steps_built(4, cols, LOWER_RECV_FIRST))
    assert want == "duplicate transfer 2->3 in step"
    assert outcome(lambda: Schedule(4, cols)) == want


@pytest.mark.parametrize(
    "columns, message",
    [
        (np.zeros((6, 2)), "must be int64"),
        (np.zeros((6, 2), dtype=bool), "must be int64"),
        (np.zeros((6, 2), dtype=np.uint64), "must be int64"),
        (np.zeros((5, 2), dtype=np.int64), "shape"),
        ([[1, 0], [0, 1], [1, 0], [8, 8], [0, 0], [0, 0]], "never decrease"),
        ([[-1], [0], [1], [8], [0], [0]], "never decrease"),
    ],
    ids=["float", "bool", "uint64", "shape", "decreasing", "negative-step"],
)
def test_malformed_columns_rejected(columns, message):
    with pytest.raises(ScheduleError, match=message):
        Schedule(4, columns)


def test_nsteps_counts_trailing_empty_steps():
    cols = np.array([[0, 1], [0, 2], [1, 3], [8, 8], [0, 0], [0, 0]])
    sched = Schedule(4, cols, nsteps=4)
    assert sched.nsteps == 4
    assert sched == schedule_of(4, steps_of(Schedule(4, cols)) + (Step(()),) * 2)
    with pytest.raises(ScheduleError, match="1 steps cannot hold step index 1"):
        Schedule(4, cols, nsteps=1)


def test_columns_are_read_only_and_c_contiguous():
    cols = np.asfortranarray(pairwise_exchange(8, 64).columns)
    sched = Schedule(8, cols, "PEX")
    assert sched.columns is not cols and sched.columns.flags.c_contiguous
    assert not sched.columns.flags.writeable
