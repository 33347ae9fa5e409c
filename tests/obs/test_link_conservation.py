"""The link-utilization series accounts for exactly the bytes moved.

Integrating the series (each sample's summed per-link rates held until
the next sample, the last one to the makespan) must give every
message's wire bytes times the links its route crosses.  The network
going idle between waves and after the last one is part of the
record: without its all-zero sample the last wave's rates run on over
the gap.
"""

import pytest

from repro import obs
from repro.machine import CM5Params, MachineConfig, fat_tree_for
from repro.machine.params import wire_bytes
from repro.schedules import (
    balanced_exchange,
    execute_schedule,
    linear_exchange,
    pairwise_exchange,
    recursive_exchange,
)

CASES = [
    (pairwise_exchange, 16, 256),
    (linear_exchange, 16, 1024),
    (recursive_exchange, 16, 0),
    (recursive_exchange, 16, 512),
    (balanced_exchange, 32, 512),
]


@pytest.mark.parametrize(
    "build,nprocs,nbytes",
    CASES,
    ids=[f"{b.__name__}-{n}x{m}" for b, n, m in CASES],
)
def test_series_integrates_to_the_bytes_on_the_wire(build, nprocs, nbytes):
    # No routing jitter: every flow carries exactly wire_bytes(nbytes).
    config = MachineConfig(nprocs, CM5Params(routing_jitter=0.0))
    with obs.tracing() as tracer:
        res = execute_schedule(build(nprocs, nbytes), config, trace=True)
    samples = tracer.link_util.samples
    assert not samples[-1][1].any(), "the idle network is not recorded"
    ends = [t for t, _ in samples[1:]] + [res.sim.makespan]
    moved = sum(
        float(rates.sum()) * (end - t) for (t, rates), end in zip(samples, ends)
    )
    tree = fat_tree_for(config)
    sent = sum(
        wire_bytes(m.nbytes) * tree.route_slot(m.src, m.dst)[1]
        for m in res.sim.trace.messages
    )
    assert moved / sent == pytest.approx(1.0, abs=1e-6)
