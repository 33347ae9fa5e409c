"""Pinned simulated results of the perf workloads.

Each workload's makespan and message count are the model's answer, so
they must not move between revisions unless the model itself changed.
The fault workload covers retries and degraded links.
"""

import pytest

from repro.analysis import perf
from repro.analysis.perf import perf_workloads
from repro.machine._fastfill import kernel_description
from repro.schedules import validate_schedule
from repro.schedules.serialize import schedule_from_json, schedule_to_json

#: ``(sim_ms, messages)`` per workload, recorded by the earlier
#: wall-clock harness.  Never regenerate these to make a test pass: a
#: mismatch means simulated behaviour changed.
PINNED = {
    "pex_n16_b512": (4.625414344535942, 240),
    "bex_n16_b512": (4.930456897750849, 240),
    "rex_n16_b512": (7.934756438392171, 64),
    "pex_n32_b512": (14.288077498885821, 992),
    "bex_n32_b512": (14.865421470108535, 992),
    "rex_n32_b512": (28.157221219431904, 160),
    "irr_d50_greedy": (10.01039598818295, 496),
    "fault_pex_n16_b256": (4.687336704583707, 240),
}


def test_every_workload_is_pinned():
    assert [wl.name for wl in perf_workloads()] == list(PINNED)


@pytest.mark.parametrize(
    "workload", perf_workloads(), ids=lambda wl: wl.name
)
def test_simulated_result_is_pinned(workload):
    res = workload.execute(workload.build())
    assert (res.time_ms, res.sim.message_count) == PINNED[workload.name]


@pytest.mark.parametrize(
    "workload", perf_workloads(), ids=lambda wl: wl.name
)
def test_built_schedule_passes_lint(workload):
    assert validate_schedule(workload.build()).ok


@pytest.mark.parametrize(
    "workload", perf_workloads(), ids=lambda wl: wl.name
)
def test_schedule_reloaded_from_json_gives_the_pinned_result(workload):
    text = schedule_to_json(workload.build())
    reloaded = schedule_from_json(text)
    assert schedule_to_json(reloaded) == text
    res = workload.execute(reloaded)
    assert (res.time_ms, res.sim.message_count) == PINNED[workload.name]


def test_kernel_description_is_reexported():
    # perfbench/run.py reads the kernel state from this module.
    assert perf.kernel_description is kernel_description
