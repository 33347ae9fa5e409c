#!/usr/bin/env python
"""Irregular communication from a real CFD pipeline (paper Section 4).

End-to-end reproduction of how Table 12's workloads arise:

1. synthesize an unstructured mesh (stand-in for the NASA meshes),
2. partition it over 32 simulated processors with recursive coordinate
   bisection,
3. extract the halo-exchange ``Pattern`` matrix,
4. schedule it with all four of the paper's algorithms (plus the
   edge-coloring optimum this library adds) and race them.

Run:  python examples/irregular_cfd.py
"""

from repro.apps import paper_workload
from repro.machine import MachineConfig
from repro.schedules import (
    algorithm_names,
    coloring_schedule,
    execute_schedule,
    optimal_step_count,
    schedule_irregular,
)


def pattern_pipeline() -> None:
    print("=== the Table 12 pipeline: mesh -> partition -> pattern ===")
    for name in ("euler545", "euler2k", "cg16k"):
        wl = paper_workload(name)
        print(f"  {wl.describe()}")

    wl = paper_workload("euler545")
    cfg = MachineConfig(32)
    print("\n  scheduling euler545's pattern on 32 nodes:")
    times = {}
    for alg in algorithm_names():
        sched = schedule_irregular(wl.pattern, alg)
        times[alg] = execute_schedule(sched, cfg).time_ms
        print(f"    {alg:9s} {sched.nsteps:3d} steps  {times[alg]:8.3f} ms")
    opt = coloring_schedule(wl.pattern)
    t_opt = execute_schedule(opt, cfg).time_ms
    print(
        f"    {'optimal':9s} {opt.nsteps:3d} steps  {t_opt:8.3f} ms"
        f"   (Koenig bound: {optimal_step_count(wl.pattern)} steps)"
    )
    print(f"  -> fastest heuristic: {min(times, key=times.get)} "
          "(the paper: greedy wins below 50% density)")


if __name__ == "__main__":
    pattern_pipeline()
