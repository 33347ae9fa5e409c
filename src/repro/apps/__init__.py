"""Applications driving the schedulers: meshes and the 2-D FFT.

* :mod:`repro.apps.mesh` / :mod:`repro.apps.partition` /
  :mod:`repro.apps.halo` / :mod:`repro.apps.workloads` — unstructured
  meshes, RCB partitioning, ghost analysis, and the packaged Table 12
  workloads (the irregular-pattern pipeline of Section 4);
* :mod:`repro.apps.transpose` / :mod:`repro.apps.fft2d` — the 2-D FFT of
  Table 5 built on complete exchange.
"""

from .mesh import (
    PAPER_MESHES,
    UnstructuredMesh,
    delaunay_mesh,
    paper_mesh,
    structured_triangle_mesh,
)
from .partition import partition_sizes, random_partition, rcb_partition
from .halo import HaloExchange, build_halo, halo_pattern
from .workloads import PAPER_TABLE12_STATS, Workload, paper_workload, workload_names
from .transpose import EXCHANGE_ALGORITHMS, block_bytes, transpose_schedule
from .fft2d import FFT2DTiming, distributed_fft2d, fft2d_time, fft_flops

__all__ = [
    "PAPER_MESHES",
    "UnstructuredMesh",
    "delaunay_mesh",
    "paper_mesh",
    "structured_triangle_mesh",
    "partition_sizes",
    "random_partition",
    "rcb_partition",
    "HaloExchange",
    "build_halo",
    "halo_pattern",
    "PAPER_TABLE12_STATS",
    "Workload",
    "paper_workload",
    "workload_names",
    "EXCHANGE_ALGORITHMS",
    "block_bytes",
    "transpose_schedule",
    "FFT2DTiming",
    "distributed_fft2d",
    "fft2d_time",
    "fft_flops",
]
