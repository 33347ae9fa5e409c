"""Analysis: paper data, table/figure rendering, shape checks, calibration.

* :mod:`repro.analysis.paper_data` — the paper's published numbers;
* :mod:`repro.analysis.experiments` — regenerate every table/figure;
* :mod:`repro.analysis.tables` / :mod:`repro.analysis.figures` — output
  rendering (fixed-width tables, ASCII plots, CSV);
* :mod:`repro.analysis.compare` — shape checks (orderings, factors,
  crossovers);
* :mod:`repro.analysis.calibrate` — provenance of the model constants;
* :mod:`repro.analysis.cache` — persistent memo of expensive runs;
* :mod:`repro.analysis.perf` — the pinned simulator workloads;
* :mod:`repro.analysis.conformance` — cross-backend agreement harness
  (``results/conformance.{txt,json}``);
* :mod:`repro.analysis.optgap` — optimality gaps vs makespan lower
  bounds (``results/optgap.{txt,json}``).
"""

from .cache import SimCache, default_cache
from .compare import (
    ShapeCheck,
    check_order,
    check_ratio_at_least,
    check_within_factor,
    crossover_x,
    summarize,
)
from .figures import FigureData, Series, ascii_plot
from .paper_data import (
    EXCHANGE_ORDER,
    FIGURE_CLAIMS,
    IRREGULAR_ORDER,
    TABLE5_FFT_SECONDS,
    TABLE11_SYNTHETIC_MS,
    TABLE12_REAL_MS,
    TABLE12_STATS,
)
from .tables import format_comparison, format_table, paired_rows
from .experiments import (
    BROADCAST_KINDS,
    EXCHANGE_ALGS,
    broadcast_time,
    exchange_time,
    fft_time,
    fig5_data,
    fig678_data,
    fig10_data,
    fig11_data,
    irregular_time,
    table5_data,
    table11_data,
    table12_data,
)
from .calibrate import Anchor, CalibrationResult, anchors_from_table11, evaluate, fit
from .perf import perf_workloads
from .conformance import (
    ConformanceReport,
    backend_times,
    conformance_json,
    render_conformance,
    run_conformance,
    write_conformance,
)
from .optgap import (
    OptgapReport,
    optgap_json,
    pattern_gaps,
    render_optgap,
    run_optgap,
    write_optgap,
)
from .visualize import render_fat_tree, render_message_gantt
from .sensitivity import SensitivityResult, sweep_parameter

__all__ = [
    "SimCache",
    "default_cache",
    "ShapeCheck",
    "check_order",
    "check_ratio_at_least",
    "check_within_factor",
    "crossover_x",
    "summarize",
    "FigureData",
    "Series",
    "ascii_plot",
    "EXCHANGE_ORDER",
    "FIGURE_CLAIMS",
    "IRREGULAR_ORDER",
    "TABLE5_FFT_SECONDS",
    "TABLE11_SYNTHETIC_MS",
    "TABLE12_REAL_MS",
    "TABLE12_STATS",
    "format_comparison",
    "format_table",
    "paired_rows",
    "BROADCAST_KINDS",
    "EXCHANGE_ALGS",
    "broadcast_time",
    "exchange_time",
    "fft_time",
    "fig5_data",
    "fig678_data",
    "fig10_data",
    "fig11_data",
    "irregular_time",
    "table5_data",
    "table11_data",
    "table12_data",
    "perf_workloads",
    "Anchor",
    "CalibrationResult",
    "anchors_from_table11",
    "evaluate",
    "fit",
    "ConformanceReport",
    "backend_times",
    "conformance_json",
    "render_conformance",
    "run_conformance",
    "write_conformance",
    "OptgapReport",
    "optgap_json",
    "pattern_gaps",
    "render_optgap",
    "run_optgap",
    "write_optgap",
    "render_fat_tree",
    "render_message_gantt",
    "SensitivityResult",
    "sweep_parameter",
]
