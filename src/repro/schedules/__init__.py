"""Communication-scheduling algorithms — the paper's core contribution.

Regular patterns (Section 3):

* :func:`linear_exchange` (LEX), :func:`pairwise_exchange` (PEX),
  :func:`recursive_exchange` (REX), :func:`balanced_exchange` (BEX) —
  complete exchange, by name in the :data:`EXCHANGE_ALGORITHMS` registry;
* :func:`linear_broadcast` (LIB), :func:`recursive_broadcast` (REB).

Irregular patterns (Section 4), driven by a :class:`CommPattern`:

* :func:`linear_schedule` (LS), :func:`pairwise_schedule` (PS),
  :func:`balanced_schedule` (BS), :func:`greedy_schedule` (GS), plus the
  :data:`IRREGULAR_ALGORITHMS` registry.

Schedules are inspected with :func:`analyze` (locality metrics),
validated with :func:`validate_structure` / :func:`check_covers_pattern`,
and priced on the machine model with :func:`execute_schedule`.
"""

from .pattern import CommPattern, paper_pattern_P
from .schedule import (
    LOWER_RECV_FIRST,
    LOWER_SEND_FIRST,
    Schedule,
    ScheduleError,
    Step,
    Transfer,
    check_covers_pattern,
    validate_structure,
)
from .lex import linear_exchange, linear_schedule
from .pex import (
    pairing_schedule,
    pairwise_exchange,
    pairwise_schedule,
    uniform_pairing_schedule,
)
from .rex import recursive_exchange, rex_partner, verify_block_routing
from .bex import balanced_exchange, balanced_schedule, bex_partner
from .broadcast import linear_broadcast, recursive_broadcast
from .greedy import greedy_schedule
from .irregular import (
    EXCHANGE_ALGORITHMS,
    IRREGULAR_ALGORITHMS,
    algorithm_names,
    schedule_irregular,
)
from .coloring import coloring_schedule, optimal_step_count
from .localsearch import local_schedule
from .bound import (
    LowerBound,
    bisection_bound,
    endpoint_bound,
    lp_bound,
    makespan_lower_bound,
)
from .estimate import estimate_schedule_time, estimate_step_time
from .shift import shift_schedule
from .mesh2d import ProcessorMesh
from .repair import rank_steps, repair_schedule, step_cost_estimate
from .validate import (
    LintError,
    LintIssue,
    LintReport,
    lint_schedule,
    validate_schedule,
)
from .selection import SelectionResult, auto_schedule, paper_rule
from .serialize import (
    load_schedule,
    save_schedule,
    schedule_from_json,
    schedule_to_json,
)
from .asynchronous import (
    linear_exchange_async_program,
    linear_exchange_sync_program,
    linear_exchange_time,
)
from .executor import ExecutionResult, execute_schedule, schedule_program
from .metrics import ScheduleMetrics, StepLocality, analyze

__all__ = [
    "CommPattern",
    "paper_pattern_P",
    "LOWER_RECV_FIRST",
    "LOWER_SEND_FIRST",
    "Schedule",
    "ScheduleError",
    "Step",
    "Transfer",
    "check_covers_pattern",
    "validate_structure",
    "linear_exchange",
    "linear_schedule",
    "pairing_schedule",
    "pairwise_exchange",
    "pairwise_schedule",
    "uniform_pairing_schedule",
    "recursive_exchange",
    "rex_partner",
    "verify_block_routing",
    "balanced_exchange",
    "balanced_schedule",
    "bex_partner",
    "linear_broadcast",
    "recursive_broadcast",
    "greedy_schedule",
    "EXCHANGE_ALGORITHMS",
    "IRREGULAR_ALGORITHMS",
    "algorithm_names",
    "schedule_irregular",
    "coloring_schedule",
    "optimal_step_count",
    "local_schedule",
    "LowerBound",
    "endpoint_bound",
    "bisection_bound",
    "lp_bound",
    "makespan_lower_bound",
    "estimate_schedule_time",
    "estimate_step_time",
    "shift_schedule",
    "ProcessorMesh",
    "SelectionResult",
    "auto_schedule",
    "paper_rule",
    "rank_steps",
    "repair_schedule",
    "step_cost_estimate",
    "LintError",
    "LintIssue",
    "LintReport",
    "lint_schedule",
    "validate_schedule",
    "load_schedule",
    "save_schedule",
    "schedule_from_json",
    "schedule_to_json",
    "linear_exchange_async_program",
    "linear_exchange_sync_program",
    "linear_exchange_time",
    "ExecutionResult",
    "execute_schedule",
    "schedule_program",
    "ScheduleMetrics",
    "StepLocality",
    "analyze",
]
