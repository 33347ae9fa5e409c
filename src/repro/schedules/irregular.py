"""Name registries of the schedulers: complete exchange and irregular.

The paper evaluates four complete-exchange algorithms (Section 3:
LEX/PEX/REX/BEX) and Linear (LS), Pairwise (PS), Balanced (BS) and
Greedy (GS) scheduling of a ``Pattern`` matrix (Section 4).  This
module gives each family one dispatchable registry so the benchmark
harness, the conformance harness and the CLI sweep algorithms by name.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .bex import balanced_exchange, balanced_schedule
from .greedy import greedy_schedule
from .lex import linear_exchange, linear_schedule
from .localsearch import local_schedule
from .pattern import CommPattern
from .pex import pairwise_exchange, pairwise_schedule
from .rex import recursive_exchange
from .schedule import Schedule

__all__ = [
    "EXCHANGE_ALGORITHMS",
    "IRREGULAR_ALGORITHMS",
    "schedule_irregular",
    "linear_schedule",
    "pairwise_schedule",
    "balanced_schedule",
    "greedy_schedule",
    "local_schedule",
]

#: The paper's four complete-exchange algorithms, by Table 5's names.
EXCHANGE_ALGORITHMS: Dict[str, Callable[[int, int], Schedule]] = {
    "linear": linear_exchange,
    "pairwise": pairwise_exchange,
    "recursive": recursive_exchange,
    "balanced": balanced_exchange,
}

#: Paper Section 4's algorithms, keyed by the names used in Tables 11-12,
#: plus the repository's local-search refinement ("local" — not in the
#: paper; it seeds from GS/coloring and refines with estimator-guided
#: moves, see :mod:`repro.schedules.localsearch`).
IRREGULAR_ALGORITHMS: Dict[str, Callable[[CommPattern], Schedule]] = {
    "linear": linear_schedule,
    "pairwise": pairwise_schedule,
    "balanced": balanced_schedule,
    "greedy": greedy_schedule,
    "local": local_schedule,
}


def schedule_irregular(pattern: CommPattern, algorithm: str) -> Schedule:
    """Schedule ``pattern`` with the named algorithm.

    The schedule need only be computed once per pattern and is then
    reused for every iteration of the application (Section 4.5: the
    scheduling cost amortizes over the solver's iterations).
    """
    try:
        builder = IRREGULAR_ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; "
            f"choose from {sorted(IRREGULAR_ALGORITHMS)}"
        ) from None
    return builder(pattern)


def algorithm_names() -> List[str]:
    """Algorithm names in paper order (the registry's insertion order).

    Derived from :data:`IRREGULAR_ALGORITHMS` so adding an algorithm to
    the registry automatically propagates to every sweep and CLI choice
    list — a hardcoded copy here once drifted from the registry.
    """
    return list(IRREGULAR_ALGORITHMS)
