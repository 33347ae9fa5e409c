"""Campaign core shared by the seeded invariant harnesses.

A campaign maps a run function over a list of fully specified seeds or
specs; each run returns a frozen dataclass record whose ``violations``
tuple names every invariant it broke.  This module owns what every such
harness has in common — the report, the ordered (optionally
process-parallel) runner with its progress lines, the text frame and the
``<stem>.txt`` / ``<stem>.json`` artifact pair — so a harness is left
with its own specs, run function and table columns:

* :mod:`repro.resilience.chaos` — seeded fault plans vs. the adaptive
  executor (``repro chaos``, schema ``repro-chaos/1``);
* :mod:`repro.service.chaos` — seeded faults vs. the guarded scheduler
  (``repro serve-chaos``, schema ``repro-service-chaos/1``).

Only the standard library is imported here, and
:class:`repro.service.pool.WorkerPool` only when a campaign runs, so
importing a harness costs nothing beyond the harness itself.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["CampaignReport", "run_specs", "render_report", "write_artifacts"]


@dataclasses.dataclass
class CampaignReport:
    """Every run of one campaign, in spec order."""

    schema: str
    runs: List[Any]

    @property
    def total(self) -> int:
        return len(self.runs)

    @property
    def violations(self) -> List[Any]:
        return [r for r in self.runs if r.violations]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "total": self.total,
            "violations": len(self.violations),
            "runs": [dataclasses.asdict(r) for r in self.runs],
        }


def run_specs(
    schema: str,
    fn: Callable[[Any], Any],
    specs: Sequence[Any],
    label: Callable[[Any], str],
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 0,
) -> CampaignReport:
    """Run ``fn`` over ``specs`` with ``jobs`` worker processes.

    ``progress`` receives one ``"<label(run)> ok|VIOLATION"`` line per
    run, in spec order at any job count, so the report and the progress
    stream are identical whether runs were inline (``jobs=0``) or
    spread over a pool.  ``fn`` must be picklable when ``jobs > 0``.
    """
    from .service.pool import WorkerPool

    def _note(run: Any) -> None:
        if progress is not None:
            progress(f"{label(run)} {'VIOLATION' if run.violations else 'ok'}")

    with WorkerPool(jobs) as pool:
        return CampaignReport(schema, pool.map_ordered(fn, specs, _note))


def render_report(
    report: CampaignReport,
    title: str,
    header: str,
    row: Callable[[Any], str],
    held: str,
) -> str:
    """Campaign summary: title, counts, one row per run, verdict footer.

    Each run's violations follow its row as ``!!`` lines; ``held``
    lists the invariants named in the all-clear footer.
    """
    lines = [
        title,
        f"runs: {report.total}   violations: {len(report.violations)}",
        "",
        header,
    ]
    for r in report.runs:
        lines.append(row(r))
        lines.extend(f"      !! {v}" for v in r.violations)
    lines.append("")
    if report.ok:
        lines.append(f"all invariants held: {held}")
    else:
        lines.append(f"{len(report.violations)} run(s) violated invariants")
    return "\n".join(lines)


def write_artifacts(
    outdir, stem: str, text: str, doc: Dict[str, object]
) -> Tuple[Path, Path]:
    """Write ``<stem>.txt`` and ``<stem>.json`` under ``outdir``."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    txt = out / f"{stem}.txt"
    txt.write_text(text + "\n")
    js = out / f"{stem}.json"
    js.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return txt, js
