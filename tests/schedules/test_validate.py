"""Tests for the static schedule linter (repro.schedules.validate)."""

import pytest

from repro.schedules import (
    CommPattern,
    LintError,
    balanced_exchange,
    balanced_schedule,
    greedy_schedule,
    lint_schedule,
    linear_exchange,
    linear_schedule,
    paper_pattern_P,
    pairwise_exchange,
    pairwise_schedule,
    recursive_exchange,
    validate_schedule,
)

from .checks import Step, Transfer, schedule_of


def codes(report, severity=None):
    return [
        i.code
        for i in report.issues
        if severity is None or i.severity == severity
    ]


class TestGeneratorsAreClean:
    """Every real generator output must lint clean."""

    @pytest.mark.parametrize("nprocs", [8, 32])
    @pytest.mark.parametrize(
        "build", [linear_exchange, pairwise_exchange, balanced_exchange]
    )
    def test_exchange_generators_pass(self, build, nprocs):
        pattern = CommPattern.complete_exchange(nprocs, 256)
        report = validate_schedule(build(nprocs, 256), pattern)
        assert report.ok
        assert "conservation" in report.checks

    @pytest.mark.parametrize("nprocs", [8, 32])
    def test_rex_passes_with_staging_warning(self, nprocs):
        pattern = CommPattern.complete_exchange(nprocs, 256)
        report = validate_schedule(recursive_exchange(nprocs, 256), pattern)
        assert report.ok
        assert "conservation.staged-skip" in codes(report, "warning")
        assert "payload.staged" in codes(report, "warning")

    @pytest.mark.parametrize(
        "build",
        [linear_schedule, pairwise_schedule, balanced_schedule, greedy_schedule],
    )
    def test_irregular_generators_pass(self, build):
        P = paper_pattern_P()
        report = validate_schedule(build(P), P)
        assert report.ok

    @pytest.mark.parametrize(
        "build",
        [linear_exchange, pairwise_exchange, balanced_exchange, recursive_exchange],
    )
    def test_zero_byte_exchange_passes(self, build):
        # The Figure 5 axis starts at 0 bytes: pure sync messages carry
        # no pattern bytes and must not be flagged as spurious.
        pattern = CommPattern.complete_exchange(8, 0)
        assert validate_schedule(build(8, 0), pattern).ok

    def test_synthetic_pattern_generators_pass(self):
        pattern = CommPattern.synthetic(16, 0.5, 512, seed=3)
        for build in (
            linear_schedule,
            pairwise_schedule,
            balanced_schedule,
            greedy_schedule,
        ):
            assert validate_schedule(build(pattern), pattern).ok


class TestConservation:
    def test_missing_transfer_named(self):
        pattern = CommPattern.complete_exchange(4, 100)
        sched = schedule_of(
            nprocs=4,
            steps=(Step((Transfer(0, 1, 100),)),),
            name="partial",
        )
        report = lint_schedule(sched, pattern)
        assert not report.ok
        missing = [i for i in report.issues if i.code == "conservation.missing"]
        assert len(missing) == 11  # 4*3 required minus the one present
        assert any("2->3" in i.message for i in missing)

    def test_duplicate_delivery_names_both_steps(self):
        pattern = CommPattern(
            [[0, 100], [0, 0]]
        )
        sched = schedule_of(
            nprocs=2,
            steps=(
                Step((Transfer(0, 1, 100),)),
                Step((Transfer(0, 1, 100),)),
            ),
            name="dup",
        )
        report = lint_schedule(sched, pattern)
        dup = [i for i in report.issues if i.code == "conservation.duplicate"]
        assert len(dup) == 1
        assert "steps 1 and 2" in dup[0].message
        assert "0->1" in dup[0].message

    def test_wrong_byte_count(self):
        pattern = CommPattern([[0, 100], [0, 0]])
        sched = schedule_of(
            nprocs=2, steps=(Step((Transfer(0, 1, 64),)),), name="short"
        )
        report = lint_schedule(sched, pattern)
        assert "conservation.byte-count" in codes(report, "error")

    def test_spurious_transfer(self):
        pattern = CommPattern([[0, 100], [0, 0]])
        sched = schedule_of(
            nprocs=2,
            steps=(Step((Transfer(0, 1, 100), Transfer(1, 0, 100))),),
            name="extra",
        )
        report = lint_schedule(sched, pattern)
        assert "conservation.spurious" in codes(report, "error")

    def test_size_mismatch(self):
        pattern = CommPattern.complete_exchange(8, 64)
        sched = pairwise_exchange(4, 64)
        report = lint_schedule(sched, pattern)
        assert "conservation.size-mismatch" in codes(report, "error")

    def test_no_pattern_skips_conservation(self):
        report = lint_schedule(pairwise_exchange(4, 64))
        assert report.ok
        assert "conservation" not in report.checks


class TestDeadlock:
    def test_seeded_cyclic_wait_is_rejected(self):
        # Rank 0 sees a clean exchange with rank 1 and (Figure 2) posts
        # its receive first; rank 1 sees *three* ops, so the executor
        # falls into the mixed-partner ordering and also receives first.
        # Both sides wait for the other's send: a 2-cycle.
        sched = schedule_of(
            nprocs=3,
            steps=(
                Step(
                    (
                        Transfer(0, 1, 64),
                        Transfer(1, 0, 64),
                        Transfer(2, 1, 64),
                    )
                ),
            ),
            name="deadlocked",
        )
        report = lint_schedule(sched)
        cyc = [i for i in report.issues if i.code == "deadlock.cycle"]
        assert len(cyc) == 1
        assert "rank 0" in cyc[0].message and "rank 1" in cyc[0].message
        assert "step 1" in cyc[0].message
        with pytest.raises(LintError, match="wait-for"):
            validate_schedule(sched)

    def test_greedy_mixed_cycle_is_deadlock_free(self):
        # A directed 3-cycle of single transfers is exactly what greedy
        # steps produce; the executor's recv-iff-lower-source rule keeps
        # it live and the linter must agree.
        sched = schedule_of(
            nprocs=3,
            steps=(
                Step(
                    (
                        Transfer(0, 1, 64),
                        Transfer(1, 2, 64),
                        Transfer(2, 0, 64),
                    )
                ),
            ),
            name="cycle-ok",
        )
        assert lint_schedule(sched).ok

    def test_cross_step_ordering_is_live(self):
        # No barrier between steps: a rank running ahead must still
        # rendezvous on the step-tagged receives. PEX at 8 exercises it.
        assert lint_schedule(pairwise_exchange(8, 0)).ok

    def test_lex_serialized_receiver_is_live(self):
        assert lint_schedule(linear_exchange(8, 256)).ok


class TestStructure:
    def test_multi_send_flagged(self):
        sched = schedule_of(
            nprocs=3,
            steps=(Step((Transfer(0, 1, 64), Transfer(0, 2, 64))),),
            name="fanout",
        )
        report = lint_schedule(sched)
        assert "structure.multi-send" in codes(report, "error")


class TestPayloadMode:
    def test_staged_schedule_rejected_in_payload_mode(self):
        sched = recursive_exchange(8, 256)
        report = lint_schedule(sched, payload_mode=True)
        assert "payload.staged" in codes(report, "error")
        with pytest.raises(LintError, match="payload mode"):
            validate_schedule(sched, payload_mode=True)

    def test_flat_schedule_fine_in_payload_mode(self):
        assert lint_schedule(pairwise_exchange(8, 256), payload_mode=True).ok


class TestReport:
    def test_render_ok_line(self):
        text = lint_schedule(pairwise_exchange(4, 64)).render()
        assert text.startswith("OK PEX")
        assert "structure" in text and "deadlock" in text

    def test_render_fail_lists_issues(self):
        sched = schedule_of(
            nprocs=3,
            steps=(Step((Transfer(0, 1, 64), Transfer(0, 2, 64))),),
            name="bad",
        )
        text = lint_schedule(sched).render()
        assert text.startswith("FAIL bad")
        assert "structure.multi-send" in text

    def test_lint_error_summarizes(self):
        sched = schedule_of(
            nprocs=3,
            steps=(Step((Transfer(0, 1, 64), Transfer(0, 2, 64))),),
            name="bad",
        )
        with pytest.raises(LintError, match="lint error"):
            validate_schedule(sched)
