"""Tests for the experiment regeneration functions (small scales)."""

import pytest

from repro.analysis import paper_data
from repro.analysis.experiments import (
    broadcast_time,
    exchange_time,
    fft_time,
    fig5_data,
    fig678_data,
    fig10_data,
    irregular_time,
    table5_data,
    table11_data,
    table12_data,
)
from repro.schedules import CommPattern
from tests.sim.test_batched_drain import _run_script

pytestmark = pytest.mark.usefixtures("isolated_cache")


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    import repro.analysis.cache as cache_mod

    monkeypatch.setattr(cache_mod, "_DEFAULT", None)
    yield


class TestScalars:
    def test_exchange_time_positive_and_cached(self):
        t1 = exchange_time("pairwise", 8, 256)
        t2 = exchange_time("pairwise", 8, 256)
        assert t1 == t2 > 0

    def test_broadcast_time_kinds(self):
        for kind in ("lib", "reb", "system"):
            assert broadcast_time(kind, 8, 256) > 0
        with pytest.raises(ValueError):
            broadcast_time("smoke", 8, 256)

    def test_irregular_time_anonymous_vs_cached(self):
        pat = CommPattern.synthetic(8, 0.3, 128, seed=0)
        a = irregular_time(pat, "greedy")
        b = irregular_time(pat, "greedy", cache_key="t/8/0.3/128/0")
        assert a == b > 0

    def test_fft_time(self):
        assert fft_time(64, 8, "pairwise") > 0


class TestSweeps:
    def test_fig5_series(self):
        fig = fig5_data(sizes=(0, 256), nprocs=8)
        assert {s.label for s in fig.series} == {
            "linear",
            "pairwise",
            "recursive",
            "balanced",
        }
        for s in fig.series:
            assert len(s.y) == 2

    def test_fig678_series(self):
        fig = fig678_data(256, machines=(4, 8))
        assert len(fig.series) == 3
        for s in fig.series:
            assert s.x == [4, 8]

    def test_table5_grid(self):
        data = table5_data(machine_sizes=(8,), array_sizes=(64, 128))
        assert set(data) == {(8, 64), (8, 128)}
        for row in data.values():
            assert set(row) == set(paper_data.EXCHANGE_ORDER)

    def test_fig10(self):
        fig = fig10_data(sizes=(64, 1024), nprocs=8)
        assert {s.label for s in fig.series} == {"lib", "reb", "system"}

    def test_table11_grid(self):
        # High density: LS's serialized receives lose even on 8 nodes
        # (at very low density on tiny machines the gap can vanish).
        data = table11_data(densities=(0.75,), msg_sizes=(256,), nprocs=8)
        row = data[(0.75, 256)]
        assert set(row) == {"linear", "pairwise", "balanced", "greedy", "local"}
        assert row["linear"] > row["pairwise"]

    def test_table12_small_machine(self):
        times, loads = table12_data(nprocs=8, algorithms=("greedy",))
        assert set(times) == set(loads) == {
            "cg16k",
            "euler545",
            "euler2k",
            "euler3k",
            "euler9k",
        }
        for row in times.values():
            assert row["greedy"] > 0


class TestPaperData:
    def test_tables_have_expected_shapes(self):
        assert len(paper_data.TABLE5_FFT_SECONDS) == 8
        assert len(paper_data.TABLE11_SYNTHETIC_MS) == 8
        assert len(paper_data.TABLE12_REAL_MS) == 5
        for row in paper_data.TABLE11_SYNTHETIC_MS.values():
            assert set(row) == set(paper_data.IRREGULAR_ORDER)

    def test_paper_claims_are_internally_consistent(self):
        """Sanity of the transcription: the claims the paper makes about
        its own numbers hold in the transcribed tables."""
        for (d, s), row in paper_data.TABLE11_SYNTHETIC_MS.items():
            assert max(row, key=row.get) == "linear"
            if d < 0.5:
                assert min(row, key=row.get) == "greedy"
        for row in paper_data.TABLE12_REAL_MS.values():
            assert min(row, key=row.get) == "greedy"
            assert max(row, key=row.get) == "linear"


def test_table12_cache_key_is_stable_across_processes():
    """The disk-cache key digests the pattern's bytes, so every process
    derives the same one whatever PYTHONHASHSEED salts ``hash`` with."""
    script = (
        "from repro.analysis.experiments import _workload_key\n"
        "from repro.apps.workloads import paper_workload, workload_names\n"
        "print([_workload_key(n, 8, paper_workload(n, 8).pattern)"
        " for n in workload_names()])"
    )
    keys = {_run_script(script, {"PYTHONHASHSEED": seed}) for seed in "12"}
    assert len(keys) == 1
