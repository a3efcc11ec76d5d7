"""Cost model + resource-aware optimizer: ranking quality, the
no-regression objective, burst-credit sensitivity, and budget limits."""

import pytest

from repro.annotations import DEFAULT_LIBRARY
from repro.compiler.cost import (
    DiskProbe,
    Probe,
    disk_time,
    estimate_baseline,
    estimate_parallel,
)
from repro.compiler.optimizer import OptimizerConfig, ResourceAwareOptimizer
from repro.dfg import region_from_argvs


def gp3_probe(input_mb=32, cores=8):
    return Probe(
        cores=cores, cpu_speed=1.0,
        disk=DiskProbe(250e6, 15000, 15000, 0, 128 * 1024, 4096),
        input_bytes=int(input_mb * 1e6), avg_line_bytes=40,
        avg_token_bytes=6,
    )


def gp2_probe(input_mb=32, cores=8, credits=3000.0):
    return Probe(
        cores=cores, cpu_speed=1.0,
        disk=DiskProbe(250e6, 100, 3000, credits, 128 * 1024, 4096),
        input_bytes=int(input_mb * 1e6), avg_line_bytes=40,
        avg_token_bytes=6,
    )


SORT_REGION = region_from_argvs(
    [["cat", "/in"], ["tr", "-cs", "A-Za-z", "\\n"], ["sort"]],
    DEFAULT_LIBRARY,
)


class TestDiskTime:
    def test_throughput_floor(self):
        disk = DiskProbe(100e6, 1e9, 1e9, 0, 128 * 1024, 4096)
        seconds, _ops = disk_time(100e6, 1, disk)
        assert seconds == pytest.approx(1.0)

    def test_more_streams_more_ops(self):
        disk = DiskProbe(1e12, 1000, 1000, 0, 128 * 1024, 4096)
        t1, ops1 = disk_time(10e6, 1, disk)
        t8, ops8 = disk_time(10e6, 8, disk)
        assert ops8 == pytest.approx(ops1 * 8)
        assert t8 > t1

    def test_burst_exhaustion_cliff(self):
        disk = DiskProbe(1e12, 100, 3000, 1000, 128 * 1024, 4096)
        t_within, _ = disk_time(1000 * 128 * 1024, 1, disk)   # fits credits
        t_beyond, _ = disk_time(3000 * 128 * 1024, 1, disk)   # 3x data
        assert t_beyond > t_within * 10  # cliff, not linear

    def test_credits_used_before(self):
        disk = DiskProbe(1e12, 100, 3000, 1000, 128 * 1024, 4096)
        fresh, _ = disk_time(500 * 128 * 1024, 1, disk)
        depleted, _ = disk_time(500 * 128 * 1024, 1, disk,
                                credits_used_before=1000)
        assert depleted > fresh


class TestEstimates:
    def test_baseline_dominated_by_sort(self):
        est = estimate_baseline(SORT_REGION, gp3_probe())
        assert est.breakdown["blocking"] > est.breakdown["stream_peak"]

    def test_parallel_beats_baseline_on_gp3(self):
        base = estimate_baseline(SORT_REGION, gp3_probe())
        par = estimate_parallel(SORT_REGION, gp3_probe(), 8, "rr")
        assert par.seconds < base.seconds * 0.6

    def test_width_monotone_until_merge_dominates(self):
        probe = gp3_probe()
        times = [estimate_parallel(SORT_REGION, probe, w, "rr").seconds
                 for w in (2, 4, 8)]
        assert times[0] > times[1] > times[2] * 0.8

    def test_materialize_worse_than_rr_on_gp2(self):
        probe = gp2_probe()
        rr = estimate_parallel(SORT_REGION, probe, 8, "rr")
        mat = estimate_parallel(SORT_REGION, probe, 8, "materialize")
        assert mat.seconds > rr.seconds

    def test_materialize_cheap_on_gp3(self):
        probe = gp3_probe()
        rr = estimate_parallel(SORT_REGION, probe, 8, "rr")
        mat = estimate_parallel(SORT_REGION, probe, 8, "materialize")
        assert mat.seconds < rr.seconds * 1.5

    def test_gp2_materialize_worse_than_baseline_when_io_dominates(self):
        # the Figure 1 phenomenon, in the cost model
        probe = gp2_probe(input_mb=48)
        base = estimate_baseline(SORT_REGION, probe)
        mat = estimate_parallel(SORT_REGION, probe, 8, "materialize")
        assert mat.seconds > base.seconds

    def test_cut_shrinks_line_length_not_count(self):
        """cut keeps every line (shorter): sort downstream must still be
        charged for the full line count."""
        with_cut = region_from_argvs(
            [["cat", "/in"], ["cut", "-d", " ", "-f", "1"], ["sort"]],
            DEFAULT_LIBRARY,
        )
        without_cut = region_from_argvs(
            [["cat", "/in"], ["sort"]], DEFAULT_LIBRARY
        )
        probe = gp3_probe()
        est_cut = estimate_baseline(with_cut, probe)
        est_plain = estimate_baseline(without_cut, probe)
        # sort sees 0.3x the bytes but the same number of lines: its
        # n log n share must not fall anywhere near 0.3x
        assert est_cut.breakdown["blocking"] > est_plain.breakdown["blocking"] * 0.6

    def test_load_reduces_effective_cores(self):
        busy = gp3_probe()
        busy.runnable_load = 6
        idle = gp3_probe()
        t_busy = estimate_parallel(SORT_REGION, busy, 8, "rr").seconds
        t_idle = estimate_parallel(SORT_REGION, idle, 8, "rr").seconds
        assert t_busy > t_idle


class TestOptimizer:
    def test_chooses_parallel_on_gp3(self):
        opt = ResourceAwareOptimizer()
        decision = opt.choose(SORT_REGION, gp3_probe(),
                              file_sizes=lambda p: int(32e6))
        assert decision.transformed
        assert decision.plan.mode in ("rr", "range")
        assert decision.plan.width >= 4

    def test_avoids_materialize_on_gp2(self):
        opt = ResourceAwareOptimizer()
        decision = opt.choose(SORT_REGION, gp2_probe(input_mb=48),
                              file_sizes=lambda p: int(48e6))
        assert decision.plan.mode != "materialize"

    def test_small_input_stays_baseline(self):
        opt = ResourceAwareOptimizer()
        decision = opt.choose(SORT_REGION, gp3_probe(input_mb=0.1),
                              file_sizes=lambda p: 100_000)
        assert not decision.transformed
        assert "threshold" in decision.reason

    def test_non_parallelizable_stays_baseline(self):
        region = region_from_argvs([["head", "-n5", "/f"]], DEFAULT_LIBRARY)
        opt = ResourceAwareOptimizer()
        decision = opt.choose(region, gp3_probe(), file_sizes=lambda p: int(32e6))
        assert not decision.transformed

    def test_budget_limits_candidates(self):
        opt = ResourceAwareOptimizer(OptimizerConfig(budget=3))
        decision = opt.choose(SORT_REGION, gp3_probe(),
                              file_sizes=lambda p: int(32e6))
        assert len(decision.candidates) <= 3

    def test_margin_respected(self):
        # an absurd margin means nothing ever beats the baseline
        opt = ResourceAwareOptimizer(OptimizerConfig(margin=0.0001))
        decision = opt.choose(SORT_REGION, gp3_probe(),
                              file_sizes=lambda p: int(32e6))
        assert not decision.transformed

    def test_max_width_config(self):
        opt = ResourceAwareOptimizer(OptimizerConfig(max_width=2))
        decision = opt.choose(SORT_REGION, gp3_probe(),
                              file_sizes=lambda p: int(32e6))
        if decision.transformed:
            assert decision.plan.width <= 2

    def test_candidates_sorted_by_estimate(self):
        opt = ResourceAwareOptimizer()
        decision = opt.choose(SORT_REGION, gp3_probe(),
                              file_sizes=lambda p: int(32e6))
        times = [c.estimate.seconds for c in decision.candidates]
        assert times == sorted(times)


class TestCalibration:
    """The estimates against what the kernel then measures, end to end:
    the Figure 1 script on ``laptop()`` over a 2 MiB input."""

    SCRIPT = "cat /data/words.txt | tr -cs A-Za-z '\\n' | sort > /data/out.txt"

    def run(self, engine, metrics=None):
        from repro import JashOptimizer, Shell
        from repro.bench import words_text
        from repro.vos.machines import laptop

        shell = Shell(laptop(), metrics=metrics)
        shell.fs.write_bytes("/data/words.txt", words_text(2 << 20, seed=42))
        if metrics is not None:
            # an interpreted warm-up fills the registry's proc.* series
            assert shell.run(self.SCRIPT).status == 0
            assert metrics.value("proc.cpu_s", proc="sort") > 0
        if engine == "jash":
            shell.optimizer = JashOptimizer()
        result = shell.run(self.SCRIPT)
        assert result.status == 0
        return result.elapsed, shell.optimizer

    def test_estimates_within_five_percent_of_measured(self):
        bash_s, _ = self.run("bash")
        jash_s, optimizer = self.run("jash")
        (event,) = [e for e in optimizer.events if e.decision == "optimized"]
        assert event.estimate_s == pytest.approx(jash_s, rel=0.05)
        assert event.baseline_s == pytest.approx(bash_s, rel=0.05)

    def test_estimates_do_not_depend_on_the_metrics_plane(self):
        from repro.obs.metrics import MetricsRegistry

        _, cold = self.run("jash")
        _, warm = self.run("jash", metrics=MetricsRegistry())
        assert [(e.decision, e.plan_description, e.estimate_s, e.baseline_s)
                for e in warm.events] == \
            [(e.decision, e.plan_description, e.estimate_s, e.baseline_s)
             for e in cold.events]
