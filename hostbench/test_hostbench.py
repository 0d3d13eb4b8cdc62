"""The benchmark's own tests.

    python3 -m pytest -q hostbench
"""

import json
import math
import sys
import time
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from repro.fleet import ExecSlices  # noqa: E402

SEEDS = range(1, 21)


# -- operation generator -----------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_plan_is_deterministic_for_a_seed(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    for seed in SEEDS:
        assert cls(seed, tmp_path).plan() == cls(seed, tmp_path).plan()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_operations_are_equal_in_size_across_seeds(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    sizes = {tuple(sorted(map(cls.size, cls(seed, tmp_path).plan())))
             for seed in SEEDS}
    assert len(sizes) == 1
    if name != "fig31-point":
        # Within a cycle too: every operation is the same size.
        plan = cls(1, tmp_path).plan()
        assert len({cls.size(spec) for spec in plan}) == 1


@pytest.mark.parametrize("name", ["fleet-record", "debug-session"])
def test_seed_changes_content(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    assert len({tuple(cls(seed, tmp_path).plan()) for seed in SEEDS}) > 1


def test_fig31_points_have_recorded_values():
    recorded = workloads.load_expected()["fig31-point"]
    assert sorted(recorded) == sorted(
        map(workloads.fig31_key, workloads.FIG31_POINTS))


# -- tail percentile ---------------------------------------------------------

@pytest.mark.parametrize("pct", [50.0, 60.0, 80.0, 90.0, 99.0])
def test_tail_never_reports_with_fewer_than_ten_beyond(pct):
    for n in range(1, 1200, 7):
        values = [float(v) for v in range(n)]
        try:
            value = stats.tail(values, pct)
        except ValueError:
            assert n < stats.min_samples(pct)
            continue
        assert n >= stats.min_samples(pct)
        assert sum(v > value for v in values) >= stats.MIN_BEYOND


def test_min_samples_is_the_smallest_count():
    for pct in (60.0, 80.0, 99.0):
        n = stats.min_samples(pct)
        stats.tail(list(range(n)), pct)
        with pytest.raises(ValueError):
            stats.tail(list(range(n - 1)), pct)


# -- waterfall arithmetic ----------------------------------------------------

def scripted_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_is_span_minus_children():
    # op [0,100] > digest [10,40], monitor [50,90] > digest [60,70]
    tracer = layers.LayerTracer(clock=scripted_clock(
        [0, 10, 40, 50, 60, 70, 90, 100]))
    tracer.enter(layers.ROOT)
    tracer.enter("digest")
    tracer.exit()
    tracer.enter("monitor.run")
    tracer.enter("digest")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    assert tracer.self_ms("digest") == 40e-6
    assert tracer.self_ms("monitor.run") == 30e-6
    assert tracer.total_ms("monitor.run") == 40e-6
    rows = layers.waterfall(tracer, {"digest": ["digest"],
                                     "monitor": ["monitor.run"]})
    assert rows == {"digest": 40e-6, "monitor": 30e-6, "other": 30e-6}
    assert sum(rows.values()) == tracer.total_ms(layers.ROOT)


def test_wrap_times_counts_and_unwraps():
    module = types.ModuleType("repro_hostbench_fake")
    module.work = lambda x: x * 2
    module.hot = lambda: None
    sys.modules[module.__name__] = module
    try:
        original = module.work
        tracer = layers.LayerTracer(clock=scripted_clock(range(0, 100, 5)))
        tracer.wrap(module.__name__, "work", "work")
        tracer.wrap(module.__name__, "hot")
        assert module.work(3) == 6          # inactive: not recorded
        tracer.active = True
        tracer.enter(layers.ROOT)
        assert module.work(4) == 8
        module.hot()
        module.hot()
        tracer.exit()
        assert tracer.calls("work") == 1
        assert tracer.counts["hot"] == 2
        tracer.unwrap()
        assert module.work is original
    finally:
        del sys.modules[module.__name__]


def test_layer_metrics_cover_benchmark_json():
    tracer = layers.LayerTracer(clock=scripted_clock([0, 1_000_000]))
    tracer.enter(layers.ROOT)
    tracer.exit()
    loop = run.Loop()
    loop.durations, loop.busy, loop.wall, loop.cpu = [0.001], 0.001, 1.0, 0.5
    values, rows, _ = run.layer_metrics(tracer, 1, loop, loop, {})
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert list(values) == [m["name"] for m in spec["per_layer"]]
    assert rows["other"] == 1.0


def test_worker_totals_make_the_fleet_waterfall(tmp_path):
    # A worker traced job [0,80] > digest [10,60]; the benchmark's
    # operation around it took 100: the 20 outside the job is the fleet's.
    worker = layers.LayerTracer(clock=scripted_clock([0, 10, 60, 80]))
    worker.enter(layers.JOB)
    worker.enter("digest")
    worker.exit()
    worker.exit()
    worker.counts["cpu.insns"] = 7
    worker.dump(tmp_path / "worker-1.json")
    tracer = layers.LayerTracer(clock=scripted_clock([0, 100]))
    tracer.enter(layers.ROOT)
    tracer.exit()
    tracer.merge(tmp_path / "worker-1.json")
    assert tracer.counts["cpu.insns"] == 7
    loop = run.Loop()
    loop.durations, loop.busy, loop.wall, loop.cpu = [1e-4], 1e-4, 1.0, 0.1
    values, rows, op_ms = run.layer_metrics(
        tracer, 1, loop, loop, {})
    assert rows["digest"] == 50e-6 and rows["other"] == 30e-6
    assert math.isclose(rows["fleet"], 20e-6)
    assert math.isclose(sum(rows.values()), op_ms)
    assert math.isclose(values["waterfall.named_share"], 0.7)
    assert math.isclose(values["digest.self_share"], 0.5)


# -- checks fail on corrupted references ------------------------------------

def corrupt(digest: str) -> str:
    return ("0" if digest[0] != "0" else "1") + digest[1:]


def test_fleet_check_fails_on_corrupted_digest(tmp_path):
    job = json.loads(workloads.FleetRecord(1, tmp_path).plan()[0][0])
    job["slices"] = 2
    spec = (json.dumps(job, sort_keys=True),)
    spool = tmp_path / "job.journal"
    run_ = ExecSlices(job, spool=str(spool))
    while not run_.finished:
        run_.step()
    record = types.SimpleNamespace(id="j1", status="done", error=None,
                                   result=run_.result(), spool=str(spool))
    digests = workloads.run_exec_slices(job)["digests"]
    instret = 2 * job["slice_insns"]
    assert workloads.check_fleet_records(
        spec, [record], {spec[0]: digests}, instret) is None
    bad = [corrupt(digests[0])] + digests[1:]
    assert workloads.check_fleet_records(
        spec, [record], {spec[0]: bad}, instret) is not None


def test_replay_check_fails_on_corrupted_digest(tmp_path):
    workload = workloads.ReplayVerify(1, tmp_path)
    workload.prepare()
    result = workload.op(workload.plan()[0])
    assert workloads.check_replay(result, workload.golden) is None
    assert workloads.check_replay(result, corrupt(workload.golden)) \
        is not None


def test_fig31_check_fails_on_corrupted_demanded_load(tmp_path):
    workload = workloads.Fig31Point(1, tmp_path)
    workload.prepare()
    point = workloads.FIG31_POINTS[2]
    key = workloads.fig31_key(point)
    demanded = workload.op(point).demanded_load
    recorded, analytic = workload.recorded[key], workload.analytic[key]
    assert workloads.check_fig31(demanded, recorded, analytic) is None
    off_by_one_bit = math.nextafter(recorded, math.inf)
    assert workloads.check_fig31(demanded, off_by_one_bit, analytic) \
        is not None
    # Bit-identical to the record but outside the cross-check band.
    assert workloads.check_fig31(demanded, recorded,
                                 demanded / 1.1) is not None


def test_debug_check_fails_when_regs_disagree(tmp_path):
    workload = workloads.DebugSessionWorkload(1, tmp_path)
    workload.setup()
    spec = workload.plan()[0]
    out, memory = workload.op(spec)
    assert workloads.check_episode(spec, (out, memory),
                                   workload.symbols) is None
    text, truth = out[2]
    wrong = [truth[0] ^ 1] + truth[1:]
    out[2] = (text, wrong)
    assert workloads.check_episode(spec, (out, memory),
                                   workload.symbols) is not None
    out[2] = (text, truth)
    assert workloads.check_episode(spec, (out, bytes(16)),
                                   workload.symbols) is not None


def test_loop_counts_failed_checks(tmp_path):
    class Flaky(workloads.Workload):
        def op(self, spec):
            if spec == 2:
                raise RuntimeError("boom")
            return spec

        def check(self, spec, result):
            return "wrong" if spec == 1 else None

    loop = run.closed_loop(Flaky(1, tmp_path), [0, 1, 2], 0.0, 6)
    assert (loop.attempted, loop.failed, len(loop.durations)) == (6, 4, 2)
    # Failed operations' time stays in the rate's denominator.
    assert loop.busy > sum(loop.durations)


def test_fleet_worker_serves_whole_cycles(tmp_path):
    workload = workloads.FleetRecord(1, tmp_path)
    assert len(workload.plan()) == workload.LIFETIME
    assert len(set(workload.plan())) == workload.GUESTS
    assert stats.min_samples(workload.tail_pct) % workload.LIFETIME == 0



def test_setup_probes_are_spread_and_left_out_of_the_time(tmp_path):
    class Sleepy(workloads.Workload):
        ops = 0

        def op(self, spec):
            self.ops += 1
            time.sleep(0.01)

        def check(self, spec, result):
            return None

    workload = Sleepy(1, tmp_path)
    probes = run.SetupProbes("unused", 1, tmp_path, seconds=0.3)
    taken_at = []

    def probe():
        taken_at.append(workload.ops)
        time.sleep(0.05)
        probes.times.append(0.05)

    probes.probe = probe
    start = time.perf_counter()
    loop = run.closed_loop(workload, [0], 0.3, 0, probes=probes)
    assert len(probes.finish()) == run.SETUP_PROBES
    assert taken_at[0] == 0 and taken_at == sorted(taken_at)
    # Probes land among the operations, not all at one end.
    assert 0 < taken_at[len(taken_at) // 2] < workload.ops
    # The loop ran 0.3 s of operations; probing time is not in it.
    assert loop.wall < 0.3 + 0.05
    assert time.perf_counter() - start >= 0.3 + 0.05 * (len(taken_at) - 1)
