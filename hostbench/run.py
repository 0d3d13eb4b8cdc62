#!/usr/bin/env python3
"""The repository benchmark: four closed-loop workloads, one client each.

    python3 hostbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced blocks with blocks in which each
layer's public functions are wrapped (see ``layers.py``), and reports
the per-layer metrics, the waterfall and the tracing overhead.  Every
operation is checked; a failed check counts as a failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it records the host and provenance of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Cold set-ups per run, spread evenly over the timed operations so
#: that their median samples the host over the whole run, not during
#: one burst; ``setup_s`` is their median.
SETUP_PROBES = 7
#: No run may outlive this, whatever the op count says.
HARD_CAP_S = 150.0
#: Shortest block of whole cycles in a traced run; traced and untraced
#: blocks alternate so that host drift hits both alike.
BLOCK_S = 1.0

#: Layer name -> span names it owns (the waterfall rows).
LAYERS = {
    "digest": ["digest"],
    "journal": ["journal.append", "journal.load"],
    "replay": ["replay", "bisect"],
    "machine": ["machine.build"],
    "monitor": ["monitor.run"],
    "fleet": ["fleet.heartbeat"],
    "rsp": ["rsp.exchange", "rsp.wait_stop"],
    "debugger": ["debugger"],
    "snapshot": ["snapshot.capture", "snapshot.restore"],
    "sim": ["sim.step"],
    "dispatch": ["dispatch"],
}
DEBUGGER_VERBS = ("break", "continue", "regs", "x", "step", "checkpoint",
                  "restore", "delete", "monitor")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------

def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def host_speed_ms() -> float:
    """Median time of a fixed pure-Python loop.  The host's speed drifts
    (by up to 2x on shared hosts) on a scale of minutes; this reading in
    the provenance line shows which results came from a slowed host."""
    times = []
    for _ in range(7):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------

class SetupProbes:
    """Cold set-ups, each in a fresh process, taken when the timed
    operations pass evenly spaced marks (see ``closed_loop``)."""

    def __init__(self, name: str, seed: int, workdir: Path,
                 seconds: float) -> None:
        self.args = [sys.executable, str(BENCH_DIR / "probe_setup.py"),
                     name, str(seed), str(workdir)]
        self.marks = [seconds * k / (SETUP_PROBES - 1)
                      for k in range(SETUP_PROBES)]
        self.times = []

    def probe(self) -> None:
        out = subprocess.run(self.args, capture_output=True, text=True,
                             timeout=120, check=True)
        self.times.append(float(out.stdout.strip().splitlines()[-1]))

    def due(self, elapsed: float) -> None:
        if len(self.times) < SETUP_PROBES \
                and elapsed >= self.marks[len(self.times)]:
            self.probe()

    def finish(self) -> list:
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return self.times


def reset_peak_rss() -> None:
    """Restart this process's peak resident set from its current size,
    so the peak leaves out the checks' reference computation."""
    with open("/proc/self/clear_refs", "w") as refs:
        refs.write("5")


class Loop:
    """Outcome of one closed-loop phase."""

    def __init__(self) -> None:
        self.durations = []   # seconds, successful operations only
        self.busy = 0.0       # seconds, every attempted operation
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.wall = 0.0
        self.cpu = 0.0


def closed_loop(workload, plan, seconds: float, min_ops: int,
                tracer=None, start_index: int = 0, cycle: int = 0,
                probes: SetupProbes | None = None,
                probed: float = 0.0) -> Loop:
    """Run operations back to back for ``seconds`` and at least
    ``min_ops`` operations, ending on a whole number of ``cycle``
    operations (default: the plan's length) so that every seed runs
    the same mix.  Between operations, ``probes`` takes the set-up
    probes that are due after ``probed`` plus this loop's seconds of
    operations; time spent probing is left out of the loop's time."""
    cycle = cycle or len(plan)
    from layers import ROOT as ROOT_SPAN
    loop = Loop()
    index = start_index
    paused = 0.0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    while True:
        elapsed = time.perf_counter() - wall0 - paused
        if probes is not None:
            probes.due(probed + elapsed)
            paused = time.perf_counter() - wall0 - elapsed
        done = index - start_index
        if elapsed >= HARD_CAP_S or (
                elapsed >= seconds and done >= min_ops
                and done % cycle == 0):
            break
        spec = plan[index % len(plan)]
        index += 1
        if tracer is not None:
            tracer.active = True
            tracer.enter(ROOT_SPAN)
        error = None
        start = time.perf_counter()
        try:
            result = workload.op(spec)
        except Exception as exc:   # noqa: BLE001 — counted as failed
            error = f"{type(exc).__name__}: {exc}"
        duration = time.perf_counter() - start
        if tracer is not None:
            tracer.exit()
            if error is None:
                workload.attribute(spec, result, tracer)
            tracer.active = False
        if error is None:
            error = workload.check(spec, result)
        workload.recycle()
        loop.attempted += 1
        loop.busy += duration
        if error is None:
            loop.durations.append(duration)
        else:
            loop.failed += 1
            loop.errors.append(error)
    loop.wall = time.perf_counter() - wall0 - paused
    loop.cpu = time.process_time() - cpu0
    return loop


def install_tracer(tracer):
    """Wrap every layer's public functions (after they are imported)
    into ``tracer``; ``tracer.unwrap()`` undoes it."""

    def count(key, value):
        tracer.counts[key] += value

    def journal_bytes(t, args, kwargs):
        writer, before = args[0], args[0].bytes_written
        return lambda _: count("journal.bytes",
                               writer.bytes_written - before)

    def replay_frames(t, args, kwargs):
        probe = kwargs.get("probe_frame") is not None

        def after(result):
            count("replay.frames", result.frames_applied)
            count("bisect.probes", int(probe))
        return after

    def monitor_run(t, args, kwargs):
        monitor = args[0]
        insns = monitor.machine.cpu.instret
        traps = monitor.stats.traps_emulated

        def after(_):
            count("cpu.insns", monitor.machine.cpu.instret - insns)
            count("monitor.traps", monitor.stats.traps_emulated - traps)
        return after

    def job_dispatched(t, args, kwargs):
        record, now = args[1], args[3]
        t.marks[record.id] = now

    def retransmits(client):
        return sum(client.recoveries.get(key, 0)
                   for key in ("retransmit", "nak-retransmit"))

    def rsp_exchange(t, args, kwargs):
        client, before = args[0], retransmits(args[0])
        return lambda _: count("rsp.retransmits",
                               retransmits(client) - before)

    def debugger_verb(t, args, kwargs):
        verb = args[1].split()[0]
        start = t.clock()
        return lambda _: t.samples[f"debugger.{verb}"].append(
            (t.clock() - start) / 1e6)

    wrap = tracer.wrap
    wrap("repro.replay.digest", "state_digest", "digest")
    wrap("repro.replay.journal", "JournalWriter.append", "journal.append",
         journal_bytes)
    wrap("repro.replay.journal", "load_journal", "journal.load")
    wrap("repro.replay.replayer", "replay_journal", "replay",
         replay_frames)
    wrap("repro.replay.replayer", "bisect_divergence", "bisect")
    wrap("repro.hw.machine", "Machine.__init__", "machine.build")
    wrap("repro.vmm.monitor", "LightweightVmm.run", "monitor.run",
         monitor_run)
    wrap("repro.fleet.jobs", "JobQueue.mark_running", "fleet.dispatch",
         job_dispatched)
    wrap("repro.fleet.worker", "FleetWorker._heartbeat", "fleet.heartbeat")
    wrap("repro.rsp.client", "RspClient.exchange", "rsp.exchange",
         rsp_exchange)
    wrap("repro.rsp.client", "RspClient.wait_for_stop", "rsp.wait_stop")
    wrap("repro.debugger.cli", "Debugger.execute", "debugger",
         debugger_verb)
    wrap("repro.core.snapshot", "capture", "snapshot.capture")
    wrap("repro.core.snapshot", "restore", "snapshot.restore")
    wrap("repro.sim.events", "EventQueue.step", "sim.step")
    wrap("repro.perf.stacks", "InterruptDispatcher.dispatch_pending",
         "dispatch")
    wrap("repro.hw.pic", "PicPair.pending_vector")   # count only
    return tracer


def install_worker_tracer(trace_dir: Path) -> None:
    """Trace a fleet worker from inside.  Spawned workers re-import this
    file as ``__mp_main__``; when the benchmark set ``WORKER_TRACE_ENV``
    for one, each job becomes a root span and the worker writes its
    totals after every job, before it reports the result."""
    from layers import JOB, LayerTracer
    from repro.fleet.worker import FleetWorker
    tracer = install_tracer(LayerTracer())
    path = trace_dir / f"worker-{os.getpid()}.json"
    start_job, finish_job = FleetWorker._start_job, FleetWorker._finish_job

    def traced_start(self, message):
        tracer.active = True
        tracer.enter(JOB)
        return start_job(self, message)

    def traced_finish(self, *args, **kwargs):
        tracer.exit()
        tracer.active = False
        tracer.dump(path)
        return finish_job(self, *args, **kwargs)

    FleetWorker._start_job = traced_start
    FleetWorker._finish_job = traced_finish


def per_call(tracer, span: str) -> float:
    calls = tracer.calls(span)
    return tracer.total_ms(span) / calls if calls else 0.0


def layer_metrics(tracer, n: int, untraced: Loop, traced: Loop,
                  fleet_counts: dict):
    """Per-layer metrics and the waterfall rows (ms per operation)."""
    from layers import JOB, ROOT as ROOT_SPAN, waterfall
    counts = tracer.counts
    op_ms = tracer.total_ms(ROOT_SPAN)
    rows = waterfall(tracer, LAYERS)
    if tracer.calls(JOB):
        # fleet-record: the worker traced its own jobs; the time an
        # operation spends outside its job is the fleet's (submit,
        # pipe, dispatch, polling).
        rows = waterfall(tracer, LAYERS, root=JOB)
        rows["fleet"] += op_ms - tracer.total_ms(JOB)
    jobs = counts.get("fleet.jobs", 0)
    metrics = {
        "digest.calls_per_op": tracer.calls("digest") / n,
        "digest.ms_per_call": per_call(tracer, "digest"),
        "digest.self_share": rows["digest"] / op_ms,
        "journal.appends_per_op": tracer.calls("journal.append") / n,
        "journal.bytes_per_op": counts.get("journal.bytes", 0) / n,
        "journal.append_ms": per_call(tracer, "journal.append"),
        "journal.load_ms": per_call(tracer, "journal.load"),
        "replay.frames_per_op": counts.get("replay.frames", 0) / n,
        "bisect.probes_per_op": counts.get("bisect.probes", 0) / n,
        "replay.self_ms": rows["replay"] / n,
        "machine.builds_per_op": tracer.calls("machine.build") / n,
        "machine.build_ms": per_call(tracer, "machine.build"),
        "monitor.run_ms_per_op": tracer.total_ms("monitor.run") / n,
        "cpu.insns_per_op": counts.get("cpu.insns", 0) / n,
        "cpu.host_insns_per_s": (
            counts.get("cpu.insns", 0) * 1e3 / tracer.self_ms("monitor.run")
            if tracer.self_ms("monitor.run") else 0.0),
        "monitor.traps_per_op": counts.get("monitor.traps", 0) / n,
        "fleet.queue_wait_ms": (counts.get("fleet.queue_wait_ms", 0) / jobs
                                if jobs else 0.0),
        "fleet.overhead_ms": rows.get("fleet", 0.0) / jobs if jobs else 0.0,
        "fleet.retries": counts.get("fleet.retries", 0),
        "fleet.worker_restarts": fleet_counts.get("worker_restarts", 0),
        "rsp.exchanges_per_op": tracer.calls("rsp.exchange") / n,
        "rsp.exchange_ms": per_call(tracer, "rsp.exchange"),
        "rsp.retransmits": counts.get("rsp.retransmits", 0),
    }
    for verb in DEBUGGER_VERBS:
        samples = tracer.samples.get(f"debugger.{verb}")
        metrics[f"debugger.{verb}.p50_ms"] = \
            statistics.median(samples) if samples else 0.0
    metrics.update({
        "snapshot.capture_ms": per_call(tracer, "snapshot.capture"),
        "snapshot.restore_ms": per_call(tracer, "snapshot.restore"),
        "sim.events_per_op": tracer.calls("sim.step") / n,
        "sim.step_ms": tracer.self_ms("sim.step") / n,
        "dispatch.calls_per_op": tracer.calls("dispatch") / n,
        "dispatch.self_ms": tracer.self_ms("dispatch") / n,
        "pic.pending_checks_per_op":
            counts.get("PicPair.pending_vector", 0) / n,
        "host.cpu_share": untraced.cpu / untraced.wall,
        "trace.overhead_ratio": (
            (len(traced.durations) / traced.busy)
            / (len(untraced.durations) / untraced.busy)),
        "waterfall.named_share": 1.0 - rows["other"] / op_ms,
        "waterfall.other_share": rows["other"] / op_ms,
    })
    return metrics, {layer: ms / n for layer, ms in rows.items()}, op_ms / n


def print_waterfall(rows: dict, op_ms: float) -> None:
    print(f"waterfall (self time per operation, {op_ms:.3f} ms total):")
    for layer, ms in sorted(rows.items(), key=lambda item: -item[1]):
        if ms:
            print(f"  {layer:<10} {ms:10.3f} ms  {ms / op_ms:7.2%}")


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------

def end_to_end(workload, plan, args, probes, index):
    from stats import min_samples, tail
    first = closed_loop(workload, plan, 0.0, min_samples(workload.tail_pct),
                        start_index=index, probes=probes)
    # Peak memory is read after a fixed sequence (set-up, warm-up, the
    # first operations): a peak over the whole timed run would grow with
    # the number of operations the host's speed allowed, because freed
    # machines wait for the cyclic collector.
    peak = workload.peak_rss_mb()
    rest = closed_loop(workload, plan, args.seconds - first.wall, 0,
                       start_index=index + first.attempted,
                       probes=probes, probed=first.wall)
    setups = probes.finish()
    durations = first.durations + rest.durations
    busy = first.busy + rest.busy
    if not durations:
        raise RuntimeError(f"every operation failed: {first.errors[:3]}")
    print(f"{args.workload}: {len(durations)} ops in "
          f"{first.wall + rest.wall:.2f} s, tail is "
          f"p{workload.tail_pct:g}, setup probes "
          f"{[round(s, 4) for s in setups]}")
    return [first, rest], {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(durations) / busy, "1/s"),
        "op_p50_ms": (statistics.median(durations) * 1e3, "ms"),
        "op_tail_ms": (tail(durations, workload.tail_pct) * 1e3, "ms"),
        "peak_rss_mb": (peak, "MB"),
    }


def per_layer(workload, plan, args, index, workdir: Path):
    """Alternate untraced and traced blocks of whole cycles until
    ``args.seconds`` have passed, with as many blocks of each kind."""
    from layers import LayerTracer
    tracer = LayerTracer()
    trace_dir = workdir / "worker-trace"
    trace_dir.mkdir()
    loops = {False: [], True: []}
    wall0 = time.perf_counter()
    traced = False
    while len(loops[True]) < 1 or len(loops[False]) != len(loops[True]) \
            or time.perf_counter() - wall0 < args.seconds:
        # A fleet worker is started for the next block when this one
        # ends, so it must know now whether that block is traced.
        workload.worker_trace = None if traced else trace_dir
        if traced:
            install_tracer(tracer)
        try:
            loop = closed_loop(workload, plan, BLOCK_S, len(plan),
                               tracer=tracer if traced else None,
                               start_index=index)
        finally:
            tracer.unwrap()
        index += loop.attempted
        loops[traced].append(loop)
        traced = not traced
    for path in sorted(trace_dir.glob("worker-*.json")):
        tracer.merge(path)
    untraced, traced = (merge_loops(loops[False]),
                        merge_loops(loops[True]))
    if not traced.durations or not untraced.durations:
        raise RuntimeError(f"every operation failed: "
                           f"{(untraced.errors + traced.errors)[:3]}")
    values, rows, op_ms = layer_metrics(tracer, traced.attempted,
                                        untraced, traced,
                                        workload.fleet_counts())
    print_waterfall(rows, op_ms)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    return [untraced, traced], {name: (value, units[name])
                                for name, value in values.items()}


def merge_loops(loops) -> Loop:
    merged = Loop()
    for loop in loops:
        merged.durations += loop.durations
        merged.errors += loop.errors
        for field in ("busy", "attempted", "failed", "wall", "cpu"):
            setattr(merged, field, getattr(merged, field)
                    + getattr(loop, field))
    return merged


def run(args, workdir: Path):
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        workload.setup()
        workload.prepare()
        reset_peak_rss()
        plan = workload.plan()
        warm = closed_loop(workload, plan, 0.0, workload.warmup_ops,
                           cycle=1)
        workload.recycle(force=True)
        if args.trace:
            loops, metrics = per_layer(workload, plan, args,
                                       warm.attempted, workdir)
        else:
            probes = SetupProbes(args.workload, args.seed, workdir,
                                 args.seconds)
            loops, metrics = end_to_end(workload, plan, args, probes,
                                        warm.attempted)
    finally:
        workload.close()
    loops.insert(0, warm)
    for loop in loops:
        for error in loop.errors[:5]:
            print(f"FAILED: {error}", file=sys.stderr)
    return (sum(loop.attempted for loop in loops),
            sum(loop.failed for loop in loops), metrics)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    workdir = ROOT / ".hostbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    load_start, speed_start = os.getloadavg(), host_speed_ms()
    try:
        attempted, failed, metrics = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass   # another run still uses it
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": commit(), "src_sha256": source_digest(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "host_speed_ms_start": speed_start,
        "host_speed_ms_end": host_speed_ms(),
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
elif __name__ == "__mp_main__":
    from layers import WORKER_TRACE_ENV
    if os.environ.get(WORKER_TRACE_ENV):
        install_worker_tracer(Path(os.environ[WORKER_TRACE_ENV]))
