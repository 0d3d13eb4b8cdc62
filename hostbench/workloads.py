"""The benchmark's four closed-loop workloads.

Each workload is driven by one client in this process: the next
operation starts only after the previous one returned.  An operation
does a fixed amount of work; the seed changes its content, never its
size.  Operations are generated per *cycle* (:meth:`Workload.plan`);
where a workload mixes inputs, a cycle holds each input once, so any
whole number of cycles does identical work for every seed.

Every workload follows the same life cycle: :meth:`setup` is the cold
cost a user pays before the first operation (timed as ``setup_s`` in
fresh processes), :meth:`prepare` computes the reference values the
checks compare against (untimed), :meth:`op` is the timed operation and
:meth:`check` returns an error string or ``None``.
"""

from __future__ import annotations

import json
import os
import random
import re
import time
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core import DebugSession
from repro.debugger import Debugger, SymbolTable
from repro.fleet import Fleet, FleetConfig, Job, run_exec_slices
from repro.guest import KernelConfig, build_kernel
from repro.hw.machine import Machine, MachineConfig
from repro.perf.analytic import predict_demanded_load
from repro.perf.load import measure_load
from repro.perf.sweep import window_for_rate
from repro.replay import bisect_divergence, load_journal, replay_journal

from layers import WORKER_TRACE_ENV

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
REPLAY_JOURNAL = "tests/golden/replay_wild-writes_seed1234.journal"


def load_expected() -> Dict:
    """Recorded model outputs (written by ``record_expected.py``)."""
    return json.loads((BENCH_DIR / "expected.json").read_text())


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of process ``pid`` in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Workload:
    name = ""
    #: Fixed tail percentile reported as ``op_tail_ms``: the highest
    #: that a run, which always collects ``stats.min_samples`` of it,
    #: leaves at least 10 samples beyond.
    tail_pct = 50.0
    #: Operations run untimed before timing starts (JIT blocks, lazy
    #: set-up and allocator state settle).
    warmup_ops = 1
    #: Traced runs: the directory the next fleet worker started writes
    #: its own layer totals to, or ``None`` for an untraced worker.
    worker_trace: Optional[Path] = None

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def plan(self) -> List:
        """One cycle of operation specs, derived from the seed only."""
        raise NotImplementedError

    @staticmethod
    def size(spec) -> Tuple:
        """What an operation costs, with its content left out."""
        raise NotImplementedError

    def setup(self) -> None:
        pass

    def prepare(self) -> None:
        pass

    def op(self, spec):
        raise NotImplementedError

    def check(self, spec, result) -> Optional[str]:
        raise NotImplementedError

    def recycle(self, force: bool = False) -> None:
        """Untimed, after every checked operation (and with ``force``
        once after the warm-up): replace state that must start fresh
        on every cycle (see :class:`FleetRecord`)."""

    def attribute(self, spec, result, tracer) -> None:
        """Traced runs only, after each operation: counts that need
        the operation's result."""

    def fleet_counts(self) -> Dict[str, float]:
        return {}

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(os.getpid())

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# fleet-record
# ----------------------------------------------------------------------

#: Guest for recorded fleet jobs: every pass stores an incrementing
#: counter to DIRTY_PAGES pages, so every slice dirties the same fixed
#: number of pages.  The seed picks the base page and the increment.
FLEET_GUEST = """loop:
    MOVI R1, {base}
    MOVI R2, {pages}
    ADDI R3, {step}
page:
    ST   [R1+0], R3
    ADDI R1, 4096
    SUBI R2, 1
    JNZ  page
    JMP  loop"""


class FleetRecord(Workload):
    """Recorded ``exec-slices`` jobs through a one-worker fleet.

    One operation is one job.  A worker's job cost depends on how many
    jobs it has run: ``state_digest`` copies guest memory, and whether
    that copy lands on fresh pages (slow) or reused ones (fast) follows
    the allocator's history, the same job by job in every worker.  So a
    worker serves exactly ``LIFETIME`` operations, one cycle of the
    plan, and is then replaced (untimed).  Every run is a whole number
    of lifetimes, so every run holds both modes in the same mix.
    """

    name = "fleet-record"
    tail_pct = 90.0
    LIFETIME = 50
    GUESTS = 3
    SLICES = 6
    SLICE_INSNS = 2000
    DIRTY_PAGES = 16

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.fleet = None
        self.ops_on_worker = 0
        self.worker_peaks: List[float] = []
        self.restarts = 0

    def jobs(self) -> List[str]:
        rng = random.Random(f"{self.name}:{self.seed}")
        jobs = []
        for _ in range(self.GUESTS):
            # Pages 0x400000.. stay clear of the guest kernel below
            # and of the monitor in the top MiB.
            base = 0x400000 + rng.randrange(0x80) * 0x10000
            body = FLEET_GUEST.format(base=base, pages=self.DIRTY_PAGES,
                                      step=rng.randrange(1, 1 << 16))
            jobs.append(json.dumps({"slices": self.SLICES,
                                    "slice_insns": self.SLICE_INSNS,
                                    "record": True, "seed": self.seed,
                                    "guest_body": body}, sort_keys=True))
        return jobs

    def plan(self) -> List:
        jobs = self.jobs()
        return [(jobs[i % len(jobs)],) for i in range(self.LIFETIME)]

    @staticmethod
    def size(spec) -> Tuple:
        jobs = [json.loads(job) for job in spec]
        return tuple((job["slices"], job["slice_insns"], job["record"],
                      re.search(r"MOVI R2, (\d+)", job["guest_body"])[1])
                     for job in jobs)

    def setup(self) -> None:
        Machine(MachineConfig())
        self.start_fleet()

    def start_fleet(self) -> None:
        spool = self.workdir / "spool"
        if self.worker_trace is not None:
            os.environ[WORKER_TRACE_ENV] = str(self.worker_trace)
        try:
            self.fleet = Fleet(FleetConfig(
                workers=1, spool_dir=str(spool))).start()
        finally:
            os.environ.pop(WORKER_TRACE_ENV, None)
        self.ops_on_worker = 0
        if not self.fleet.wait_ready(timeout=60.0):
            raise RuntimeError("fleet worker never became ready")

    def stop_fleet(self) -> None:
        self.worker_peaks.extend(vm_hwm_mb(slot.pid)
                                 for slot in self.fleet.slots if slot.alive)
        self.restarts += sum(slot.restarts for slot in self.fleet.slots)
        self.fleet.shutdown()
        self.fleet = None

    def prepare(self) -> None:
        self.reference = {job: run_exec_slices(json.loads(job))["digests"]
                          for job in self.jobs()}

    def op(self, spec):
        self.ops_on_worker += 1
        records = []
        for job in spec:
            submitted = time.monotonic()
            records.append((self.fleet.submit(Job(
                kind="exec-slices", params=json.loads(job),
                timeout_s=120.0)), submitted))
        self.fleet.run_until_idle(timeout=120.0, poll_interval=0.002)
        return records

    def check(self, spec, records) -> Optional[str]:
        records = [record for record, _ in records]
        error = check_fleet_records(spec, records, self.reference,
                                    self.SLICES * self.SLICE_INSNS)
        for record in records:
            if record.spool and os.path.exists(record.spool):
                os.remove(record.spool)
        return error

    def recycle(self, force: bool = False) -> None:
        if self.ops_on_worker >= self.LIFETIME \
                or (force and self.ops_on_worker):
            self.stop_fleet()
            self.start_fleet()

    def attribute(self, spec, records, tracer) -> None:
        counts = tracer.counts
        for record, submitted in records:
            counts["fleet.jobs"] += 1
            counts["fleet.retries"] += record.attempts - 1
            counts["fleet.queue_wait_ms"] += \
                (tracer.marks.pop(record.id) - submitted) * 1e3

    def fleet_counts(self) -> Dict[str, float]:
        live = sum(slot.restarts for slot in self.fleet.slots) \
            if self.fleet is not None else 0
        return {"worker_restarts": self.restarts + live}

    def peak_rss_mb(self) -> float:
        """This process plus the largest peak of a finished worker."""
        return vm_hwm_mb(os.getpid()) + max(self.worker_peaks, default=0.0)

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.shutdown()
            self.fleet = None
        # Spawning started multiprocessing's resource tracker; stop it
        # too, so no process outlives the benchmark.
        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()


def check_fleet_records(spec, records, reference: Dict[str, List[str]],
                        instret: int) -> Optional[str]:
    """Digests equal the in-process reference; spools load with an end
    frame whose checkpoints carry the same digests."""
    for job, record in zip(spec, records):
        if record.status != "done":
            return f"job {record.id} {record.status}: {record.error}"
        result = record.result or {}
        if result.get("digests") != reference[job]:
            return f"job {record.id} digests differ from the reference"
        if result.get("instret") != instret:
            return f"job {record.id} retired {result.get('instret')}"
        journal = load_journal(record.spool)
        if journal.end_frame is None:
            return f"job {record.id} spool has no end frame"
        spooled = [frame.data["digest"] for frame in journal.frames
                   if frame.kind == "checkpoint"]
        if spooled != reference[job]:
            return f"job {record.id} spooled digests differ"
    return None


# ----------------------------------------------------------------------
# replay-verify
# ----------------------------------------------------------------------

class ReplayVerify(Workload):
    """Strict replay plus bisection of the golden wild-writes journal.

    The input is the committed journal, so the seed changes nothing.
    """

    name = "replay-verify"
    tail_pct = 90.0

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.path = REPO_ROOT / REPLAY_JOURNAL

    def plan(self) -> List:
        return [str(self.path)]

    @staticmethod
    def size(spec) -> Tuple:
        return (spec,)

    def setup(self) -> None:
        Machine(MachineConfig())
        load_journal(self.path)

    def prepare(self) -> None:
        self.golden = load_expected()[self.name]["final_digest"]

    def op(self, spec):
        journal = load_journal(spec)
        return journal, replay_journal(journal, strict=True), \
            bisect_divergence(journal)

    def check(self, spec, result) -> Optional[str]:
        return check_replay(result, self.golden)


def check_replay(result, golden_digest: str) -> Optional[str]:
    journal, replay, report = result
    if not replay.ok:
        return f"strict replay diverged: {replay.divergence}"
    if not replay.reproduced:
        return f"recorded failure not reproduced: {replay.checks}"
    if replay.final_digest != golden_digest \
            or replay.final_digest != journal.end_frame.data["digest"]:
        return f"final digest {replay.final_digest} is not the golden one"
    if report is not None:
        return f"bisect reports a divergence: {report.to_dict()}"
    return None


# ----------------------------------------------------------------------
# debug-session
# ----------------------------------------------------------------------

#: Symbols on the never-ending kernel's tick path; every one is hit
#: again within one timer tick.
DEBUG_SYMBOLS = ("timer_isr", "timer_eoi", "idle")
EPISODE = ("break {sym}", "continue", "regs", "x {sym} 16", "step",
           "checkpoint {cp}", "restore {cp}", "delete {sym}",
           "monitor stats")
_REGS = re.compile(r"(R[0-7]|PC|FLAGS)=([0-9a-f]{8})")
_HEX_LINE = re.compile(r"^([0-9a-f]{8}):  ((?:[0-9a-f]{2} ?)+)")


class DebugSessionWorkload(Workload):
    """One gdb-style episode per operation on ``DebugSession("lvmm")``."""

    name = "debug-session"
    tail_pct = 95.0
    warmup_ops = 3

    def plan(self) -> List:
        rng = random.Random(f"{self.name}:{self.seed}")
        offset = rng.randrange(len(DEBUG_SYMBOLS))
        checkpoint = f"cp{rng.randrange(1 << 16):04x}"
        symbols = DEBUG_SYMBOLS[offset:] + DEBUG_SYMBOLS[:offset]
        return [tuple(line.format(sym=sym, cp=checkpoint)
                      for line in EPISODE) for sym in symbols]

    @staticmethod
    def size(spec) -> Tuple:
        return tuple(line.split()[0] for line in spec)

    def setup(self) -> None:
        self.session = DebugSession(monitor="lvmm")
        # ticks_to_run never reached: the kernel idles forever.
        kernel = build_kernel(KernelConfig(ticks_to_run=0x7FFFFFFF))
        self.session.load_and_boot(kernel)
        self.session.attach()
        self.symbols = SymbolTable()
        self.symbols.add_program(kernel)
        self.debugger = Debugger(self.session, self.symbols)

    def op(self, spec):
        machine = self.session.machine
        out = []
        for line in spec:
            text = self.debugger.execute(line)
            cpu = machine.cpu
            # Ground truth right after the command, for the check.
            out.append((text, list(cpu.regs) + [cpu.pc, cpu.flags]))
        symbol = spec[0].split()[1]
        address = self.symbols.resolve(symbol)
        return out, machine.memory.read(address, 16)

    def check(self, spec, result) -> Optional[str]:
        return check_episode(spec, result, self.symbols)


def check_episode(spec, result, symbols) -> Optional[str]:
    """Stops land on the requested symbol; ``regs`` and ``x`` agree
    with the guest's registers and memory."""
    out, memory = result
    symbol = spec[0].split()[1]
    address = symbols.resolve(symbol)
    texts = [text for text, _ in out]
    if texts[0] != f"breakpoint at {symbols.format_address(address)}":
        return f"break: {texts[0]!r}"
    if texts[1] != f"stopped (SIGTRAP) at " \
                   f"{symbols.format_address(address)}":
        return f"continue did not stop at {symbol}: {texts[1]!r}"
    regs_text, truth = out[2]
    shown = [int(value, 16) for _, value in _REGS.findall(regs_text)]
    if shown != truth or truth[8] != address:
        return f"regs {shown} disagree with the guest {truth}"
    match = _HEX_LINE.match(texts[3])
    if match is None or int(match.group(1), 16) != address \
            or bytes.fromhex(match.group(2).replace(" ", "")) != memory:
        return f"x {symbol} disagrees with guest memory: {texts[3]!r}"
    step_pc = out[4][1][8]
    if not texts[4].startswith("stopped (SIGTRAP)") or step_pc == address:
        return f"step did not move: {texts[4]!r}"
    if out[6][1] != out[4][1]:
        return "restore did not return to the checkpointed registers"
    if not texts[8].startswith("traps emulated:"):
        return f"monitor stats: {texts[8]!r}"
    return None


# ----------------------------------------------------------------------
# fig31-point
# ----------------------------------------------------------------------

#: (stack, rate in bit/s, segments in the window): the rates of the
#: DES/closed-form cross-check test; the segment counts give each point
#: about the same host time while keeping the DES within 8% of the
#: closed form.
FIG31_POINTS = (("bare", 100e6, 19), ("lvmm", 80e6, 16),
                ("fullvmm", 20e6, 12), ("bare", 300e6, 21),
                ("lvmm", 150e6, 16))
FIG31_REL = 0.08


def fig31_key(point) -> str:
    stack, rate, segments = point
    return f"{stack}@{rate:g}/{segments}"


class Fig31Point(Workload):
    """One ``measure_load`` point of Fig. 3.1 per operation."""

    name = "fig31-point"
    tail_pct = 75.0
    warmup_ops = 1

    def plan(self) -> List:
        offset = random.Random(f"{self.name}:{self.seed}").randrange(
            len(FIG31_POINTS))
        return list(FIG31_POINTS[offset:] + FIG31_POINTS[:offset])

    @staticmethod
    def size(spec) -> Tuple:
        return tuple(spec)

    def setup(self) -> None:
        Machine(MachineConfig())

    def prepare(self) -> None:
        self.recorded = load_expected()[self.name]
        self.analytic = {fig31_key(point):
                         predict_demanded_load(point[0], point[1])
                         for point in FIG31_POINTS}

    def op(self, spec):
        stack, rate, segments = spec
        return measure_load(stack, rate, window_for_rate(rate, 0.0,
                                                         segments))

    def check(self, spec, sample) -> Optional[str]:
        key = fig31_key(spec)
        return check_fig31(sample.demanded_load,
                           self.recorded[key], self.analytic[key])


def check_fig31(demanded: float, recorded: float,
                analytic: float) -> Optional[str]:
    """Bit-identical to the recorded value and within the cross-check
    tolerance of the closed form."""
    if demanded != recorded:
        return f"demanded_load {demanded!r} != recorded {recorded!r}"
    if abs(demanded - analytic) > FIG31_REL * abs(analytic):
        return f"demanded_load {demanded!r} not within " \
               f"{FIG31_REL:.0%} of closed form {analytic!r}"
    return None


WORKLOADS = {cls.name: cls for cls in (FleetRecord, ReplayVerify,
                                       DebugSessionWorkload, Fig31Point)}
