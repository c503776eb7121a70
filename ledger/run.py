#!/usr/bin/env python3
"""The layer ledger: the repository's benchmark.

Run from the root of a source checkout:

    python3 ledger/run.py --workload service-mixed --seed 1 \
        --seconds 30 --trace 0

It builds the library, simulate_cli and ledger_probe (ledger/
CMakeLists.txt) into .bench_build/ledger, sets the workload up from
the seed, measures it for --seconds, judges every answer, and prints
one JSON result as the last line of stdout.  --trace 0 reports the
end-to-end metrics; --trace 1 repeats the same end-to-end pass and
then times every layer on exactly the jobs that pass ran
(ledger_probe ledger), reconciling the op and cache-line counts it
divided by with the pass's own outputs.  README.md beside this file
explains the workloads and the layer -> end-to-end map.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                     "ledger")
CLI = os.path.join(BUILD, "vegeta", "simulate_cli")
PROBE = os.path.join(BUILD, "ledger_probe")
NPROC = len(os.sched_getaffinity(0))

TABLE_IV = ["ResNet50-L1", "ResNet50-L2", "ResNet50-L3", "ResNet50-L4",
            "ResNet50-L5", "ResNet50-L6", "BERT-L1", "BERT-L2",
            "BERT-L3", "GPT-L1", "GPT-L2", "GPT-L3"]
QUICK = ["quick-small", "quick-square", "quick-deep"]
QUICK_DIMS = {(32, 32, 128), (64, 64, 256), (32, 32, 512)}
DENSE = ["VEGETA-D-1-1", "VEGETA-D-1-2", "VEGETA-D-16-1"]
SPARSE = ["STC-like", "VEGETA-S-1-2", "VEGETA-S-2-2", "VEGETA-S-4-2",
          "VEGETA-S-8-2", "VEGETA-S-16-2"]
ENGINES = DENSE + SPARSE
PATTERNS = [4, 2, 1]

# The abstract's headline: VEGETA-S-16-2 with OF over VEGETA-D-1-2.
BASELINE, HEADLINE = "VEGETA-D-1-2", "VEGETA-S-16-2"
PAPER_SPEEDUP = {4: 1.09, 2: 2.20, 1: 3.74}

SETUP_REPEATS = 5
COMMAND_TIMEOUT_S = 150

# cli-oneshot: engines the one-shot commands pick from (their Table IV
# rows are all in the setup reference sweep) and analytical models
# that answer in a few milliseconds, so the pick does not change the
# workload's cost.
CLI_ENGINES = [BASELINE, "VEGETA-S-2-2", "VEGETA-S-4-2", "VEGETA-S-8-2",
               "VEGETA-S-16-2"]
CLI_MODELS = ["fig3-roofline", "fig10-pipelining", "fig14-area-power",
              "blocksize-hardware", "micro-latency", "dynamic-sparsity",
              "tune-prefilter"]
TRACE_LAYER = "GPT-L3"
CLI_RUNS = 6  # plain runs per round; a divisor of the 36 layer patterns

# service-mixed: the pool of never-seen --gemm jobs (writes) the
# clients draw from, and the daemon's worker count.  ledger_probe load
# fixes the batch size, the fresh-job rate and the client count.
FRESH_POOL = 24000
SERVICE_WORKERS = 2

# (name, unit) of every reported metric, as BENCHMARK.json declares.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _spec:
    _SPEC = json.load(_spec)
END_TO_END = [(m["name"], m["unit"]) for m in _SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _SPEC["per_layer"]]


class BenchError(Exception):
    """A failure that voids the run (no result line is printed)."""


def log(message):
    print(f"ledger: {message}", file=sys.stderr, flush=True)


def pct(values, q):
    """Linear-interpolated percentile (as ledger_probe computes it)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


# --- processes ---------------------------------------------------------

class Proc:
    """One finished command: stdout, wall/CPU seconds, peak RSS."""

    def __init__(self, argv, stderr_path, timeout=COMMAND_TIMEOUT_S):
        t0 = time.perf_counter()
        with open(stderr_path, "ab") as err:
            child = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=err)
            watchdog = threading.Timer(timeout, child.kill)
            watchdog.start()
            try:
                self.out = child.stdout.read()
                child.stdout.close()
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                watchdog.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)
        self.wall = time.perf_counter() - t0
        self.rc = child.returncode
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_kb = usage.ru_maxrss
        if self.rc != 0:
            raise BenchError(f"{' '.join(argv)} exited {self.rc} "
                             f"(see {stderr_path})")

    def json(self):
        return json.loads(self.out)


class Daemon:
    """A `simulate_cli serve` daemon on a unix socket."""

    live = []

    def __init__(self, work, name, cache_dir):
        self.socket = os.path.join(work, name + ".sock")
        self.address = "unix:" + self.socket
        err = open(os.path.join(work, name + ".log"), "ab")
        self.proc = subprocess.Popen(
            [CLI, "serve", "--socket", self.socket, "--service-workers",
             str(SERVICE_WORKERS), "--cache-dir", cache_dir],
            stdout=subprocess.DEVNULL, stderr=err)
        err.close()
        Daemon.live.append(self)
        deadline = time.monotonic() + 30
        while not os.path.exists(self.socket):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchError(f"serve daemon {name} did not start")
            time.sleep(0.005)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self in Daemon.live:
            Daemon.live.remove(self)


# --- build and host ----------------------------------------------------

def build():
    with open(os.devnull, "wb") as quiet:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            configure = subprocess.run(
                ["cmake", "-S", "ledger", "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"], stdout=quiet)
            if configure.returncode != 0:
                raise BenchError("cmake configure failed")
        made = subprocess.run(["cmake", "--build", BUILD, "-j", str(NPROC)],
                              stdout=quiet)
    if made.returncode != 0:
        raise BenchError("build failed")


def host_fingerprint(work):
    model = "unknown"
    with open("/proc/cpuinfo") as cpuinfo:
        for line in cpuinfo:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    calib = Proc([PROBE, "calib"], os.path.join(work, "probe.log")).json()
    return {"nproc": NPROC, "cpu_model": model,
            "calibration_mops": calib["calibration_mops"]}


# --- shared helpers ----------------------------------------------------

def row_key(row):
    return (row["workload"], row["engine"], row["pattern_n"],
            row["output_forwarding"])


def paper_gap_pct(rows):
    """Mean |measured/paper - 1| of the headline speed-ups, in %."""
    cycles = {row_key(r): r["core_cycles"] for r in rows}
    gaps = []
    for n, paper in PAPER_SPEEDUP.items():
        ratios = [
            cycles[(w, BASELINE, n, False)] / cycles[(w, HEADLINE, n, True)]
            for w in TABLE_IV]
        measured = statistics.geometric_mean(ratios)
        gaps.append(abs(measured / paper - 1.0))
    return 100.0 * statistics.fmean(gaps)


def spec(row_or_job):
    workload, engine, pattern, of = row_or_job
    field = ("gemm=" if "x" in workload and workload[0].isdigit()
             else "workload=") + workload
    return f"{field} engine={engine} pattern={pattern} of={int(of)}"


def write_lines(path, lines):
    with open(path, "w") as f:
        f.write("".join(line + "\n" for line in lines))


def grid(workloads, engines, patterns):
    """figure13Grid's jobs: no-OF everywhere, plus OF on sparse."""
    jobs = []
    for w in workloads:
        for p in patterns:
            for e in engines:
                jobs.append((w, e, p, False))
                if e in SPARSE:
                    jobs.append((w, e, p, True))
    return jobs


def timed_setups(setup):
    """Run setup() SETUP_REPEATS times; (median seconds, last value)."""
    times, value = [], None
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        value = setup(i, i == SETUP_REPEATS - 1)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), value


def run_ledger(ctx, jobs, address, reconcile):
    """Time every layer on @p jobs; check its counts against the
    end-to-end pass's (ops, lines) sums."""
    jobs_file = os.path.join(ctx.work, "ledger-jobs.txt")
    write_lines(jobs_file, [spec(j) for j in sorted(jobs)])
    ledger = Proc([PROBE, "ledger", "--jobs", jobs_file, "--work",
                   os.path.join(ctx.work, "ledger"), "--connect", address,
                   "--spans", ctx.spans_path],
                  os.path.join(ctx.work, "probe.log")).json()
    with open(os.path.join(ctx.work, "ledger", "server-stats.json")) as f:
        stats = json.load(f)
    starts = [Proc([CLI, "list"], ctx.err).wall * 1e3 for _ in range(15)]
    ledger["server.hit_rate"] = stats["cache"]["hit_rate"]
    ledger["server.dispatch_p50_ms"] = stats["latency_ms"]["dispatch"]["p50"]
    ledger["server.dispatch_p99_ms"] = stats["latency_ms"]["dispatch"]["p99"]
    ledger["cli.start_ms"] = statistics.median(starts)
    ops, lines = reconcile
    ctx.notes.append(f"reconcile: ledger ops {ledger['cpu.ops']:.0f} vs "
                     f"end-to-end {ops}, lines {ledger['cpu.lines']:.0f} "
                     f"vs {lines}")
    ctx.failed += int(ledger["failed"])
    if ledger["cpu.ops"] != ops or ledger["cpu.lines"] != lines:
        ctx.failed += 1
        ctx.notes.append("reconcile: MISMATCH")
    return ledger


class Context:
    def __init__(self, args, work):
        self.args = args
        self.work = work
        self.err = os.path.join(work, "commands.log")
        self.spans_path = os.path.join(os.path.dirname(work),
                                       f"spans-seed{args.seed}.json")
        self.rng = random.Random(args.seed)
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.metrics = {}
        self.layers = {}

    def deadline(self):
        return time.perf_counter() + self.args.seconds


# --- service-mixed -----------------------------------------------------

def fresh_jobs(rng):
    """FRESH_POOL distinct never-warmed --gemm jobs, seeded."""
    dims = [(m, n, k) for m in range(64, 129, 8) for n in range(64, 129, 8)
            for k in range(256, 513, 16) if (m, n, k) not in QUICK_DIMS]
    variants = ([(e, p, False) for e in DENSE for p in PATTERNS] +
                [(e, p, of) for e in SPARSE for p in PATTERNS
                 for of in (False, True)])
    picks = rng.sample(range(len(dims) * len(variants)), FRESH_POOL)
    jobs = []
    for pick in picks:
        m, n, k = dims[pick // len(variants)]
        engine, pattern, of = variants[pick % len(variants)]
        jobs.append((f"{m}x{n}x{k}", engine, pattern, of))
    return jobs


def service_mixed(ctx):
    warm = grid(TABLE_IV + QUICK, ENGINES, PATTERNS)
    warm_file = os.path.join(ctx.work, "warm.txt")
    fresh_file = os.path.join(ctx.work, "fresh.txt")
    write_lines(warm_file, [spec(j) for j in warm])
    write_lines(fresh_file, [spec(j) for j in fresh_jobs(ctx.rng)])
    prewarm = {}

    def setup(i, last):
        # Warm a disk cache through one daemon, then serve from a
        # fresh daemon whose workers load that cache on start.
        cache = os.path.join(ctx.work, f"cache{i}")
        first = Daemon(ctx.work, f"warm{i}", cache)
        try:
            prewarm["tableiv"] = Proc([CLI, "sweep", "--json", "--connect",
                                       first.address], ctx.err)
            Proc([CLI, "sweep", "--quick", "--json", "--connect",
                  first.address], ctx.err)
        finally:
            first.stop()
        daemon = Daemon(ctx.work, f"serve{i}", cache)
        if not last:
            daemon.stop()
        return daemon

    setup_s, daemon = timed_setups(setup)
    try:
        rows = prewarm["tableiv"].json()
        jobs_out = os.path.join(ctx.work, "load-jobs.txt")
        load = Proc([PROBE, "load", "--connect", daemon.address,
                     "--warm", warm_file, "--fresh", fresh_file,
                     "--seed", str(ctx.args.seed),
                     "--seconds", str(ctx.args.seconds),
                     "--daemon-pid", str(daemon.proc.pid),
                     "--jobs-out", jobs_out],
                    os.path.join(ctx.work, "probe.log"),
                    timeout=ctx.args.seconds + COMMAND_TIMEOUT_S).json()
        if load["error"]:
            ctx.notes.append(f"client error: {load['error']}")
        # Lost jobs (a batch with no full reply) are not in "jobs".
        attempted = int(load["jobs"]) + int(load["lost"])
        ctx.attempted += attempted
        ctx.failed += int(load["failed"])
        exact = 1.0 - load["failed"] / max(1, attempted)
        ctx.notes.append(
            f"{load['batches']:.0f} batches from {load['clients']:.0f} "
            f"clients ({load['fresh_batches']:.0f} with a fresh job), "
            f"{load['distinct']:.0f} distinct jobs; latency samples "
            f"{load['batches']:.0f} over {load['segments']:.0f} segments")
        seg = list(zip(load["seg_wall_s"], load["seg_jobs"],
                       load["seg_cpu_ms"], load["seg_instructions"]))
        ctx.metrics.update({
            "answers_per_s":
                statistics.median(j / w for w, j, _, _ in seg) * exact,
            "latency_p50_ms": statistics.median(load["seg_latency_p50_ms"]),
            "latency_p99_ms": statistics.median(load["seg_latency_p99_ms"]),
            "host_cpu_ms_per_answer":
                statistics.median(c / j for _, j, c, _ in seg),
            "sim_muops_per_s":
                statistics.median(i / w for w, _, _, i in seg) / 1e6,
            "peak_rss_mb": load["daemon_peak_rss_kb"] / 1024,
            "setup_s": setup_s,
            "paper_gap_pct": paper_gap_pct(rows),
        })
        if ctx.args.trace:
            with open(jobs_out) as f:
                jobs = [parse_spec(line) for line in f if line.strip()]
            ctx.layers = run_ledger(ctx, jobs, daemon.address,
                                    (int(load["ops"]), int(load["lines"])))
    finally:
        daemon.stop()


def parse_spec(line):
    fields = dict(f.split("=", 1) for f in line.split())
    workload = fields.get("workload") or fields["gemm"]
    return (workload, fields["engine"], int(fields["pattern"]),
            fields["of"] == "1")


# --- cli-oneshot -------------------------------------------------------

def cli_oneshot(ctx):
    rng = ctx.rng
    refs = {}

    def setup(i, last):
        d = os.path.join(ctx.work, f"setup{i}")
        os.makedirs(d)
        sweep = Proc([CLI, "sweep", "--json", "--threads", str(NPROC)] +
                     [f for e in CLI_ENGINES for f in ("--engine", e)],
                     ctx.err)
        trace = os.path.join(d, "layer.vgtr")
        Proc([CLI, "run", "--workload", TRACE_LAYER, "--pattern", "4",
              "--engine", HEADLINE, "--trace-out", trace, "--json"],
             ctx.err)
        models = {m: Proc([CLI, "analyze", m, "--json"], ctx.err).out
                  for m in CLI_MODELS}
        tune = Proc([CLI, "tune", "--json"], ctx.err).out
        refs.update(sweep=sweep.json(), trace=trace, models=models,
                    tune=tune)

    setup_s, _ = timed_setups(setup)
    table = {row_key(r): r for r in refs["sweep"]}
    combos = [(w, p) for w in TABLE_IV for p in PATTERNS]
    rng.shuffle(combos)
    phase = rng.randrange(3)
    out_trace = os.path.join(ctx.work, "out.vgtr")

    def run_argv(workload, pattern, engine, of, extra=()):
        argv = [CLI, "run", "--workload", workload, "--pattern",
                str(pattern), "--engine", engine, "--json", *extra]
        return argv + ([] if of else ["--no-of"])

    def round_commands(r):
        """One round: CLI_RUNS runs, every other kind once, shuffled."""
        cmds = []
        for i in range(CLI_RUNS):
            w, p = combos[(CLI_RUNS * r + i) % len(combos)]
            e, of = rng.choice(CLI_ENGINES), rng.random() < 0.5
            cmds.append(("run", (w, e, p, of), run_argv(w, p, e, of)))
        p = PATTERNS[(r + phase) % 3]
        e, of = rng.choice(CLI_ENGINES), rng.random() < 0.5
        cmds.append(("trace-out", (TRACE_LAYER, e, p, of),
                     run_argv(TRACE_LAYER, p, e, of,
                              ("--trace-out", out_trace))))
        e, of = rng.choice(CLI_ENGINES), rng.random() < 0.5
        job = (TRACE_LAYER, e, 4, of)
        cmds.append(("trace-in", job,
                     [CLI, "run", "--trace-in", refs["trace"], "--pattern",
                      "4", "--engine", e, "--json"] +
                     ([] if of else ["--no-of"])))
        cmds.append(("regen", job, run_argv(TRACE_LAYER, 4, e, of)))
        cmds.append(("tune", None, [CLI, "tune", "--json"]))
        model = rng.choice(CLI_MODELS)
        cmds.append(("analyze", model, [CLI, "analyze", model, "--json"]))
        rng.shuffle(cmds)
        return cmds

    def expected(job):
        w, e, p, of = job
        return table[(w, e, p, of and e in SPARSE)]

    replayed = ("core_cycles", "instructions", "engine_instructions",
                "mac_utilization", "cache_hits", "cache_misses", "engine",
                "executed_n", "output_forwarding")
    # Whole cycles only: a cycle runs every (layer, pattern) once, so
    # each run measures the same command mix whatever the seed.
    rounds_per_cycle = len(combos) // CLI_RUNS
    runs, walls, executed, by_kind, cycles = [], [], {}, {}, []
    deadline = ctx.deadline()
    r = 0
    while not cycles or time.perf_counter() < deadline:
        cycle = {"wall": 0.0, "cpu": 0.0, "commands": 0,
                 "instructions": 0}
        cycles.append(cycle)
        for kind, job, argv in (cmd for i in range(rounds_per_cycle)
                                for cmd in round_commands(r + i)):
            run = Proc(argv, ctx.err)
            runs.append(run)
            walls.append(run.wall)
            by_kind.setdefault(kind, []).append(run.wall * 1e3)
            cycle["wall"] += run.wall
            cycle["cpu"] += run.cpu
            cycle["commands"] += 1
            ctx.attempted += 1
            if kind == "tune":
                ok = run.out == refs["tune"]
            elif kind == "analyze":
                ok = run.out == refs["models"][job]
            else:
                row = run.json()[0]
                want = expected(job)
                cycle["instructions"] += row["instructions"]
                if kind == "trace-in":
                    ok = all(row[f] == want[f] for f in replayed)
                else:
                    ok = row == want
                    if len(cycles) == 1:  # the traced ledger's jobs
                        executed[row_key(row)] = row
            ctx.failed += not ok
        r += rounds_per_cycle
    ctx.notes.append(f"{len(runs)} commands in {len(cycles)} cycles; "
                     f"latency samples {len(runs)}; median ms by kind: " +
                     ", ".join(f"{k} {statistics.median(v):.1f}"
                               for k, v in sorted(by_kind.items())))
    ctx.metrics.update({
        "answers_per_s":
            statistics.median(c["commands"] / c["wall"] for c in cycles),
        "latency_p50_ms": pct(walls, 0.50) * 1e3,
        "latency_p99_ms": pct(walls, 0.99) * 1e3,
        "host_cpu_ms_per_answer": statistics.median(
            c["cpu"] * 1e3 / c["commands"] for c in cycles),
        "sim_muops_per_s": statistics.median(
            c["instructions"] / c["wall"] for c in cycles) / 1e6,
        "peak_rss_mb": max(p.rss_kb for p in runs) / 1024,
        "setup_s": setup_s,
        "paper_gap_pct": paper_gap_pct(refs["sweep"]),
    })
    if ctx.args.trace:
        rows = executed.values()
        reconcile = (sum(r["instructions"] for r in rows),
                     sum(r["cache_hits"] + r["cache_misses"] for r in rows))
        daemon = Daemon(ctx.work, "ledger",
                        os.path.join(ctx.work, "ledger-cache"))
        try:
            ctx.layers = run_ledger(ctx, list(executed), daemon.address,
                                    reconcile)
        finally:
            daemon.stop()


WORKLOADS = {"service-mixed": service_mixed, "cli-oneshot": cli_oneshot}


# --- main --------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    for needed in ("CMakeLists.txt", "src", "examples/simulate_cli.cpp"):
        if not os.path.exists(needed):
            log(f"not a source checkout: {needed} is missing")
            return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))

    base = os.path.join(".bench_work", args.workload)
    work = os.path.join(base, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = Context(args, work)
    try:
        build()
        host = host_fingerprint(work)
        WORKLOADS[args.workload](ctx)
    except BenchError as error:
        log(str(error))
        return 1
    finally:
        for daemon in list(Daemon.live):
            daemon.stop()
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        ctx.layers["failed_frac"] = ctx.failed / ctx.attempted
        wanted = PER_LAYER
        values = ctx.layers
    else:
        wanted = END_TO_END
        values = ctx.metrics
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in wanted}
    for note in ctx.notes:
        print(note)
    for name, unit in wanted:
        print(f"{name:32s} {values[name]:16.6f} {unit}")
    print(json.dumps({"host": host, "workload": args.workload,
                      "seed": args.seed}))
    print(json.dumps({"correct": ctx.failed == 0,
                      "attempted": ctx.attempted, "failed": ctx.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
