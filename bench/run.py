"""Benchmark of the semilevy command line, measured from outside the program.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's configs are generated from
the seed (see workloads.py) and fed to `semilevy.cli.main` in this process,
one pass over the op list after another, while the next pass is expected to
end within S seconds (an untimed warm-up, then at least MIN_PASSES timed
passes).  Every op's outputs are checked (checks.py), and every pass must
reproduce the first pass's artifacts byte for byte.

With --trace 0 the last line reports the end-to-end metrics; a per-pass time
is each op's median over the passes, summed over the ops.  The machine is a
virtual one on a shared host, and two things that are not the program move
its times by tens of percent from minute to minute; both are taken out:

  - the host takes CPUs away to run other guests: /proc/stat counts those
    ticks as stolen, and every wall time is taken less the stolen share of
    the machine's busy ticks over its span (`Clock`);
  - the CPUs run slower or faster with the host's load: a fixed piece of
    interpreter and numpy work is timed (thread CPU time) before every op
    and every set-up probe, and every time is scaled by REFERENCE_S over the
    run's median of those samples (`reference_seconds`).

So time metrics read as seconds on an undisturbed machine of reference
speed.  Raw wall times, stolen shares and reference samples are kept in the
result file.  With --trace 1 one untraced pass comes before every two
traced ones; the last line reports the per-layer
metrics of the traced passes (spans.py) and the tracing overhead, traced
minus untraced pass wall time.  `all` runs each workload in a fresh
process.  Results, with versions and machine details, are also written to
.bench_out/<workload>/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

COMMANDS = ("classify", "simulate", "skeleton", "lln")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    *((f"{c}_s", "s") for c in COMMANDS),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)
# fresh interpreters timed for setup_s
SETUP_PROBES = 3
# median of reference_seconds() on a 2-vCPU Xeon host: the speed that time
# metrics are given at
REFERENCE_S = 0.016
# reference samples before each op and each set-up probe
REFERENCE_SAMPLES = 2
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# baseline counts of the psi layer for single verdicts (no sweep)
COUNT_SANITY = {
    "bm1": {"schedule.period_exponent.calls": 7644},
    "bm2": {"schedule.period_exponent.calls": 6804, "schedule.period_exponent.points": 326592},
}

# one fresh interpreter: import the CLI and write the workload's configs
PROBE = (
    "import sys, pathlib; sys.path[:0] = sys.argv[1:3]; import semilevy.cli, workloads; "
    "workloads.write_configs(sys.argv[3], int(sys.argv[4]), pathlib.Path(sys.argv[5]))"
)


def setup_probe(workload: str, seed: int, directory: Path) -> float:
    """Seconds for one fresh interpreter to import the CLI and write the configs."""
    argv = [sys.executable, "-c", PROBE, str(SRC), str(BENCH), workload, str(seed), str(directory)]
    with Clock() as clock:
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
    return clock.seconds


def reference_seconds() -> float:
    """Thread CPU seconds of a fixed piece of interpreter and numpy work."""
    start = time.thread_time()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    values = np.random.default_rng(0).standard_normal(200_000)
    np.sort(values)
    np.cumsum(values)
    return time.thread_time() - start


def host_ticks() -> tuple[int, int]:
    """Machine-wide (stolen, busy) CPU ticks from /proc/stat; (0, 0) where absent.

    Stolen ticks are those the hypervisor gave to other guests while one of
    this machine's CPUs had work; busy ticks count them and the ticks spent
    running (idle and iowait left out).
    """
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = (fields + [0] * 8)[:8]
    return steal, user + nice + system + irq + softirq + steal


class Clock:
    """Wall time of a span of work, less the share of it the host took away."""

    def __enter__(self):
        self.ticks = host_ticks()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.start
        stolen, busy = (b - a for a, b in zip(self.ticks, host_ticks()))
        self.stolen_share = stolen / busy if busy > 0 else 0.0
        self.seconds = self.wall * (1.0 - self.stolen_share)


def reference_samples() -> list[float]:
    return [reference_seconds() for _ in range(REFERENCE_SAMPLES)]


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Bench:
    """The ops of one workload, run pass after pass, with their outcomes."""

    def __init__(self, workload: str, seed: int, work: Path):
        from semilevy import cli

        self.main = cli.main
        self.work = work
        # every pass writes to a directory of its own, and all are deleted at
        # the end of the run: the disk may discard freed blocks on deletion,
        # which slows the writes that follow for seconds
        self.outputs = work / "out"
        self.passes = 0
        self.pairs = workloads.write_configs(workload, seed, work / "configs")
        self.first_digests: dict[str, str] = {}
        self.first_outcomes: dict[str, checks.Outcome] = {}
        self.attempted = 0
        self.tally = {"ok": 0, "inconclusive": 0, "wrong": 0, "error": 0}
        # errors and wrong verdicts other than the known mis-verdicts
        self.gate_failures = 0
        self.problems: list[str] = []

    def warm_up(self):
        """Run the first op of each command once, untimed and unchecked.

        It pays for the first calls into numpy and scipy, so that the first
        timed pass does not; a whole pass would cost a pass's time in every run.
        """
        out_root = self.outputs / "warm-up"
        commands = set()
        for op, config in self.pairs:
            if op.command in commands:
                continue
            commands.add(op.command)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                with contextlib.suppress(Exception):  # a failing op shows in the timed passes
                    self.main([op.command, "--config", str(config), "--out", str(out_root / op.name)])

    def run_pass(self, tracer: spans.Tracer | None = None) -> dict:
        """One timed pass over the op list, then the (untimed) output checks."""
        out_root = self.outputs / f"pass-{self.passes}"
        self.passes += 1
        wall, net, cpu, ranges, runs, reference = {}, {}, {}, {}, [], {}
        for op, config in self.pairs:
            reference[op.name] = reference_samples()
            stdout, stderr = io.StringIO(), io.StringIO()
            first = len(tracer.names) if tracer else 0
            cpu_start = cpu_seconds()
            with Clock() as clock, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                span = tracer.open("cli.main") if tracer else None
                try:
                    code = self.main([op.command, "--config", str(config), "--out", str(out_root / op.name)])
                except Exception:  # an escaped exception fails this op, not the run
                    traceback.print_exc()
                    code = None
                finally:
                    if tracer:
                        tracer.close(span)
            wall[op.name], net[op.name] = clock.wall, clock.seconds
            cpu[op.name] = cpu_seconds() - cpu_start
            if tracer:
                ranges[op.name] = (first, len(tracer.names))
            runs.append((op, code, stdout.getvalue(), stderr.getvalue()))
        for op, code, stdout, stderr in runs:
            self._judge(op, code, stdout, stderr, out_root / op.name)
        return {"wall": wall, "net": net, "cpu": cpu, "ranges": ranges, "reference": reference}

    def end_to_end(self, passes: list) -> dict[str, float]:
        """Per-pass times: each op's median over the passes, summed over the op list.

        Wall times are taken less the share the host stole (`Clock`).
        Interference on a shared machine comes in bursts; per-op medians drop
        the ops a burst hit, where a median of whole-pass sums would not.
        """
        median = {
            key: {op.name: statistics.median(p[key][op.name] for p in passes) for op, _ in self.pairs}
            for key in ("net", "cpu")
        }
        values = {"wall_s": sum(median["net"].values()), "cpu_s": sum(median["cpu"].values())}
        for command in COMMANDS:
            values[f"{command}_s"] = sum(median["net"][op.name] for op, _ in self.pairs if op.command == command)
        return values

    def _judge(self, op, code, stdout: str, stderr: str, out: Path):
        self.attempted += 1
        if code != 0 or not out.is_dir():
            outcome = checks.Outcome("error", f"exit {code}: {stderr.strip()[-300:]}")
        else:
            digest = checks.digest(out) + "/" + stdout
            if op.name not in self.first_digests:
                self.first_digests[op.name] = digest
                self.first_outcomes[op.name] = checks.check(op, out, stdout)
            if digest == self.first_digests[op.name]:
                outcome = self.first_outcomes[op.name]
            else:
                outcome = checks.Outcome("error", "artifacts differ from the first pass")
        self.tally[outcome.status] += 1
        if outcome.status == "error" or (outcome.status == "wrong" and not op.known_wrong):
            self.gate_failures += 1
        if outcome.status in ("wrong", "error"):
            problem = f"{op.name}: {outcome.status}: {outcome.detail}"
            if problem not in self.problems:
                self.problems.append(problem)

    @property
    def failed(self) -> int:
        return self.tally["wrong"] + self.tally["error"]


def run_passes(bench: Bench, seconds: float, tracer=None, patches=None, between=None) -> tuple[list, list]:
    """Passes while the next is expected to end within `seconds`; with a
    tracer, one untraced pass comes before every two traced ones.  `between`
    is called after each timed pass; its time counts as part of the pass.

    A warm-up comes first (`Bench.warm_up`); its time counts against
    `seconds` but is left out of the timings.
    """
    plain, traced = [], []
    start = time.perf_counter()
    bench.warm_up()
    durations = []

    def more() -> bool:
        if (len(traced) < MIN_TRACED_PASSES) if tracer else (len(plain) < MIN_PASSES):
            return True
        return time.perf_counter() - start + statistics.median(durations) < seconds

    while more():
        begin = time.perf_counter()
        if tracer and len(traced) < 2 * len(plain):
            patches.apply(True)
            try:
                traced.append(bench.run_pass(tracer))
            finally:
                patches.apply(False)
        else:
            plain.append(bench.run_pass())
        if between:
            between()
        durations.append(time.perf_counter() - begin)
    return plain, traced


def machine_info(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    import semilevy

    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    with contextlib.suppress(OSError):
        # the ceiling keeps git from looking above the checkout
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
        if git.returncode == 0:
            commit = git.stdout.strip()
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "semilevy": getattr(semilevy, "__version__", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "commit": commit,
        # configs leave `threads` unset, so the CLI pool has os.cpu_count() workers
        "pool_size": os.cpu_count(),
    }


def layer_report(bench: Bench, tracer: spans.Tracer, traced: list, plain: list) -> tuple[dict, dict, list[str]]:
    """Per-layer metric values (medians over traced passes), per-op counts, and problems."""
    per_pass = []
    for result in traced:
        first = min(lo for lo, _ in result["ranges"].values())
        last = max(hi for _, hi in result["ranges"].values())
        per_pass.append(spans.layer_values(spans.aggregate(tracer, first, last)))
    values, problems = {}, []
    for metric, _, _, unit in spans.LAYER_METRICS:
        series = [p[metric] for p in per_pass]
        if unit == "s":
            values[metric] = statistics.median(series)
        else:
            values[metric] = series[0]
            if any(v != series[0] for v in series):
                problems.append(f"count {metric} differs between traced passes: {series}")
    values["trace.overhead_s"] = bench.end_to_end(traced)["wall_s"] - bench.end_to_end(plain)["wall_s"]
    op_counts = {}
    for name, (lo, hi) in traced[0]["ranges"].items():
        stats = spans.layer_values(spans.aggregate(tracer, lo, hi))
        op_counts[name] = {m: stats[m] for m in ("schedule.period_exponent.calls", "schedule.period_exponent.points")}
    return values, op_counts, problems


def run_workload(args) -> int:
    if not (SRC / "semilevy" / "cli.py").is_file():
        print(f"error: {SRC / 'semilevy'} not found; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    import semilevy

    if not Path(semilevy.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: semilevy imported from {semilevy.__file__}, not {SRC}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, work)
    tracer = spans.Tracer() if args.trace else None
    patches = spans.Patches(tracer) if tracer else None
    setup: list[float] = []
    probe_reference: list[float] = []

    def probe():
        # one set-up probe after each timed pass, so the probes see the
        # machine as the passes do; the rest follow the last pass
        if not args.trace and len(setup) < SETUP_PROBES:
            probe_reference.extend(reference_samples())
            setup.append(setup_probe(args.workload, args.seed, bench.outputs / f"probe-{len(setup)}"))

    try:
        plain, traced = run_passes(bench, args.seconds, tracer, patches, probe)
        while not args.trace and len(setup) < SETUP_PROBES:
            probe()
    except subprocess.CalledProcessError as exc:
        print(f"error: setup failed: {exc.stderr.decode()[-500:]}", file=sys.stderr)
        return 2
    problems = list(bench.problems)
    errors = bench.gate_failures > 0

    info = machine_info(args.workload, args.seed)
    info["ops"] = [
        {"name": op.name, "command": op.command, "config_seed": op.config_seed(args.seed), **op.sizes}
        for op, _ in bench.pairs
    ]
    info.update(passes=len(plain), traced_passes=len(traced), tally=bench.tally)
    if tracer:
        metrics, op_counts, count_problems = layer_report(bench, tracer, traced, plain)
        errors = errors or bool(count_problems)
        problems += count_problems
        units = {m: u for m, _, _, u in spans.LAYER_METRICS} | {"trace.overhead_s": "s"}
        info["missing_boundaries"] = patches.missing
        info["op_counts"] = op_counts
        info["count_sanity"] = {
            op: {m: {"traced": op_counts[op][m], "baseline": v} for m, v in expected.items()}
            for op, expected in COUNT_SANITY.items()
            if op in op_counts
        }
        tracer.write(work / f"spans-seed{args.seed}.csv.gz")
    else:
        raw = {"setup_s": statistics.median(setup), **bench.end_to_end(plain)}
        reference = probe_reference + [t for r in plain for samples in r["reference"].values() for t in samples]
        scale = REFERENCE_S / statistics.median(reference)
        metrics = {m: v * scale for m, v in raw.items()}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = dict(END_TO_END)
        info.update(raw_times_s=raw, reference_scale=scale, setup_probes_s=setup)
    info["pass_values"] = [
        {key: r[key] for key in ("wall", "net", "cpu", "reference")} | {"traced": bool(r["ranges"])}
        for r in plain + traced
    ]

    result = {
        "correct": not errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    (work / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "info": info, "problems": problems}, indent=1) + "\n"
    )
    shutil.rmtree(bench.outputs, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(plain)} untraced and {len(traced)} traced passes")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:45s} {entry['value']:14.6g} {entry['unit']}")
    print(f"  ops attempted {bench.attempted}, failed {bench.failed} "
          f"(wrong verdicts {bench.tally['wrong']}, errors {bench.tally['error']}, "
          f"failing the run {bench.gate_failures}), "
          f"inconclusive {bench.tally['inconclusive']}")
    for problem in problems:
        print(f"  FAILED {problem}")
    for op, counts in info.get("count_sanity", {}).items():
        for metric, pair in counts.items():
            verdict = "matches" if pair["traced"] == pair["baseline"] else "differs from"
            print(f"  count {op} {metric} {pair['traced']:.0f} {verdict} baseline {pair['baseline']}")
    print("info " + json.dumps({k: v for k, v in info.items() if k != "pass_values"}))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_workload(args)
    codes = []
    for name in workloads.WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes.append(subprocess.run([sys.executable, __file__, *argv]).returncode)
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
