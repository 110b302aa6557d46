"""Benchmark of the nonassoc verification pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  Each set-up imports `nonassoc` afresh, builds the workload's
seeded inputs and writes them as documents under `.perfbench/work/`.  A
pass then runs every job of the workload in this process, through
`nonassoc.cli.main(argv)` or, for the two factorization calls that have no
CLI verb, through the library.  Passes repeat for `--seconds`; every
job's outcome is checked after its pass.

With `--trace 0` the last line of stdout is a JSON object whose metrics are
the end-to-end ones: pass_s, largest_s, setup_s and peak_rss_mb.  With
`--trace 1` untraced passes fill half of `--seconds`, then one traced
set-up and one traced pass give the per-layer metrics of `tracing.py`; the
spans are written to `.perfbench/spans-<workload>-<seed>.jsonl`.  The exit
code is 1 when any job gave a wrong outcome, 2 when the benchmark cannot
run at all.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import io
import json
import resource
import shutil
import signal
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORK = OUT / "work"
SETUPS = 5  # set-ups per run; setup_s is their median
# Uncontended time of `probe()` on the 2-core Xeon this benchmark was
# written on; calibrated times are expressed in seconds at that speed.
PROBE_S = 0.0016
PROBE_PERIOD_S = 0.05  # a probe runs this often while a job runs


class SetupError(Exception):
    """The checkout does not hold the package this benchmark measures."""


def fresh_import():
    """Import `nonassoc` from this checkout's src/, dropping any earlier copy."""
    if not (SRC / "nonassoc" / "__init__.py").is_file():
        raise SetupError(f"no nonassoc package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if k.split(".")[0] == "nonassoc"]:
        del sys.modules[key]
    na = importlib.import_module("nonassoc")
    importlib.import_module("nonassoc.cli")
    importlib.import_module("nonassoc.documents")
    if Path(na.__file__).resolve().parent != SRC / "nonassoc":
        raise SetupError(f"nonassoc imported from {na.__file__}, not from {SRC}")
    return na


def probe() -> float:
    """Wall time of a small fixed computation with nonassoc's mix of
    operations (tuple-keyed dicts, Fraction arithmetic, comprehensions)."""
    start = perf_counter()
    table: dict = {}
    for i in range(600):
        key = (i % 61, i % 53)
        table[key] = table.get(key, Fraction(0)) + Fraction(i % 7, 3)
    rows = [[(a * b) % 23 for b in range(23)] for a in range(23)]
    sum(rows[r][c] for r in range(23) for c in range(23) if (r, c) in table)
    return perf_counter() - start


class Speedometer:
    """Calibrates timings against the speed this process runs at.

    On a shared host that speed drifts by a third within seconds, and whole
    runs land in slower or faster periods.  So `probe()` runs before and
    after every timed stretch and, from a SIGALRM handler, every
    PROBE_PERIOD_S inside it.  `time` subtracts the probes' own time and
    rescales the rest by PROBE_S over the mean probe time of the stretch.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # wall time spent in probes
        self.probe_ends: list[float] = []  # perf_counter() at the end of each probe
        self.probed: list[float] = []  # self.spent at the end of each probe
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:  # the alarm fired inside a probe
            return
        self._busy = True
        start = perf_counter()
        self.samples.append(probe())
        end = perf_counter()
        self.spent += end - start
        self.probe_ends.append(end)
        self.probed.append(self.spent)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def spent_between(self, start: float, end: float) -> float:
        """Probe time inside [start, end]; a probe never straddles a
        perf_counter() call of the code it interrupts."""

        def spent_by(t):
            i = bisect.bisect_right(self.probe_ends, t)
            return self.probed[i - 1] if i else 0.0

        return spent_by(end) - spent_by(start)

    def time(self, fn):
        """Run fn(); returns its result, calibrated seconds and wall seconds
        (probes excluded)."""
        self.sample()
        first, spent = len(self.samples) - 1, self.spent
        start = perf_counter()
        result = fn()
        wall = perf_counter() - start - (self.spent - spent)
        self.sample()
        speed = statistics.fmean(self.samples[first:])
        return result, wall * PROBE_S / speed, wall


def set_up(args, meter: Speedometer, tracer=None):
    """One timed set-up; returns the workload, its calibrated seconds, the
    calibration factor and a digest of the documents it wrote."""
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)

    def build():
        na = fresh_import()
        if tracer:
            tracer.install()
            tracer.job = "setup"
        return workloads.build(args.workload, na, args.seed, WORK, args.smallest_rung)

    workload, seconds, wall = meter.time(build)
    digest = hashlib.sha256()
    for path in sorted(WORK.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return workload, seconds, seconds / wall, digest.hexdigest()


def run_job(job, meter: Speedometer) -> tuple[workloads.Outcome, float]:
    """Run one job; returns its outcome (with wall seconds) and its
    calibrated seconds."""

    def call():
        try:
            return job.call(), None
        except (Exception, SystemExit):
            return None, traceback.format_exc()

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        (value, error), seconds, wall = meter.time(call)
    return workloads.Outcome(value, out.getvalue(), error, wall), seconds


@dataclass
class Pass:
    wall: float  # seconds, checks excluded and probes included
    seconds: float  # calibrated sum of the job times
    jobs: dict  # job -> calibrated seconds
    raw: dict  # job -> wall seconds
    problems: list  # (job, reason) of each wrong outcome


def run_pass(workload, meter: Speedometer, tracer=None) -> Pass:
    """Run every job once, then check every outcome."""
    outcomes, jobs = {}, {}
    start = perf_counter()
    for job in workload.jobs:
        if tracer:
            tracer.job = job.name
        outcomes[job.name], jobs[job.name] = run_job(job, meter)
        if tracer:
            tracer.job = None
    wall = perf_counter() - start
    problems = []
    for job in workload.jobs:
        try:
            problem = job.check(outcomes[job.name])
        except Exception:  # malformed output (missing or unparsable file): a wrong outcome
            problem = "check raised:\n" + traceback.format_exc()
        if problem:
            problems.append((job.name, problem))
    raw = {name: o.seconds for name, o in outcomes.items()}  # probes excluded
    return Pass(wall, sum(jobs.values()), jobs, raw, problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smallest-rung", action="store_true",
                        help="keep only each workload's first rung (for the self-test)")
    args = parser.parse_args(argv)
    with Speedometer() as meter:
        return measure(args, meter)


def measure(args, meter: Speedometer) -> int:
    attempted, problems = 0, []
    try:
        setup_times, digests = [], set()
        for _ in range(SETUPS):
            workload, seconds, _, digest = set_up(args, meter)
            setup_times.append(seconds)
            digests.add(digest)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted += SETUPS
    if len(digests) != 1:
        problems.append(("setup", "the same seed wrote different documents"))

    budget = args.seconds / 2 if args.trace else args.seconds
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(workload, meter))
        attempted += len(workload.jobs)
        problems += passes[-1].problems
        elapsed = perf_counter() - start
        if elapsed + statistics.median(p.wall for p in passes) > budget:
            break
    pass_s = statistics.median(p.seconds for p in passes)
    wall_s = statistics.median(sum(p.raw.values()) for p in passes)
    print(f"{len(passes)} untraced passes of {len(workload.jobs)} jobs; median uncalibrated "
          f"pass {wall_s:.4f} s, set-ups {' '.join(f'{t:.4f}' for t in setup_times)} s calibrated")

    if args.trace:
        tracer = tracing.Tracer()
        workload, _, setup_scale, digest = set_up(args, meter, tracer)
        if digest not in digests:
            problems.append(("traced setup", "the same seed wrote different documents"))
        traced = run_pass(workload, meter, tracer)
        attempted += 1 + len(workload.jobs)
        problems += traced.problems
        scale = {"setup": setup_scale}
        scale.update({job: traced.jobs[job] / traced.raw[job] for job in traced.jobs})
        if workload.traced_jobs:
            extra = run_pass(workloads.Workload(workload.traced_jobs(), largest=()), meter, tracer)
            attempted += len(extra.jobs)
            problems += extra.problems
            scale.update({job: extra.jobs[job] / extra.raw[job] for job in extra.jobs})
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics, coverage, ladder = tracing.layer_metrics(
            tracer, workload, traced.raw, scale, meter.spent_between, pass_s, traced.seconds - pass_s
        )
        print(f"traced pass {traced.seconds:.4f} s calibrated, {sum(traced.raw.values()):.4f} s "
              f"uncalibrated; untraced median {pass_s:.4f} s calibrated")
        print("coverage of each job's wall time by top-level spans:")
        for job, share in coverage.items():
            print(f"  {share:7.3f}  {job}")
        if ladder:
            print("ladder, traced and calibrated seconds")
            print("  arrows   check_whq   derived_property_suite   verify_canonical_iso")
            for n, whq, derived, iso in ladder:
                print(f"  {n:6d}   {whq:9.4f}   {derived:22.4f}   {iso:20.4f}")
    else:
        metrics = {
            "pass_s": {"value": pass_s, "unit": "s"},
            "largest_s": {
                "value": statistics.median(sum(p.jobs[j] for j in workload.largest) for p in passes),
                "unit": "s",
            },
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    shutil.rmtree(WORK, ignore_errors=True)

    for job, problem in problems:
        print(f"WRONG {job}: {problem}")
    print(f"workload {args.workload} seed {args.seed}: pass_s and largest_s are medians over "
          f"the passes, setup_s over {SETUPS} set-ups, all in calibrated seconds")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"failed_share {len(problems) / attempted:.6g} ratio")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
