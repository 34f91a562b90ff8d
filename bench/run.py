"""quivalg benchmark: closed-loop exact-algebra jobs, checked against oracles.

Usage, from the repository root:

    python3 bench/run.py --workload present-sparse --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 7        # every workload, one
                                                        # fresh interpreter each

One process, one client, no threads: each job starts when the previous one
has returned.  With ``--trace 0`` the run times untraced jobs and reports the
end-to-end metrics; with ``--trace 1`` it runs each round untraced and then
traced and reports the per-layer metrics plus the tracing overhead.  Every
job is checked; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import gen
import hostspeed
import oracle
from gen import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MIN_JOBS = 100        # so that at least ten job times lie above p90
RSS_ROUNDS = 3        # peak_rss_mb is read after this many rounds; every run
                      # reaches it, and a fixed amount of work keeps the peak
                      # independent of how fast the host ran that day
SETUP_PROBES = 5      # fresh interpreters timed for setup_s
OUT_DIR = os.path.join("bench", ".out")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(workload, seed):
    """Raw wall times from interpreter start to first job ready.

    Each sample is a fresh interpreter running probe.py.  A probe is too
    short for calibrations around it to track the host (scaling each sample
    by them made the samples noisier), so the caller scales the median by the
    run's median round factor instead: the host's state lasts tens of seconds,
    longer than the probes and the rounds together.
    """
    samples = []
    env = dict(os.environ, PYTHONPATH="")
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE, env=env, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed with exit code {code}")
        samples.append(elapsed)
    return samples


class GcTimer:
    """Time spent in the cyclic garbage collector, via gc.callbacks."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._t0 = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._t0
            self.collections += 1

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


@dataclass
class Phase:
    """What a sequence of rounds measured."""

    records: list = field(default_factory=list)   # (job, raw seconds, error)
    scaled: list = field(default_factory=list)    # job seconds at reference speed
    rates: list = field(default_factory=list)     # per round: jobs per reference second
    raw_rates: list = field(default_factory=list)
    factors: list = field(default_factory=list)   # per round: host-speed scale
    job_time: float = 0.0                         # raw seconds spent in jobs

    def run_round(self, round_jobs, runners, tracer=None):
        """Run and check one round; returns its raw job time.

        Garbage left by earlier rounds is collected first, and the host-speed
        calibration runs before each job; neither is timed as job time.
        """
        gc.collect()
        start = len(self.records)
        calibration = []
        round_time = 0.0
        for job in round_jobs:
            calibration.append(hostspeed.calibrate())
            if tracer is not None:
                tracer.job = len(self.records)
            t0 = time.perf_counter()
            try:
                answer = runners[job.kind](job.payload)
                error = None
            except Exception as exc:  # a failed job is counted, not fatal
                answer, error = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if error is None:
                wrong = oracle.mismatches(answer, job.expected)
                if wrong:
                    error = "wrong " + ", ".join(wrong)
            self.records.append((job, dt, error))
            round_time += dt
        f = hostspeed.factor(calibration)
        self.scaled.extend(dt * f for _, dt, _ in self.records[start:])
        self.rates.append(len(round_jobs) / (round_time * f))
        self.raw_rates.append(len(round_jobs) / round_time)
        self.factors.append(f)
        self.job_time += round_time
        return round_time


def input_report(records):
    props = [job.props for job, _, _ in records]
    seen, repeats = set(), 0
    for job, _, _ in records:
        repeats += job.key in seen
        seen.add(job.key)
    n = len(records)
    return {
        "input.repeat_share": (repeats / n, "ratio"),
        "input.dim.mean": (sum(p["dim"] for p in props) / n, "count"),
        "input.dim.max": (max(p["dim"] for p in props), "count"),
        "input.table_nnz.mean": (sum(p["nnz"] for p in props) / n, "count"),
        "input.maxlen.mean": (sum(p["maxlen"] for p in props) / n, "count"),
        "input.coeff_bits.max": (max(p["coeff_bits"] for p in props), "bits"),
    }


def emit(correct, attempted, failed, metrics):
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def report_failures(records):
    failures = [(job, err) for job, _, err in records if err is not None]
    for job, err in failures[:10]:
        print(f"FAILED {job.family}: {err}")
    return len(failures)


def p50_p90(times):
    q = statistics.quantiles(times, n=20, method="inclusive")
    return q[9], q[17]


def run_one(args):
    # set-up is timed in fresh interpreters before this one imports anything
    setup = measure_setup(args.workload, args.seed) if args.trace == 0 else None

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import jobs
    import quivalg

    if not os.path.abspath(quivalg.__file__).startswith(os.path.join(ROOT, "src")):
        raise RuntimeError(f"quivalg imported from {quivalg.__file__}, not this checkout")
    context = gen.prepare(args.workload)
    for job in gen.warmup_jobs(args.workload, context):
        jobs.RUNNERS[job.kind](job.payload)

    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, "
          f"1 process, {args.seconds:g} s of job time")
    if args.trace == 0:
        return run_untraced(args, jobs, context, setup)
    return run_traced(args, jobs, context)


def run_untraced(args, jobs, context, setup):
    """Whole rounds until `--seconds` of job time and MIN_JOBS jobs are done."""
    from spans import assert_clean

    assert_clean()
    phase, rss_mb = Phase(), None
    while phase.job_time < args.seconds or len(phase.records) < MIN_JOBS:
        round_jobs = gen.make_round(args.workload, args.seed, len(phase.rates), context)
        phase.run_round(round_jobs, jobs.RUNNERS)
        if len(phase.rates) == RSS_ROUNDS:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    raw_times = [dt for _, dt, _ in phase.records]
    n = len(raw_times)
    p50, p90 = p50_p90(phase.scaled)
    raw_p50, raw_p90 = p50_p90(raw_times)
    setup_raw = statistics.median(setup)
    setup_s = setup_raw * statistics.median(phase.factors)
    failed = report_failures(phase.records)
    metrics = {
        "jobs_per_s": (statistics.median(phase.rates), "1/s"),
        "job_s.p50": (p50, "s"),
        "job_s.p90": (p90, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }

    def listed(values):
        return ", ".join(f"{v:.3f}" for v in values)

    print("  job times at reference host speed (raw wall times in brackets):")
    print(f"  jobs_per_s   {metrics['jobs_per_s'][0]:.4f} 1/s  median over "
          f"{len(phase.rates)} rounds: {listed(phase.rates)} "
          f"[{statistics.median(phase.raw_rates):.4f}: {listed(phase.raw_rates)}]; n={n}")
    print(f"  job_s.p50    {p50:.4f} s [{raw_p50:.4f}]  n={n}, "
          f"{sum(t > p50 for t in phase.scaled)} above")
    print(f"  job_s.p90    {p90:.4f} s [{raw_p90:.4f}]  n={n}, "
          f"{sum(t > p90 for t in phase.scaled)} above")
    print(f"  fail_share   {failed / n:.4f}      {failed}/{n} jobs failed")
    print(f"  peak_rss_mb  {rss_mb:.1f} MB   ru_maxrss after {RSS_ROUNDS} rounds")
    print(f"  setup_s      {setup_s:.4f} s [{setup_raw:.4f}]  median of {len(setup)} fresh "
          f"interpreters: [{listed(setup)}], scaled by the median round factor "
          f"{statistics.median(phase.factors):.3f}")
    for name, (value, unit) in input_report(phase.records).items():
        print(f"  {name:<22} {value:.4g} {unit}")
    print("  no layer has a queue: time waited is 0 everywhere")
    emit(failed == 0, n, failed, metrics)
    return 0


def run_traced(args, jobs, context):
    """Alternate untraced and traced runs of the same rounds.

    Pairing each traced round with an untraced run of the same inputs just
    before it keeps the host's drift out of trace.overhead_ratio.  The first
    round runs once untimed, so neither side pays first-call costs alone.
    Per-layer times are raw wall times.
    """
    from spans import Tracer, assert_clean

    half = args.seconds / 2
    assert_clean()
    Phase().run_round(gen.make_round(args.workload, args.seed, 0, context), jobs.RUNNERS)
    tracer, gct = Tracer(), GcTimer()
    base, traced, ratios = Phase(), Phase(), []
    while base.job_time < half or traced.job_time < half:
        round_jobs = gen.make_round(args.workload, args.seed, len(ratios), context)
        with gct:
            t_base = base.run_round(round_jobs, jobs.RUNNERS)
        tracer.install()
        try:
            t_traced = traced.run_round(round_jobs, jobs.RUNNERS, tracer)
        finally:
            tracer.remove()
        ratios.append(t_base / t_traced)
    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
    tracer.write(span_file)

    n_base, n_traced = len(base.records), len(traced.records)
    metrics = tracer.metrics(n_traced)
    metrics["runtime.gc_s"] = (gct.seconds / n_base, "s/job")
    metrics["runtime.gc_collections"] = (gct.collections / n_base, "count/job")
    metrics.update(input_report(base.records))
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    records = base.records + traced.records
    failed = report_failures(records)
    print(f"  {len(ratios)} rounds, each run untraced then traced: {n_base} + {n_traced} "
          f"jobs, {len(tracer.spans)} spans written to {span_file}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    print("  no layer has a queue: time waited is 0 everywhere")
    emit(failed == 0, len(records), failed, metrics)
    return 0


def run_all(args):
    """Each workload in its own fresh interpreter; prints a combined result."""
    combined, attempted, failed, correct = {}, 0, 0, True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        for name, m in result["metrics"].items():
            combined[f"{workload}.{name}"] = (m["value"], m["unit"])
    emit(correct, attempted, failed, combined)
    return 0


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "quivalg", "__init__.py")):
        print("bench: src/quivalg not found; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "cli-mix" and not os.path.isdir("samples"):
        print("bench: samples/ not found; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
