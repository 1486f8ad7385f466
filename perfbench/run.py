#!/usr/bin/env python3
"""threeweight benchmark.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

Runs one workload (catalog, codes, enumeration, curve) in this process as a
closed loop with one client: rounds of the workload's jobs back to back
until --seconds have passed, every output checked.  With --trace 0 the
last stdout line carries the end-to-end metrics; with --trace 1 it carries
the per-layer metrics of a traced run (see bench_trace).  The line before
it is the full record, also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import bench_trace
from bench_workloads import ROOT, SRC, WORKLOADS, Tally, comparable, load_program, run_op

OUT = Path(__file__).resolve().parent / "out"
# set-up is repeated and its median reported, so one slow import is not the figure
SETUP_REPEATS = 7
# Timings are scaled by a probe sampled while they run (SpeedMeter): the host
# is shared and its speed swings by up to 2x within seconds, which would
# otherwise swamp any change worth measuring.  PROBE_REF_S is about the
# probe's time on a 2-core x86-64 host with Python 3.11, so scaled times
# read as seconds there.
PROBE_ITERATIONS = 1500
PROBE_WORD_ITERATIONS = 600
PROBE_WORD = (1 << 200) - 12345
PROBE_INTERVAL_S = 0.02
PROBE_REF_S = 0.0003
END_TO_END_UNITS = {"job1_s": "s", "job2_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def git_sha() -> str | None:
    """HEAD of the checkout from .git, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail(samples: list[float]) -> dict:
    """Median and the highest listed percentile with at least ten samples
    beyond it."""
    xs = sorted(samples)
    n = len(xs)
    out = {"samples": n, "median_s": statistics.median(xs)}
    for p in (99.9, 99, 95, 90, 50):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            out[f"p{p:g}_s"] = xs[rank - 1]
            break
    return out


def probe(words: bool = False) -> float:
    """Seconds for a fixed piece of interpreter work, the yardstick for the
    machine's current speed: small-integer arithmetic and tuple and dict
    traffic, or with words=True also XOR and popcount on multi-word
    integers, closer to Fraction arithmetic and GF(2) enumeration.
    Contention on the host slows the two mixes by different factors, so
    each workload is scaled by the one closer to its own work."""
    start = time.perf_counter()
    acc = 0
    table = {}
    if words:
        word = PROBE_WORD
        weight = 0
        for i in range(PROBE_WORD_ITERATIONS):
            acc = (acc * 31 + i) % 1000003
            word ^= word >> 3
            weight += word.bit_count()
            table[i & 63] = (acc, weight)
    else:
        for i in range(PROBE_ITERATIONS):
            acc = (acc * 31 + i) % 1000003
            table[i & 63] = (acc, i)
    return time.perf_counter() - start


class SpeedMeter:
    """Samples the machine's speed while a timed block runs.

    On entry and exit, and every PROBE_INTERVAL_S in between (SIGALRM
    from an interval timer), it runs the probe.  scale() turns the block's
    seconds into seconds at PROBE_REF_S per probe, net of the probes that
    ran inside the block."""

    def __init__(self, words: bool = False):
        self.words = words

    def __enter__(self) -> "SpeedMeter":
        self.samples = [probe(self.words)]
        self.spent = 0.0
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.samples.append(probe(self.words))

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(probe(self.words))
        self.spent += time.perf_counter() - start

    def scale(self, seconds: float) -> float:
        return (seconds - self.spent) * PROBE_REF_S / statistics.fmean(self.samples)


def one_round(ops, tally: Tally, tracer=None, words: bool = False) -> tuple[dict, list]:
    """Run ops once: ({(job, label): (seconds, scaled seconds)}, outputs).

    The untraced run meters every operation; the traced run does not, so
    its rounds time only the program and the tracer."""
    gc.collect()
    times: dict[tuple[str, str], tuple[float, float]] = {}
    outputs = []
    for op in ops:
        if tracer is None:
            meter = SpeedMeter(words)
            elapsed, out = run_op(op, tally, meter)
            times[(op.job, op.label)] = (elapsed - meter.spent, meter.scale(elapsed))
        else:
            tracer.job = f"{op.job}:{op.label}"
            elapsed, out = run_op(op, tally)
            times[(op.job, op.label)] = (elapsed, elapsed)
        outputs.append(out)
    return times, outputs


def measure(workload, state, seconds: int, rng: random.Random, tally: Tally) -> tuple[dict, dict]:
    """Rounds until the time is up.  A job's time is the sum over its
    operations of each operation's median scaled time over the rounds."""
    samples: dict[tuple[str, str], list[tuple[float, float]]] = {}
    rounds = 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        times, _ = one_round(workload.round_ops(state, rng), tally, words=workload.probe_words)
        rounds += 1
        for key, pair in times.items():
            samples.setdefault(key, []).append(pair)

    def job_time(jobs, scaled=True):
        return sum(
            statistics.median(s if scaled else t for t, s in pairs)
            for (job, _), pairs in samples.items()
            if job in jobs
        )

    per_job: dict[str, list[float]] = {}
    for (job, _), pairs in samples.items():
        per_job.setdefault(job, []).extend(t for t, _ in pairs)
    record = {
        "rounds": rounds,
        "repeats": {job: len(xs) for job, xs in per_job.items()},
        "jobs": {
            metric: {"value": job_time((job,)), "unit": "s", "samples": rounds}
            for metric, job in workload.named.items()
        },
        "raw_jobs": {
            metric: job_time((job,), scaled=False) for metric, job in workload.named.items()
        },
        "op_latency": {job: tail(xs) for job, xs in per_job.items()},
    }
    metrics = {"job1_s": job_time(workload.job1), "job2_s": job_time(workload.job2)}
    return metrics, record


def traced(
    workload, state, seconds: int, seed: int, rng: random.Random, tally: Tally
) -> tuple[dict, dict]:
    """Untraced and traced rounds of the same operations, alternating until
    the time is up (at least two of each, so the counts can be compared).
    trace.overhead_s is the median of traced minus the untraced round just
    before it; pairing adjacent rounds keeps the host's drift out of it."""
    ops = workload.round_ops(state, rng)
    tracer = bench_trace.Tracer()
    base_outputs = None
    rounds = []
    problems = []
    start = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - start < seconds:
        round_start = time.perf_counter()
        _, outputs = one_round(ops, tally, tracer)
        untraced_wall = time.perf_counter() - round_start
        if base_outputs is None:
            base_outputs = [comparable(o) for o in outputs]
        tracer.reset()
        tracer.install()
        try:
            round_start = time.perf_counter()
            _, outputs = one_round(ops, tally, tracer)
            wall = time.perf_counter() - round_start
        finally:
            still_wrapped = tracer.restore()
        if still_wrapped:
            problems.append(f"not restored: {still_wrapped}")
        rounds.append({
            "wall": wall,
            "untraced_wall": untraced_wall,
            "same_outputs": [comparable(o) for o in outputs] == base_outputs,
            "counts": tracer.call_counts(),
            "roots": {name: tracer.root_calls(name) for name in workload.direct_calls(state)},
            "metrics": tracer.per_layer_metrics(wall - untraced_wall),
        })
        if len(rounds) == 1:
            first_aggregate, first_spans = tracer.aggregate_rows(), list(tracer.spans)
    if not all(r["same_outputs"] for r in rounds):
        problems.append("traced outputs differ from the untraced outputs")
    if any(r["counts"] != rounds[0]["counts"] for r in rounds):
        problems.append("traced call counts differ between rounds")
    for name, calls in workload.direct_calls(state).items():
        seen = {r["roots"][name] for r in rounds}
        if seen != {calls}:
            problems.append(f"{name}: traced {sorted(seen)} direct calls, issued {calls}")
    if tracer.hook_errors:
        problems.append(f"hook errors: {tracer.hook_errors[:5]}")

    metrics = {
        name: (statistics.median_low if unit == "count" else statistics.median)(
            r["metrics"][name] for r in rounds
        )
        for name, unit in bench_trace.PER_LAYER.items()
    }
    count_checks = {
        name: {"expected": want, "traced": metrics[name], "match": metrics[name] == want}
        for name, want in workload.expected_counts(state).items()
    }
    for name, check in count_checks.items():
        if not check["match"]:
            print(f"note: {name} traced {check['traced']}, computed {check['expected']}",
                  file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload.name}-seed{seed}.json"
    trace_file.write_text(json.dumps({
        "aggregate": first_aggregate,
        "spans": [dict(zip(("name", "start", "end", "parent", "job"), s)) for s in first_spans],
    }))
    record = {
        "traced_rounds": len(rounds),
        "untraced_round_s": [r["untraced_wall"] for r in rounds],
        "traced_round_s": [r["wall"] for r in rounds],
        "missing_targets": tracer.missing,
        "count_checks": count_checks,
        "tracer_problems": problems,
        "trace_file": str(trace_file.relative_to(ROOT)),
    }
    return metrics, record


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "threeweight" / "__init__.py").is_file():
        print(f"error: no threeweight sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "loadavg_before": os.getloadavg(),
    }
    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            with SpeedMeter() as meter:
                start = time.perf_counter()
                prog = load_program(fresh=True)
                state = workload.setup(prog, args.seed)
                elapsed = time.perf_counter() - start
            setup_times.append(meter.scale(elapsed))
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    tally = Tally()
    if args.trace:
        metrics, detail = traced(workload, state, args.seconds, args.seed, rng, tally)
        units = bench_trace.PER_LAYER
    else:
        metrics, detail = measure(workload, state, args.seconds, rng, tally)
        units = END_TO_END_UNITS
    for op in workload.final_ops(state):
        run_op(op, tally)
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    correct = tally.failed == 0 and not detail.get("tracer_problems")
    record.update(detail)
    record.update({
        "setup_s": setup_times,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_frac": tally.failed / tally.attempted,
        "failures": tally.failures,
        "loadavg_after": os.getloadavg(),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    })
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
