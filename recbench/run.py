#!/usr/bin/env python3
"""Benchmark of the RecShard reproduction: planner and serving, on both
the simulated serving clock and the wall clock.

Run from the repository root::

    python3 recbench/run.py --workload serve_replay --seed 3 --seconds 12 --trace 0

Prints human-readable lines, then one JSON object as the last line of
standard output: ``{"correct", "attempted", "failed", "metrics"}`` —
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
separate traced run with ``--trace 1``.  ``--repeat N`` runs each
workload N times in fresh processes (seeds ``seed .. seed+N-1``) and
prints each metric's median and quartiles.  Exit status: 0 when every
correctness check passed, 1 when one failed, 2 when the checkout holds
no library.  See README.md.
"""

import os

# One BLAS/OpenMP thread per process, pinned before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("plan_sweep", "serve_stream", "serve_replay")
#: An untraced run sets up at least 3 and at most 40 times, until the
#: set-ups took 4 s; ``setup_s`` is their median, so a set-up of a
#: tenth of a second is not read from a handful of samples, nor from a
#: window shorter than the host's slow spells of a second or two.
SETUP_REPEATS = (3, 40)
SETUP_SECONDS = 4.0
#: fewest timed rounds per phase, however long they take
MIN_ROUNDS = 3


def load_library() -> None:
    """Put the checkout's own ``repro`` first on the path, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: {SRC}/repro not found; run from a full checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)


def fingerprint(args, workers: int) -> dict:
    """What a later run must match to be compared like with like."""
    import numpy

    from workloads import CPUS, pool_workers

    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": "toy" if args.toy else "rm2 397 features, 16 GPUs, "
                                         "paper_scales",
        "nproc": len(CPUS),
        "pool_cap": pool_workers(),
        "workers": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def measure(workload, seconds: float, tracer=None):
    """Timed rounds until ``seconds`` of round time.

    Returns the work one round does and, per round, the wall time of
    each of its segments: a workload marks segment boundaries inside a
    round, at points every round passes in the same order.  With a
    tracer, each round (and only the round, not its untimed checks and
    resets) runs traced.
    """
    from spans import installed, maybe_span

    hooks = (lambda: installed(tracer)) if tracer else contextlib.nullcontext
    rounds, elapsed, work = [], 0.0, 0
    workload.tracer = tracer
    while len(rounds) < MIN_ROUNDS or elapsed < seconds:
        workload.marks = []
        with hooks(), maybe_span(tracer, "bench.round"):
            start = time.perf_counter()
            work = workload.round()
            end = time.perf_counter()
        bounds = [start, *workload.marks, end]
        rounds.append([b - a for a, b in zip(bounds, bounds[1:])])
        if len(rounds[-1]) != len(rounds[0]):
            workload.fail("a round marked a different number of segments")
        elapsed += end - start
        workload.check_round()
    workload.tracer = None
    return work, rounds


def fast_rate(work: int, rounds: list) -> float:
    """Work per second of the fast end of the round time.

    Every round repeats identical work, and interference from the rest
    of the host only ever slows it, so the fast end is the steadiest
    estimate of what the code costs.  It is taken per segment: the 10th
    percentile of each segment's times over the rounds, summed, so that
    a host slowdown of a second or two costs a long round only the
    segments it overlapped.
    """
    fast = sum(
        statistics.quantiles(times, n=10, method="inclusive")[0]
        for times in zip(*rounds)
    )
    return work / fast


def round_rates(work: int, rounds: list) -> list:
    return [work / sum(segments) for segments in rounds]


def peak_rss_mb() -> float:
    """Peak RSS of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_once(args):
    """One run: returns (correct, attempted, failed, metrics, notes)."""
    from spans import Tracer, installed, layer_metrics, maybe_span
    from workloads import FULL, TOY, WORKLOADS

    scale = TOY if args.toy else FULL
    tracer = Tracer() if args.trace else None
    hooks = (lambda: installed(tracer)) if tracer else contextlib.nullcontext
    setups, timed, traced, figures = [], None, None, None
    workload = None
    notes = {}
    try:
        # A traced run sets up once, traced; an untraced one several
        # times, keeping the last.
        fewest, most = (1, 1) if tracer else SETUP_REPEATS
        while len(setups) < fewest or (
            len(setups) < most and sum(setups) < SETUP_SECONDS
        ):
            workload = None
            gc.collect()
            workload = WORKLOADS[args.workload](scale, args.seed)
            workload.tracer = tracer
            with hooks(), maybe_span(tracer, "bench.setup"):
                start = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - start)
            workload.tracer = None
        workload.warmup()
        # A traced run splits its time between an untraced and a traced
        # phase, so that it takes no longer than an untraced run.
        phase = args.seconds / 2 if tracer else args.seconds
        timed = measure(workload, phase)
        if tracer:
            traced = measure(workload, phase, tracer)
        with hooks(), maybe_span(tracer, "bench.finish"):
            figures = workload.finish()
    except Exception:  # reported as a failed run, never swallowed
        traceback.print_exc()
        if workload is None:
            return False, 1, 1, {}, {"errors": ["set-up raised"]}
        workload.fail("the run raised an exception")
    notes["errors"] = workload.errors
    notes["workers"] = workload.workers
    notes["figures"] = figures
    attempted = max(workload.attempted, 1)
    failed = workload.failed
    correct = failed == 0 and figures is not None
    metrics = {}
    if tracer and traced:
        metrics = layer_metrics(tracer.spans)
        metrics["trace.overhead_fraction"] = (
            1.0 - fast_rate(*traced) / fast_rate(*timed),
            "fraction",
        )
        notes["tracer"] = tracer
    elif not tracer and figures is not None:
        metrics = {
            "throughput_per_s": (fast_rate(*timed), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "success_fraction": (1.0 - failed / attempted, "fraction"),
            "sim_qps": (figures["sim_qps"], "1/s"),
            "load_imbalance": (figures["load_imbalance"], "ratio"),
            "slow_tier_fraction": (figures["slow_tier_fraction"],
                                   "fraction"),
        }
        notes["rates"] = round_rates(*timed)
        notes["segments"] = timed[1]
    return correct, attempted, failed, metrics, notes


def report(args, correct, attempted, failed, metrics, notes) -> None:
    """Human-readable lines, the output files, and the JSON last line."""
    fp = fingerprint(args, notes.get("workers", 0))
    print(f"fingerprint: {json.dumps(fp, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    figures = notes.get("figures") or {}
    if "sim_p99_ms" in figures:
        print(f"{args.workload} simulated latency over "
              f"{figures['sim_requests']} served requests: p50 "
              f"{figures['sim_p50_ms']:.6g} ms, p99 "
              f"{figures['sim_p99_ms']:.6g} ms; goodput_fraction "
              f"{figures['goodput_fraction']:.6g}, shed "
              f"{figures['shed_requests']}, replans {figures['replans']}")
    if "plan_makespan_ms" in figures:
        print(f"{args.workload} mean plan makespan "
              f"{figures['plan_makespan_ms']:.6g} ms (simulated)")
    if "rates" in notes:
        rates = notes["rates"]
        print(f"{args.workload} {len(rates)} timed rounds, "
              f"{min(rates):.6g}..{max(rates):.6g} per s, median "
              f"{statistics.median(rates):.6g}")
    for error in notes.get("errors", []):
        print(f"check failed: {error}")
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(
        args.out, f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    with open(stem + ".json", "w") as fh:
        json.dump({"fingerprint": fp, "figures": figures,
                   "round_rates": notes.get("rates"),
                   "round_segments_s": notes.get("segments"), **result}, fh,
                  indent=2, sort_keys=True)
    if "tracer" in notes:
        notes["tracer"].write(stem + ".spans.jsonl")
        print(f"spans written to {stem}.spans.jsonl")
    print(json.dumps(result))


def repeat(args) -> int:
    """Run each workload ``args.repeat`` times; print medians, quartiles,
    and the spread (interquartile range over median) against the bound
    BENCHMARK.json fixes."""
    bounds = {}
    spec = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec):
        with open(spec) as fh:
            bounds = {m["name"]: m.get("bound")
                      for m in json.load(fh)["end_to_end"]}
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        runs = []
        for i in range(args.repeat):
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed + i),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", args.out,
            ] + (["--toy"] if args.toy else [])
            proc = subprocess.run(command, capture_output=True, text=True,
                                  timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {args.seed + i}: exit "
                      f"{proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            runs.append(json.loads(lines[-1]))
        with open(os.path.join(args.out, f"repeat-{name}.json"), "w") as fh:
            json.dump(runs, fh, indent=2)
        if len(runs) < 2:
            continue
        print(f"{name}: {len(runs)} runs, seeds {args.seed}.."
              f"{args.seed + args.repeat - 1}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(metric)
            verdict = ""
            if bound is not None:
                verdict = f" bound {bound:g} " + (
                    "ok" if spread < bound / 3 else "WIDE"
                )
            print(f"  {metric:34s} median {median:.6g} q1 {q1:.6g} "
                  f"q3 {q3:.6g} spread {spread:.4f}{verdict}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: every input derives from it")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="timed round time of a run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: a traced run reporting per-layer metrics")
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N times in fresh processes and summarise")
    parser.add_argument("--toy", action="store_true",
                        help="toy-scale world (the benchmark's own tests)")
    parser.add_argument("--out", default=os.path.join(HERE, "out"),
                        help="directory for result and span files")
    args = parser.parse_args(argv)
    load_library()
    if args.repeat:
        return repeat(args)
    if args.workload == "all":
        parser.error("--workload all needs --repeat")
    correct, attempted, failed, metrics, notes = run_once(args)
    report(args, correct, attempted, failed, metrics, notes)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
