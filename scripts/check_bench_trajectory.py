#!/usr/bin/env python
"""Guard the bench trajectory: fresh BENCH_*.json vs a committed baseline.

Every benchmark that gates a performance property writes a
machine-readable ``benchmarks/reports/BENCH_<name>.json``.  Those files
are committed, so ``git show <ref>:<path>`` is the trajectory baseline:
this script re-reads the freshly generated reports in the working tree
and fails if any headline number moved the wrong way by more than
``--min-ratio`` allows: its ratio (fresh over committed for a
higher-is-better number, committed over fresh for a lower-is-better
one) fell below ``--min-ratio``.  Two kinds are tracked:

* dimensionless gains (speedups, gains, scaling factors), higher is
  better, compared on every run;
* absolute measurements on the wall clock, compared only when the
  fresh and committed reports carry equal ``host_cpus``, ``python``
  and ``workload`` stamps: rates (``*_per_s`` keys and
  ``requests_per_second_processed``), higher is better, and durations
  (``*_wall_s`` and ``*_wall_ms`` keys), lower is better.  Plain
  ``*_ms`` keys are not tracked: they also name simulated-clock
  figures and configuration.  On another host or scale an absolute
  number says nothing about the code, so a mismatch prints the key and
  never fails.

Timings of the scalar or reference implementations (``scalar_*``,
``reference_*``) are parity oracles, not products, and are not tracked.

Usage::

    python scripts/check_bench_trajectory.py --min-ratio 0.25   # CI smoke
    python scripts/check_bench_trajectory.py --min-ratio 0.7    # nightly

CI smoke runs regenerate the reports at shrink scale while the
committed baselines are full-scale, so the workload stamps differ; the
ratios of dimensionless gains are still comparable, which is why the CI
tolerance is generous (catching collapses, not noise) and the nightly
full-scale tolerance is tight.  A fresh report with no committed
counterpart (a brand-new bench) is reported and skipped.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

#: Top-level keys treated as trajectory numbers.
_TRACKED = re.compile(
    r"^(speedup|scaling|gain|.*_gain|capacity_gain_.*)$"
    r"|_per_s$|^requests_per_second_processed$|_wall_m?s$"
)
#: Absolute wall-clock numbers among them: compared only on a matching
#: fingerprint.
_ABSOLUTE = re.compile(r"_per_s$|^requests_per_second_processed$|_wall_m?s$")
#: Durations among them: lower is better.
_LOWER_IS_BETTER = re.compile(r"_wall_m?s$")
#: Keys that merely configure a gate (floors/limits) or time a
#: reference implementation, never tracked.
_EXCLUDED = re.compile(r"(_floor|_enforced)$|^min_|^max_|^scalar_|^reference_")
#: Stamps that must be present and equal before absolute rates compare.
_FINGERPRINT = ("host_cpus", "python", "workload")


def tracked_keys(document: dict) -> dict[str, float]:
    """Tracked numeric headline keys of one BENCH document."""
    out = {}
    for key, value in document.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if _TRACKED.search(key) and not _EXCLUDED.search(key):
            out[key] = float(value)
    return out


def same_fingerprint(fresh: dict, baseline: dict) -> bool:
    """Both reports carry equal host, Python and workload stamps."""
    return all(
        fresh.get(key) is not None and fresh.get(key) == baseline.get(key)
        for key in _FINGERPRINT
    )


def baseline_document(repo: Path, ref: str, relpath: str) -> dict | None:
    """The committed version of one report, or None if it is new."""
    proc = subprocess.run(
        ["git", "show", f"{ref}:{relpath}"],
        cwd=repo, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        return None
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        return None


def compare(fresh: dict, baseline: dict, min_ratio: float) -> list[dict]:
    """Per-key diff rows for one bench; ``ok=False`` marks a regression.

    ``ratio`` is oriented so that above 1 is an improvement: fresh over
    committed, or committed over fresh for a lower-is-better duration.
    An absolute number under a differing fingerprint gets a row marked
    ``"fingerprint": "differs"`` that is always ``ok``.
    """
    rows = []
    base_keys = tracked_keys(baseline)
    comparable = same_fingerprint(fresh, baseline)
    for key, current in tracked_keys(fresh).items():
        if key not in base_keys:
            rows.append(
                {"key": key, "current": current, "base": None, "ok": True}
            )
            continue
        base = base_keys[key]
        num, den = (
            (base, current) if _LOWER_IS_BETTER.search(key) else (current, base)
        )
        ratio = num / den if den > 0 else float("inf")
        row = {
            "key": key,
            "current": current,
            "base": base,
            "ratio": ratio,
            "ok": ratio >= min_ratio,
        }
        if _ABSOLUTE.search(key) and not comparable:
            row.update(ok=True, fingerprint="differs")
        rows.append(row)
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail if fresh bench headline numbers regressed vs git"
    )
    parser.add_argument(
        "--reports-dir", default="benchmarks/reports",
        help="directory holding the fresh BENCH_*.json files",
    )
    parser.add_argument(
        "--baseline-ref", default="HEAD",
        help="git ref providing the committed baselines (default: HEAD)",
    )
    parser.add_argument(
        "--min-ratio", type=float, default=0.5,
        help="fail when current/baseline falls below this (default: 0.5)",
    )
    parser.add_argument(
        "benches", nargs="*", metavar="NAME",
        help="bench names to check (default: every fresh BENCH_*.json)",
    )
    args = parser.parse_args(argv)
    if args.min_ratio <= 0:
        print("error: --min-ratio must be > 0", file=sys.stderr)
        return 2
    reports = Path(args.reports_dir)
    if not reports.is_dir():
        print(f"error: no reports directory at {reports}", file=sys.stderr)
        return 2
    if args.benches:
        paths = [reports / f"BENCH_{name}.json" for name in args.benches]
        missing = [p for p in paths if not p.is_file()]
        if missing:
            print(
                f"error: no fresh report at "
                f"{', '.join(str(p) for p in missing)}",
                file=sys.stderr,
            )
            return 2
    else:
        paths = sorted(reports.glob("BENCH_*.json"))
    if not paths:
        print(f"error: no BENCH_*.json under {reports}", file=sys.stderr)
        return 2

    repo = Path.cwd()
    regressions = 0
    compared = 0
    header = (
        f"{'bench':<24} {'key':<24} {'baseline':>12} "
        f"{'current':>12} {'ratio':>7}  status"
    )
    print(header)
    print("-" * len(header))
    for path in paths:
        fresh = json.loads(path.read_text())
        bench = fresh.get("bench", path.stem.removeprefix("BENCH_"))
        relpath = path.as_posix()
        baseline = baseline_document(repo, args.baseline_ref, relpath)
        if baseline is None:
            print(f"{bench:<24} {'-':<24} {'(new bench)':>12} "
                  f"{'-':>12} {'-':>7}  skipped")
            continue
        rows = compare(fresh, baseline, args.min_ratio)
        if not rows:
            print(f"{bench:<24} {'-':<24} {'(no tracked keys)':>12} "
                  f"{'-':>12} {'-':>7}  skipped")
            continue
        mismatch = fresh.get("workload") != baseline.get("workload")
        for row in rows:
            if row["base"] is None:
                print(f"{bench:<24} {row['key']:<24} {'(new key)':>12} "
                      f"{row['current']:>12.3f} {'-':>7}  skipped")
                continue
            if "fingerprint" in row:
                print(f"{bench:<24} {row['key']:<24} {row['base']:>12.3f} "
                      f"{row['current']:>12.3f} {row['ratio']:>7.2f}  "
                      f"reported [host/python/workload differs]")
                continue
            compared += 1
            status = "ok" if row["ok"] else "REGRESSION"
            if not row["ok"]:
                regressions += 1
            note = " [workload differs]" if mismatch else ""
            print(
                f"{bench:<24} {row['key']:<24} {row['base']:>12.3f} "
                f"{row['current']:>12.3f} {row['ratio']:>7.2f}  "
                f"{status}{note}"
            )
    print()
    if regressions:
        print(
            f"{regressions} of {compared} tracked bench numbers fell below "
            f"{args.min_ratio:g}x their committed baseline",
            file=sys.stderr,
        )
        return 1
    print(
        f"bench trajectory OK: {compared} tracked numbers at >= "
        f"{args.min_ratio:g}x their committed baseline"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
