"""Tests for repo tooling scripts (bench trajectory guard)."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).parent.parent / "scripts" / "check_bench_trajectory.py"


@pytest.fixture(scope="module")
def guard():
    spec = importlib.util.spec_from_file_location("bench_trajectory", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTrackedKeys:
    def test_matches_headline_gain_keys(self, guard):
        doc = {
            "speedup": 12.0,
            "scaling": 0.9,
            "gain": 2.5,
            "goodput_gain": 5.0,
            "imbalance_gain": 3.1,
            "capacity_gain_fp16": 2.0,
        }
        assert guard.tracked_keys(doc) == doc

    def test_skips_floors_configs_and_nonnumerics(self, guard):
        doc = {
            "speedup": 12.0,
            "speedup_floor": 10.0,
            "min_capacity_gain": 1.8,
            "max_auc_delta": 0.02,
            "imbalance_gain_floor": 2.0,
            "scaling_enforced": True,
            "scalar_plans_per_s": 3.0,
            "parity": "exact",
            "workload": {"gpus": 16},
            "scalar_wall_s": 2.0,
            "reference_wall_s": 1.0,
            "fail_ms": 5.0,
            "max_recovery_ms": 10.0,
        }
        assert guard.tracked_keys(doc) == {"speedup": 12.0}


class TestCompare:
    def test_ok_above_ratio(self, guard):
        rows = guard.compare({"speedup": 9.0}, {"speedup": 10.0}, 0.5)
        assert rows == [
            {
                "key": "speedup",
                "current": 9.0,
                "base": 10.0,
                "ratio": 0.9,
                "ok": True,
            }
        ]

    def test_flags_regression_below_ratio(self, guard):
        rows = guard.compare({"speedup": 2.0}, {"speedup": 10.0}, 0.5)
        assert rows[0]["ok"] is False

    def test_new_key_is_skipped_not_failed(self, guard):
        rows = guard.compare({"gain": 2.0}, {"speedup": 10.0}, 0.5)
        assert rows == [
            {"key": "gain", "current": 2.0, "base": None, "ok": True}
        ]


_STAMPS = {"host_cpus": 2, "python": "3.11.7", "workload": {"gpus": 16}}


class TestAbsoluteRates:
    def test_per_s_keys_are_tracked(self, guard):
        doc = {
            "fast_plans_per_s": 50.0,
            "scalar_plans_per_s": 3.0,
            **_STAMPS,
        }
        assert guard.tracked_keys(doc) == {"fast_plans_per_s": 50.0}

    def test_wall_and_processed_rate_keys_are_tracked(self, guard):
        doc = {
            "fast_wall_s": 0.1,
            "replan_build_wall_ms": 170.0,
            "requests_per_second_processed": 25000.0,
            "p99_ms": 1.7,
            **_STAMPS,
        }
        assert guard.tracked_keys(doc) == {
            "fast_wall_s": 0.1,
            "replan_build_wall_ms": 170.0,
            "requests_per_second_processed": 25000.0,
        }

    @pytest.mark.parametrize("key", ["fast_wall_s", "replan_build_wall_ms"])
    def test_wall_time_is_lower_is_better(self, guard, key):
        slower = guard.compare({key: 4.0, **_STAMPS}, {key: 1.0, **_STAMPS}, 0.5)
        assert slower[0]["ratio"] == 0.25 and slower[0]["ok"] is False
        faster = guard.compare({key: 1.0, **_STAMPS}, {key: 4.0, **_STAMPS}, 0.5)
        assert faster[0]["ratio"] == 4.0 and faster[0]["ok"] is True

    @pytest.mark.parametrize(
        "key, fresh, base",
        [
            ("fast_wall_s", 4.0, 1.0),
            ("requests_per_second_processed", 1000.0, 25000.0),
        ],
    )
    def test_wall_and_processed_rate_need_matching_fingerprints(
        self, guard, key, fresh, base
    ):
        same = guard.compare({key: fresh, **_STAMPS}, {key: base, **_STAMPS}, 0.5)
        assert same[0]["ok"] is False
        other = guard.compare(
            {key: fresh, **_STAMPS, "host_cpus": 8}, {key: base, **_STAMPS}, 0.5
        )
        assert other[0]["ok"] is True
        assert other[0]["fingerprint"] == "differs"

    def test_drop_fails_when_fingerprints_match(self, guard):
        rows = guard.compare(
            {"fast_plans_per_s": 20.0, **_STAMPS},
            {"fast_plans_per_s": 50.0, **_STAMPS},
            0.5,
        )
        assert rows[0]["ok"] is False
        assert "fingerprint" not in rows[0]

    @pytest.mark.parametrize(
        "stamp, value",
        [
            ("host_cpus", 8),
            ("python", "3.12.1"),
            ("workload", {"gpus": 2}),
            ("host_cpus", None),
        ],
    )
    def test_drop_only_reported_when_fingerprints_differ(self, guard, stamp, value):
        fresh = {"fast_plans_per_s": 20.0, **_STAMPS, stamp: value}
        rows = guard.compare(fresh, {"fast_plans_per_s": 50.0, **_STAMPS}, 0.5)
        assert rows[0]["ok"] is True
        assert rows[0]["fingerprint"] == "differs"

    def test_gains_still_compare_across_fingerprints(self, guard):
        rows = guard.compare(
            {"speedup": 1.0, **_STAMPS, "host_cpus": 8},
            {"speedup": 10.0, **_STAMPS},
            0.5,
        )
        assert rows[0]["ok"] is False


class TestEndToEnd:
    def run(self, repo, *extra):
        return subprocess.run(
            [sys.executable, str(_SCRIPT), *extra],
            cwd=repo, capture_output=True, text=True,
        )

    @pytest.fixture
    def repo(self, tmp_path):
        reports = tmp_path / "benchmarks" / "reports"
        reports.mkdir(parents=True)
        payload = {"bench": "demo", "speedup": 10.0, "workload": {"gpus": 2}}
        (reports / "BENCH_demo.json").write_text(json.dumps(payload))
        env_git = ["git", "-C", str(tmp_path)]
        subprocess.run(env_git + ["init", "-q"], check=True)
        subprocess.run(env_git + ["add", "-A"], check=True)
        subprocess.run(
            env_git
            + ["-c", "user.email=t@t", "-c", "user.name=t",
               "commit", "-q", "-m", "baseline"],
            check=True,
        )
        return tmp_path

    def test_unchanged_reports_pass(self, repo):
        proc = self.run(repo, "--min-ratio", "0.5")
        assert proc.returncode == 0, proc.stderr
        assert "bench trajectory OK" in proc.stdout

    def test_regression_fails_with_diff_row(self, repo):
        path = repo / "benchmarks" / "reports" / "BENCH_demo.json"
        doc = json.loads(path.read_text())
        doc["speedup"] = 1.0
        path.write_text(json.dumps(doc))
        proc = self.run(repo, "--min-ratio", "0.5")
        assert proc.returncode == 1
        assert "REGRESSION" in proc.stdout
        assert "fell below" in proc.stderr

    def test_new_bench_is_skipped(self, repo):
        extra = repo / "benchmarks" / "reports" / "BENCH_new.json"
        extra.write_text(json.dumps({"bench": "new", "speedup": 3.0}))
        proc = self.run(repo, "--min-ratio", "0.5")
        assert proc.returncode == 0, proc.stderr
        assert "(new bench)" in proc.stdout

    def test_named_bench_selection_and_missing(self, repo):
        proc = self.run(repo, "demo")
        assert proc.returncode == 0
        proc = self.run(repo, "nosuch")
        assert proc.returncode == 2
        assert "no fresh report" in proc.stderr

    def _rate_repo(self, repo, fresh_cpus):
        path = repo / "benchmarks" / "reports" / "BENCH_rate.json"
        committed = {"bench": "rate", "fast_plans_per_s": 50.0, **_STAMPS}
        path.write_text(json.dumps(committed))
        git = ["git", "-C", str(repo)]
        subprocess.run(git + ["add", "-A"], check=True)
        identity = ["-c", "user.email=t@t", "-c", "user.name=t"]
        subprocess.run(git + identity + ["commit", "-q", "-m", "rate"], check=True)
        fresh = {**committed, "fast_plans_per_s": 10.0, "host_cpus": fresh_cpus}
        path.write_text(json.dumps(fresh))

    def test_rate_drop_on_same_host_fails(self, repo):
        self._rate_repo(repo, fresh_cpus=_STAMPS["host_cpus"])
        proc = self.run(repo, "--min-ratio", "0.5", "rate")
        assert proc.returncode == 1
        assert "REGRESSION" in proc.stdout

    def test_rate_drop_on_other_host_is_reported(self, repo):
        self._rate_repo(repo, fresh_cpus=64)
        proc = self.run(repo, "--min-ratio", "0.5", "rate")
        assert proc.returncode == 0, proc.stderr
        assert "fast_plans_per_s" in proc.stdout
        assert "differs" in proc.stdout

    def test_rejects_nonpositive_ratio(self, repo):
        proc = self.run(repo, "--min-ratio", "0")
        assert proc.returncode == 2
