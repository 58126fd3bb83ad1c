#!/usr/bin/env python3
"""Self-test of the benchmark harness (about a minute):

    python3 perfbench/selftest.py

Runs every workload at its tiny size, traced and untraced, and checks that
each metric BENCHMARK.json names is emitted with its unit; then feeds each
output checker a result perturbed by 10% and checks that it fails.
"""

from __future__ import annotations

import csv
import io
import json
import math
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def scaled(text: str, keys: set[str], factor: float = 1.1) -> str:
    """A moment or summary JSON with the named numeric fields scaled."""
    def scale(v):
        return [x * factor for x in v] if isinstance(v, list) else v * factor

    def walk(obj):
        if isinstance(obj, dict):
            return {k: (scale(v) if k in keys else walk(v)) for k, v in obj.items()}
        if isinstance(obj, list):
            return [walk(v) for v in obj]
        return obj

    return json.dumps(walk(json.loads(text)))


class TinyRuns(unittest.TestCase):
    def test_benchmark_json_matches_harness(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END
        )
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], layers.METRICS)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))

    def test_every_metric_emitted_with_unit(self):
        for workload in WORKLOADS:
            for trace, expected in ((0, run.END_TO_END), (1, layers.METRICS)):
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, str(HERE / "run.py"), "--workload", workload,
                         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny"],
                        cwd=ROOT, capture_output=True, text=True, timeout=170,
                    )
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = [(k, v["unit"]) for k, v in result["metrics"].items()]
                    self.assertEqual(got, expected)
                    for v in result["metrics"].values():
                        self.assertTrue(math.isfinite(v["value"]))
                    if workload != "moment-mc":  # 2e4 samples cannot meet the K=2 error gate
                        self.assertTrue(result["correct"], proc.stdout)


class PerturbedOutputsFail(unittest.TestCase):
    def moment_text(self, K: float, ratio: float, rse: float) -> str:
        value = ratio * math.gamma(K + 1.0)
        return json.dumps([{
            "K": K, "value": value, "std_error": rse * value, "gamma_ratio": ratio,
            "target_ratio": checks.TARGET_RATIO, "rejections": 3,
        }])

    def test_moment(self):
        k2 = self.moment_text(2.0, checks.EXACT_M2 / 2.0, 1.4e-3)
        k20 = self.moment_text(20.0, 0.5669, 4e-4)
        self.assertIsNone(checks.check_moment(k2, 2.0, 500_000))
        self.assertIsNone(checks.check_moment(k20, 20.0, 500_000))
        for keys in ({"value"}, {"gamma_ratio"}, {"value", "gamma_ratio", "std_error"}):
            with self.subTest(keys=keys):
                self.assertIsNotNone(checks.check_moment(scaled(k2, keys), 2.0, 500_000))
                self.assertIsNotNone(checks.check_moment(scaled(k20, keys), 20.0, 500_000))
        self.assertIsNotNone(checks.check_moment("not json", 2.0, 500_000))

    def test_pointwise_pair(self):
        from wiltonmoments.cf_dynamics import ToleranceConfig
        from wiltonmoments.special_fn import g_func

        cfg = ToleranceConfig(abs_tol=1e-5)
        x = 0.3183098861837907
        a, b = (g_func(p, "wilton_plus_H", cfg) for p in (x, 1.0 - x))
        gx, gy = (a.value, a.est_error), (b.value, b.est_error)
        self.assertIsNone(checks.check_pair(gx, gy))
        self.assertIsNotNone(checks.check_pair((1.1 * gx[0], gx[1]), gy))
        self.assertIsNotNone(checks.check_pair(gx, (1.1 * gy[0], gy[1])))
        self.assertIsNotNone(checks.check_pair(gx, (math.nan, gy[1])))
        self.assertIsNotNone(checks.check_pair(None, gy))

    def test_cotangent(self):
        from wiltonmoments import cli

        b = 1009
        residues = checks.coprime_upper_half(b)
        oracle = {r: checks.c0_oracle(r, b) for r in (residues[0], residues[-1])}
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            summary_path, csv_path = Path(tmp, "s.json"), Path(tmp, "r.csv")
            rc = cli.run(["cotangent-dist", "--b", str(b), "--kmax", "2",
                          "--per-r", str(csv_path), "--output", str(summary_path)])
            self.assertEqual(rc, 0)
            summary, per_r = summary_path.read_text(), csv_path.read_text()

        def csv_scaled(text: str, factor: float = 1.1) -> str:
            rows = list(csv.reader(io.StringIO(text)))
            out = [rows[0]] + [[r, repr(float(c) * factor), repr(float(cb) * factor)]
                               for r, c, cb in rows[1:]]
            return "\n".join(",".join(row) for row in out) + "\n"

        self.assertIsNone(checks.check_cotangent(b, summary, per_r, residues, oracle))
        perturbed = {
            "count": (scaled(summary, {"count"}), per_r),
            "moments": (scaled(summary, {"normalized_moments"}), per_r),
            "per-residue values": (summary, csv_scaled(per_r)),
            "moments and values": (scaled(summary, {"normalized_moments"}), csv_scaled(per_r)),
        }
        for what, (s, c) in perturbed.items():
            with self.subTest(what=what):
                self.assertIsNotNone(checks.check_cotangent(b, s, c, residues, oracle))


if __name__ == "__main__":
    unittest.main()
