"""Tests that the traced benchmark's work counters are exact.

Run from the root of a source checkout (about a minute):
    python3 perfbench/check_counters.py

Each workload is run twice with --trace 1 and one cycle. Every per-layer
count (unit count, passes or B) must read the same in both runs, and the
counters below must have the values stated, so that a change to a kernel can
state its gain as a change of count.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent
COUNT_UNITS = ("count", "passes", "B")

EXPECTED = {
    "certify": {
        "geometry.pair_passes.construct_even": 6,
        "geometry.pair_passes.construct_odd": 3,
        "geometry.pair_passes.count": 5,
        "geometry.pair_passes.render": 1,
        "embedding.perturb.calls": 0,
        "embedding.perturb.attempts": 0,
    },
    "search": {
        "geometry.pair_passes.search": 3,
        "search.drawings": 200,
        "embedding.perturb.calls": 0,
        "embedding.perturb.attempts": 0,
    },
    "oracle": {
        "search.oracle.evaluated": 181440,
        "embedding.perturb.calls": 0,
    },
}


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise AssertionError(f"{workload}: outputs failed their checks\n{proc.stdout}")
    return result["metrics"]


class ExactCounters(unittest.TestCase):
    def test_counters_repeat_and_match(self):
        for workload, expected in EXPECTED.items():
            with self.subTest(workload=workload):
                first = traced_run(workload, seed=7)
                second = traced_run(workload, seed=7)
                for name, want in expected.items():
                    self.assertEqual(first[name]["value"], want, name)
                counts = {k for k, m in first.items() if m["unit"] in COUNT_UNITS}
                self.assertTrue(counts)
                for name in sorted(counts):
                    self.assertEqual(first[name]["value"], second[name]["value"], name)


if __name__ == "__main__":
    unittest.main()
