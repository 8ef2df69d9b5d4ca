#!/usr/bin/env python3
"""The benchmark's own test: two traced runs of one seed must agree exactly.

    python3 bench/repeat_check.py [--seed N] [workload ...]

For each workload (all by default) it runs ``run.py --trace 1 --seconds 1``
twice and requires identical per-pass counts (among them
``resonance.residual_evals``, ``serialize.csv_row_calls`` and
``cli.bytes_out``), identical sha256 of every output file and a correct
oracle verdict. It also checks that ``BENCHMARK.json`` names exactly the
metrics ``run.py`` reports. Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed on {workload}: {proc.stderr.strip()}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    results = json.loads((ROOT / ".bench_out" / "results" / f"{workload}-seed{seed}-trace1.json").read_text())
    return last, results


def check_manifest() -> list[str]:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, spec in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in manifest[key]]
        if listed != list(spec):
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    if [w["name"] for w in manifest["workloads"]] != list(run.workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=list(run.workloads.WORKLOADS))
    args = ap.parse_args()
    counts = [name for name, unit, _ in run.PER_LAYER if unit in ("count", "byte")]
    counts.append("scattering.zero_ratio")
    problems = check_manifest()
    for w in args.workloads:
        (m1, r1), (m2, r2) = traced_run(w, args.seed), traced_run(w, args.seed)
        for m in (m1, m2):
            if not m["correct"]:
                problems.append(f"{w}: oracle failed")
        for name in counts:
            a, b = m1["metrics"][name]["value"], m2["metrics"][name]["value"]
            if a != b:
                problems.append(f"{w}: {name} differs between runs: {a} vs {b}")
        h1 = [(o["case"], o["sha256"]) for o in r1["outputs"]]
        h2 = [(o["case"], o["sha256"]) for o in r2["outputs"]]
        if h1 != h2:
            problems.append(f"{w}: output hashes differ between runs")
        print(f"{w}: residual_evals {m1['metrics']['resonance.residual_evals']['value']:.0f}, "
              f"csv_row_calls {m1['metrics']['serialize.csv_row_calls']['value']:.0f}, "
              f"bytes_out {m1['metrics']['cli.bytes_out']['value']:.0f}, {len(h1)} hashes")
    for p in problems:
        print("FAIL", p)
    print("repeat check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
