#!/usr/bin/env python3
"""Benchmark of bwtunnel's batch workloads, end to end and per layer.

Run from the root of the repository:

    python3 bench/run.py --workload scan --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 1

Workloads (see workloads.py for why each exists): ``scan``, ``grid`` and
``limits``; ``all`` runs the three in turn. Each run is a closed loop with
one client: a fresh worker process sets up once and then issues the
workload's ``cli.main`` calls one after another, as the ``scripts/``
scripts do, for ``--seconds``. The program only ever sees the argv that
``--seed`` generates. The harness and everything it starts run on one
CPU (the highest-numbered one allowed): a process that migrates between
CPUs of unequal load reads up to 1.5x slower or faster within one run.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: process start until ``bwtunnel.cli`` is imported and its
  parser built; the median of SETUP_PROBES fresh processes.
- ``wall_s``: one pass of the workload, from process start to the last
  output byte written and closed: ``setup_s`` plus, for every case, the
  median time of its ``cli.main`` calls.
- ``peak_rss_mb``: the worker's maximum resident set size at the end of
  its first pass. Later passes in the same process grow it by a few MB
  each, so the whole-run peak would follow the machine's speed.

Times are divided by the machine's slowness measured around and during
them (calibrate.py; set-up times by its square root, see
calibrate.SETUP_EXPONENT), so they read in seconds at a fixed nominal
speed; the raw times are printed beside them and kept in the results file.

Each sampled time (set-up probes, the calls of each case) is printed as
its median and count, plus the highest percentile with ten samples beyond
it where there are at least 11. The set-up probes always have one; in a
30 s run the scan and grid cases get 2-6 calls each, too few for a tail.
``wall_s`` is a sum of medians, one figure per run.

Also printed, but not in the last line: ``rows_per_s``, the CSV data rows
and JSON records one pass writes per second of ``wall_s`` (on ``limits``
the row count follows the seeded draws, so it is no steadier than the
input), and ``fail_ratio`` with its base, carried by ``attempted``/``failed``
in the last line. An operation fails when ``cli.main`` raises, returns
nonzero, or writes output that the oracle (oracle.py) rejects or that
differs from another call of the same case; any failure makes ``correct``
false. The oracle runs after the timed loop. One nonzero exit is the right
answer instead: a ``converge`` that reports no peak where the oracle
confirms the transmission has none. Such calls are counted apart, as
``no_peak`` operations with their base, and not as failed; their times
stay in ``wall_s``, since the program did that work.

``--trace 1`` splits the time: an untraced phase, then a phase with
wrappers around each module's public functions (tracing.py). It reports
the per-layer metrics of the traced phase in raw seconds and counts per
pass, each layer's self time, the coverage (summed layer self time over
the traced phase's raw ``wall_s``) and the tracing overhead (traced over
untraced ``wall_s``, both at nominal speed). No end-to-end figure comes
from a traced phase.

Every run writes its full results, including the environment and the
sha256 and size of every output file, to
``.bench_out/results/<workload>-seed<seed>-trace<trace>.json``; spans of
traced runs go beside them. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import workloads  # noqa: E402
from oracle import Checker, count_rows  # noqa: E402
from tracing import LAYERS, RESIDUALS  # noqa: E402

SETUP_PROBES = 15
WORKER_TIMEOUT_S = 150
REFERENCE = BENCH / "reference_seed0.json"

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# name, unit, better; the traced function behind each is in layer_metrics
PER_LAYER = (
    ("cli.parse_s", "s", "lower"),
    ("cli.run_self_s", "s", "lower"),
    ("cli.calls", "count", "lower"),
    ("cli.bytes_out", "byte", "lower"),
    ("serialize.csv_row_calls", "count", "lower"),
    ("serialize.csv_row_s", "s", "lower"),
    ("serialize.json_dumps_calls", "count", "lower"),
    ("serialize.json_dumps_s", "s", "lower"),
    ("scattering.scan_alpha_points", "count", "lower"),
    ("scattering.scan_alpha_s", "s", "lower"),
    ("scattering.grid_points", "count", "lower"),
    ("scattering.grid_s", "s", "lower"),
    ("scattering.grid_csv_rows_s", "s", "lower"),
    ("scattering.transmissivity_calls", "count", "lower"),
    ("scattering.transmissivity_s", "s", "lower"),
    ("scattering.zero_ratio", "ratio", "lower"),
    ("scattering.points_emitted", "count", "lower"),
    ("transfer.chain_matrix_calls", "count", "lower"),
    ("transfer.chain_matrix_s", "s", "lower"),
    ("resonance.resonance_sets_calls", "count", "lower"),
    ("resonance.resonance_sets_s", "s", "lower"),
    ("resonance.find_roots_s", "s", "lower"),
    ("resonance.residual_evals", "count", "lower"),
    ("resonance.pole_errors", "count", "lower"),
    ("resonance.peak_refine_calls", "count", "lower"),
    ("resonance.peak_refine_s", "s", "lower"),
    ("zerolimit.classify_s", "s", "lower"),
    ("zerolimit.converge_study_s", "s", "lower"),
    ("potential.realize_calls", "count", "lower"),
) + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS) + (
    ("trace.wall_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def summarize(xs: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    s = sorted(xs)
    n = len(s)
    out = {"n": n, "median": statistics.median(s), "tail": None, "tail_pct": None}
    if n >= 11:
        out["tail"], out["tail_pct"] = s[n - 11], round(100.0 * (n - 10) / n, 1)
    return out


def environment(seed: int, trace: int) -> dict:
    import numpy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = dirty = None
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        if head.returncode == 0:
            commit = head.stdout.strip()
            st = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, capture_output=True, text=True, timeout=30)
            dirty = bool(st.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_commit": commit, "git_dirty": dirty,
        "seed": seed, "traced": bool(trace), "platform": platform.platform(),
    }


def _spawn(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args], cwd=ROOT,
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return t0, proc


def setup_samples() -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes, raw and divided by the slowness around each."""
    raw, norm = [], []
    calibrate.Sampler().edge()  # warm the probe up
    for _ in range(SETUP_PROBES):
        sampler = calibrate.Sampler()
        sampler.edge()
        t0, proc = _spawn(["--probe"])
        raw.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
        sampler.edge()
        norm.append(raw[-1] / sampler.slowness() ** calibrate.SETUP_EXPONENT)
    return raw, norm


def check_outputs(cases, ops, seed) -> tuple[list[dict], bool]:
    """Run the oracle on each case's file and mark every failed operation.

    A nonzero exit is the right answer, not a failure, only where the oracle
    confirms it (a ``converge`` on a bracket without a peak); such calls are
    marked ``no_peak``. Every call of a case must end the same way.
    """
    sys.path.insert(0, str(ROOT / "src"))
    import bwtunnel

    checker = Checker(bwtunnel, seed)
    outputs, correct = [], True
    for i, case in enumerate(cases):
        path = ROOT / case["out"]
        info = {"case": case["name"], "argv": case["argv"], "sha256": None, "bytes": None,
                "rows": 0, "zeros": 0, "problems": []}
        case_ops = [op for op in ops if op["case"] == i]
        if path.exists():
            data = path.read_bytes()
            last = case_ops[-1]
            info.update(sha256=last["sha256"], bytes=len(data))
            info["rows"], info["zeros"] = count_rows(case, data)
            info["problems"] = checker.check(case, data)
        outcomes = {(op["rc"], op["error"], op["sha256"]) for op in case_ops}
        failure_problems = {}
        for op in case_ops:
            op["failed"] = True
            if len(outcomes) > 1:
                correct = False
                op["why"] = "calls of the same case end differently"
            elif op["rc"] != 0:
                if op["error"] not in failure_problems:
                    failure_problems[op["error"]] = checker.check_failure(case, op["error"])
                op["why"] = op["error"] or f"exit code {op['rc']}"
                if failure_problems[op["error"]]:
                    correct = False
                    op["why"] = "oracle: " + "; ".join(failure_problems[op["error"]][:3])
                else:
                    op["failed"], op["no_peak"] = False, True
            elif op["sha256"] is None:
                correct = False
                op["why"] = "exit 0 but no output file"
            elif info["problems"]:
                correct = False
                op["why"] = "oracle: " + "; ".join(info["problems"][:3])
            else:
                op["failed"] = False
        outputs.append(info)
    return outputs, correct


def pass_ops(cases, ops, phase, key="seconds") -> tuple[float, list[dict]]:
    """Summed per-case median call time of one pass, and the per-case figures."""
    per_case = []
    for i, case in enumerate(cases):
        times = [op[key] for op in ops if op["case"] == i and op["phase"] == phase]
        per_case.append({"case": case["name"], **summarize(times)})
    return sum(c["median"] for c in per_case), per_case


def layer_metrics(cases, ops, outputs, wall_traced_raw, overhead) -> dict:
    """Per-pass layer figures: per case, the median over its traced calls."""

    def per_pass(value_of) -> float:
        total = 0.0
        for i in range(len(cases)):
            vals = [value_of(op["trace"], op) for op in ops
                    if op["case"] == i and op["phase"] == "traced"]
            total += statistics.median(vals)
        return total

    def stat(fn, col):
        return lambda tr, op: tr["stats"].get(fn, [0, 0.0, 0.0])[col]

    def calls(fn):
        return per_pass(stat(fn, 0))

    def busy(fn):
        return per_pass(stat(fn, 1))

    def layer_self(layer):
        return lambda tr, op: sum(v[2] for k, v in tr["stats"].items() if k.split(".")[0] == layer)

    points = sum(o["rows"] for o, c in zip(outputs, cases) if c["check"]["type"] in ("scan", "grid"))
    zeros = sum(o["zeros"] for o in outputs)
    m = {
        "cli.parse_s": busy("cli.parse_args"),
        "cli.run_self_s": per_pass(stat("cli.run", 2)),
        "cli.calls": calls("cli.main"),
        "cli.bytes_out": per_pass(lambda tr, op: op["bytes"] or 0),
        "serialize.csv_row_calls": calls("serialize.csv_row"),
        "serialize.csv_row_s": busy("serialize.csv_row"),
        "serialize.json_dumps_calls": calls("serialize.json_dumps"),
        "serialize.json_dumps_s": busy("serialize.json_dumps"),
        "scattering.scan_alpha_points": per_pass(
            lambda tr, op: tr["counts"].get("scattering.scan_alpha_points", 0)),
        "scattering.scan_alpha_s": busy("scattering.scan_alpha"),
        "scattering.grid_points": per_pass(lambda tr, op: tr["counts"].get("scattering.grid_points", 0)),
        "scattering.grid_s": busy("scattering.grid"),
        "scattering.grid_csv_rows_s": busy("scattering.grid_csv_rows"),
        "scattering.transmissivity_calls": calls("scattering.transmissivity"),
        "scattering.transmissivity_s": busy("scattering.transmissivity"),
        "scattering.zero_ratio": zeros / points if points else 0.0,
        "scattering.points_emitted": points,
        "transfer.chain_matrix_calls": calls("transfer.chain_matrix"),
        "transfer.chain_matrix_s": busy("transfer.chain_matrix"),
        "resonance.resonance_sets_calls": calls("resonance.resonance_sets"),
        "resonance.resonance_sets_s": busy("resonance.resonance_sets"),
        "resonance.find_roots_s": busy("resonance.find_roots"),
        "resonance.residual_evals": sum(calls(fn) for fn in RESIDUALS),
        "resonance.pole_errors": per_pass(lambda tr, op: tr["counts"].get("resonance.pole_errors", 0)),
        "resonance.peak_refine_calls": calls("resonance.peak_refine"),
        "resonance.peak_refine_s": busy("resonance.peak_refine"),
        "zerolimit.classify_s": busy("zerolimit.classify"),
        "zerolimit.converge_study_s": busy("zerolimit.converge_study"),
        "potential.realize_calls": calls("potential.realize"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per_pass(layer_self(layer))
    m["trace.wall_s"] = wall_traced_raw
    m["trace.coverage"] = sum(m[f"{layer}.self_s"] for layer in LAYERS) / wall_traced_raw
    m["trace.overhead"] = overhead
    return m


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    if not (ROOT / "src" / "bwtunnel" / "cli.py").is_file():
        raise BenchError(f"no bwtunnel sources under {ROOT / 'src'}")
    tag = f"{name}-seed{seed}-trace{trace}"
    work = ROOT / ".bench_out" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results_dir = ROOT / ".bench_out" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)

    cases = workloads.cases_for(name, seed, str(work.relative_to(ROOT)))
    if trace:
        phases = [["plain", seconds / 2, False], ["traced", seconds / 2, True]]
    else:
        phases = [["plain", seconds, False]]
    spec = {"cases": cases, "phases": phases, "spans_path": str(results_dir / f"{tag}-spans.jsonl")}
    spec_path, record_path = work / "spec.json", work / "record.json"
    spec_path.write_text(json.dumps(spec))

    setup_raw, setup_norm = setup_samples()
    t_spawn, _ = _spawn([str(spec_path), str(record_path)])
    record = json.loads(record_path.read_text())
    setup_raw.append(record["setup_done"] - t_spawn)  # kept raw, outside the median
    setup = summarize(setup_norm)

    ops = record["ops"]
    for op in ops:
        op["norm_s"] = op["seconds"] / op["slowness"]
    outputs, correct = check_outputs(cases, ops, seed)
    attempted, failed = len(ops), sum(op["failed"] for op in ops)
    ops_raw, per_case_raw = pass_ops(cases, ops, "plain")
    ops_s, per_case = pass_ops(cases, ops, "plain", "norm_s")
    rows = sum(o["rows"] for o in outputs)
    setup_s = setup["median"]
    wall_s = setup_s + ops_s
    e2e = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": ops[len(cases) - 1]["vmhwm_kb"] / 1024.0,
    }
    result = {
        "workload": name, "environment": environment(seed, trace),
        "seconds": seconds, "cases": len(cases), "rows_per_pass": rows,
        "rows_per_s": rows / wall_s, "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "no_peak": sum(op.get("no_peak", False) for op in ops),
        "no_peak_cases": sorted({cases[op["case"]]["name"] for op in ops if op.get("no_peak")}),
        "correct": correct,
        "setup": setup, "per_case_seconds": per_case, "end_to_end": e2e,
        "peak_rss_mb_whole_run": ops[-1]["vmhwm_kb"] / 1024.0,
        "slowness": statistics.median(op["slowness"] for op in ops),
        "raw": {"wall_s": statistics.median(setup_raw) + ops_raw, "setup_s": statistics.median(setup_raw),
                "setup_samples": setup_raw, "per_case_seconds": per_case_raw},
        "failures": sorted({f"{cases[op['case']]['name']}: {op['why']}" for op in ops if op["failed"]}),
        "outputs": outputs,
    }
    if trace:
        traced_raw, traced_cases = pass_ops(cases, ops, "traced")
        overhead = (setup_s + pass_ops(cases, ops, "traced", "norm_s")[0]) / wall_s
        result["traced_per_case_seconds"] = traced_cases
        result["per_layer"] = layer_metrics(cases, ops, outputs,
                                            statistics.median(setup_raw) + traced_raw, overhead)
        result["bindings"] = record["bindings"]
        result["spans"] = spec["spans_path"]
    if seed == 0 and REFERENCE.exists():
        ref = json.loads(REFERENCE.read_text()).get(name, {})
        result["reference_mismatch"] = [o["case"] for o in outputs
                                        if ref.get(o["case"]) != {"sha256": o["sha256"], "bytes": o["bytes"]}]
    (results_dir / f"{tag}.json").write_text(json.dumps(result, indent=1))
    return result


def report(res: dict) -> None:
    env = res["environment"]
    print(f"== {res['workload']}  seed {env['seed']}  {'traced' if env['traced'] else 'untraced'}"
          f"  {res['seconds']} s  ({res['cases']} cases, {res['rows_per_pass']} rows per pass)")
    print(f"   env: {env['cpu']}, nproc {env['nproc']}, Python {env['python']}, "
          f"numpy {env['numpy']}, commit {env['git_commit']} dirty={env['git_dirty']}")
    s = res["setup"]
    print(f"   setup_s samples n={s['n']} median={s['median']:.4f}"
          + (f" p{s['tail_pct']}={s['tail']:.4f}" if s["tail"] is not None else ""))
    units = {n: u for n, u, _ in END_TO_END}
    for k, v in res["end_to_end"].items():
        raw = f"   (raw {res['raw'][k]:.6g} {units[k]})" if k in res["raw"] else ""
        print(f"   {k:<12} {v:.6g} {units[k]}{raw}")
    print(f"   rows_per_s   {res['rows_per_s']:.6g} 1/s ({res['rows_per_pass']} rows per pass)")
    print(f"   times are at nominal speed; median slowness of this run {res['slowness']:.3f}")
    print(f"   fail_ratio   {res['fail_ratio']:.4g} ({res['failed']} failed of {res['attempted']} "
          f"operations); oracle {'passed' if res['correct'] else 'FAILED'}")
    for f in res["failures"]:
        print(f"     failed: {f}")
    if res["no_peak"]:
        print(f"   no_peak      {res['no_peak']} of {res['attempted']} operations: converge found no peak, "
              f"as the oracle confirms ({', '.join(res['no_peak_cases'])})")
    for c in res["per_case_seconds"]:
        tail = f" p{c['tail_pct']}={c['tail']:.4f}" if c["tail"] is not None else ""
        print(f"   case {c['case']:<34} n={c['n']:<3} median={c['median']:.4f} s{tail}")
    if res.get("reference_mismatch"):
        print(f"   outputs differ from {REFERENCE.name}: {', '.join(res['reference_mismatch'])}")
    if "per_layer" in res:
        pl = res["per_layer"]
        print("   self time per pass, traced:")
        for layer in LAYERS:
            print(f"     {layer:<11} {pl[layer + '.self_s']:.4f} s")
        print(f"   coverage {pl['trace.coverage']:.3f} of traced wall_s {pl['trace.wall_s']:.4f} s; "
              f"overhead {pl['trace.overhead']:.3f}x untraced wall_s")
        units = {n: u for n, u, _ in PER_LAYER}
        for k, v in pl.items():
            if v and not k.endswith(".self_s") and not k.startswith("trace."):
                print(f"     {k:<34} {v:.6g} {units[k]}")


def update_reference(results: list[dict]) -> None:
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for res in results:
        ref[res["workload"]] = {o["case"]: {"sha256": o["sha256"], "bytes": o["bytes"]}
                                for o in res["outputs"]}
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-reference", action="store_true",
                    help=f"with --seed 0, record the output hashes in {REFERENCE.name}")
    args = ap.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})  # inherited by every child
    try:
        results = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    for res in results:
        report(res)
    if args.update_reference and args.seed == 0:
        update_reference(results)
    key = "per_layer" if args.trace else "end_to_end"
    spec = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else res["workload"] + "."
        for name, unit, _ in spec:
            metrics[prefix + name] = {"value": res[key][name], "unit": unit}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
