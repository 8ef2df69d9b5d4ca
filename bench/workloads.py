"""Workload inputs: the CLI argv lists one pass of each workload issues.

Inputs come from the seed alone; the program sees only the argv. Seed 0
reproduces the ``scripts/`` programs exactly (``limits`` adds seeded draws
after them). Other seeds move k, eps, b and sigma inside fixed ranges while
every point count stays fixed, so the work per pass is the same.

Why each workload exists:

- ``scan``: the 1-D array kernel, where CSV formatting is most of the time.
  The two JSON cases use the 17-digit serializer, so a faster CSV path
  that slows JSON shows. It never touches the root finder.
- ``grid``: the largest arrays: the 2-D kernel (including the sigma = 0
  branch), the row generator and the peak memory.
- ``limits``: the scalar residual loop of the root finder, classify and the
  peak refinement through the slab product; almost no array or text work.
"""

from __future__ import annotations

import random

import numpy as np

from oracle import real_residual

WORKLOADS = ("scan", "grid", "limits")

WINDOW = (-40.0, 40.0)
ROOT_CELLS = 20000
TOTAL_LADDER = [0.2, 0.1, 0.05, 0.02]
PARTIAL_LADDER = [0.05, 0.02, 0.01]
LIMIT_DRAWS = 4
OFF_ROOT_GAP = 1e-3


def _num(x: float) -> str:
    return repr(float(x))


def scan_cases(seed: int, outdir: str) -> list[dict]:
    rng = random.Random(f"scan:{seed}")
    if seed == 0:
        k, eps_pair = 1.0, (0.1, 0.2)
    else:
        k = rng.uniform(0.8, 1.25)
        eps_pair = (rng.uniform(0.09, 0.11), rng.uniform(0.18, 0.22))
    cases = []
    runs = [(m, e, "csv") for m in ("plus", "minus") for e in eps_pair]
    runs += [(m, eps_pair[0], "json") for m in ("plus", "minus")]
    for model, eps, fmt in runs:
        name = f"scan_{model}_eps{_num(eps)}_{fmt}"
        out = f"{outdir}/{name}.{fmt}"
        argv = ["scan-alpha", "--model", model, "--b", "3", "--sigma", "1",
                "--eps", str(eps), "--k", str(k),
                "--alpha-min", "-40", "--alpha-max", "40",
                "--steps", "160001", "--out", out]
        if fmt == "json":
            argv[-2:-2] = ["--format", "json"]
        cases.append({"name": name, "argv": argv, "out": out, "check": {
            "type": "scan", "model": model, "b": 3.0, "sigma": 1.0, "eps": eps, "k": k,
            "alpha_min": -40.0, "alpha_max": 40.0, "steps": 160001, "format": fmt}})
    return cases


def grid_cases(seed: int, outdir: str) -> list[dict]:
    rng = random.Random(f"grid:{seed}")
    eps = 0.2 if seed == 0 else rng.uniform(0.18, 0.22)
    cases = []
    for model, sigma in (("plus", "1"), ("minus", "1"), ("minus", "0")):
        name = f"grid_{model}_sigma{sigma}"
        out = f"{outdir}/{name}.csv"
        argv = ["grid", "--model", model, "--b", "3", "--sigma", sigma,
                "--eps", str(eps), "--alpha-min", "-40", "--alpha-max", "40",
                "--alpha-steps", "1601",
                "--k-min", "0.01", "--k-max", "10", "--k-steps", "401",
                "--out", out]
        cases.append({"name": name, "argv": argv, "out": out, "check": {
            "type": "grid", "model": model, "b": 3.0, "sigma": float(sigma), "eps": eps,
            "alpha_min": -40.0, "alpha_max": 40.0, "alpha_steps": 1601,
            "k_min": 0.01, "k_max": 10.0, "k_steps": 401, "format": "csv"}})
    return cases


def bench_roots(label: str, b: float, sigma: float) -> list[float]:
    """Nonzero roots of one limiting equation in WINDOW, found by the benchmark.

    Independent of the program: a sign-change scan of the real-form residual
    on ROOT_CELLS cells, bisected in double precision; crossings whose
    midpoint residual stays large are tan poles, not roots.
    """
    xs = np.linspace(WINDOW[0], WINDOW[1], ROOT_CELLS + 1)
    f = [real_residual(label, float(x), b, sigma) for x in xs]
    roots = []
    for i in range(ROOT_CELLS):
        a, c, fa, fc = float(xs[i]), float(xs[i + 1]), f[i], f[i + 1]
        if not (fa * fc < 0):
            continue
        for _ in range(80):
            m = 0.5 * (a + c)
            if m in (a, c):
                break
            fm = real_residual(label, m, b, sigma)
            if fa * fm <= 0:
                c = m
            else:
                a, fa = m, fm
        m = 0.5 * (a + c)
        if abs(real_residual(label, m, b, sigma)) < 1e-6 and abs(m) > 1e-6:
            roots.append(m)
    return roots


def _resonances_case(name, outdir, model, b_s, sigma_s, roots):
    # roots: bench_roots of each label; the case expects its model's set and SigmaPrime
    out = f"{outdir}/{name}.json"
    argv = ["resonances", "--model", model, "--b", b_s, "--sigma", sigma_s, "--out", out]
    own = "SigmaPlus" if model == "plus" else "SigmaMinus"
    return {"name": name, "argv": argv, "out": out, "check": {
        "type": "resonances", "model": model, "b": float(b_s), "sigma": float(sigma_s),
        "roots": {own: roots[own], "SigmaPrime": roots["SigmaPrime"]}}}


def _all_roots(b: float, sigma: float) -> dict[str, list[float]]:
    return {lab: bench_roots(lab, b, sigma) for lab in ("SigmaPlus", "SigmaMinus", "SigmaPrime")}


def _converge_case(name, outdir, alpha, b_s, sigma_s, ladder):
    out = f"{outdir}/{name}.csv"
    argv = ["converge", "--model", "plus", "--b", b_s, "--sigma", sigma_s,
            "--alpha", _num(alpha), "--k", "1",
            "--eps-list", ",".join(str(e) for e in ladder), "--out", out]
    return {"name": name, "argv": argv, "out": out, "check": {
        "type": "converge", "model": "plus", "b": float(b_s), "sigma": float(sigma_s),
        "alpha": float(alpha), "k": 1.0, "eps_list": ladder}}


def _classify_case(name, outdir, model, alpha, b_s, sigma_s, label, set_):
    out = f"{outdir}/{name}.json"
    argv = ["classify", "--model", model, "--b", b_s, "--sigma", sigma_s,
            "--alpha", _num(alpha), "--out", out]
    return {"name": name, "argv": argv, "out": out, "check": {
        "type": "classify", "model": model, "b": float(b_s), "sigma": float(sigma_s),
        "alpha": alpha, "label": label, "set": set_}}


def limits_cases(seed: int, outdir: str) -> list[dict]:
    # the run_convergence.py argv, then LIMIT_DRAWS seeded (b, sigma) draws
    base_roots = _all_roots(3.0, 1.0)
    cases = [_resonances_case(f"resonances_{m}", outdir, m, "3", "1", base_roots)
             for m in ("plus", "minus")]
    cases.append(_converge_case("converge_total", outdir, 2.282647521704435, "3", "1", TOTAL_LADDER))
    cases.append(_converge_case("converge_partial", outdir, 26.867217553883783, "3", "1", PARTIAL_LADDER))
    rng = random.Random(f"limits:{seed}")
    for d in range(LIMIT_DRAWS):
        b, sigma = rng.uniform(1.5, 6.0), rng.uniform(0.3, 2.0)
        b_s, sigma_s = _num(b), _num(sigma)
        roots = _all_roots(b, sigma)
        tag = f"d{d}"
        cases += [_resonances_case(f"{tag}_resonances_{m}", outdir, m, b_s, sigma_s, roots)
                  for m in ("plus", "minus")]
        # on a root of the plus model's own set (total) or of the shared set (partial)
        on = [(a, "TotalTransmission", "SigmaPlus") for a in roots["SigmaPlus"]]
        on += [(a, "PartialTransmission", "SigmaPrime") for a in roots["SigmaPrime"]]
        if on:
            alpha, label, set_ = rng.choice(on)
            cases.append(_classify_case(f"{tag}_classify_plus_on", outdir, "plus", alpha,
                                        b_s, sigma_s, label, set_))
        every = [0.0] + roots["SigmaMinus"] + roots["SigmaPrime"]
        while True:
            alpha = rng.uniform(*WINDOW)
            if min(abs(alpha - r) for r in every) > OFF_ROOT_GAP:
                break
        cases.append(_classify_case(f"{tag}_classify_minus_off", outdir, "minus", alpha,
                                    b_s, sigma_s, "Opaque", None))
        if roots["SigmaPlus"]:
            cases.append(_converge_case(f"{tag}_converge_total", outdir,
                                        min(roots["SigmaPlus"], key=abs), b_s, sigma_s, TOTAL_LADDER))
        if roots["SigmaPrime"]:
            cases.append(_converge_case(f"{tag}_converge_partial", outdir,
                                        min(roots["SigmaPrime"], key=abs), b_s, sigma_s, PARTIAL_LADDER))
    return cases


def cases_for(workload: str, seed: int, outdir: str) -> list[dict]:
    return {"scan": scan_cases, "grid": grid_cases, "limits": limits_cases}[workload](seed, outdir)
