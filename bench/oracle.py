"""Independent checks of the bytes each workload case wrote.

Run after the timed loop, never inside it. Every tolerance below was fixed
before any output was compared against it:

- scan and grid rows: T is recomputed through the slab-product route
  (``transmissivity`` -> ``chain_matrix``) and must agree within
  ``T_REL_TOL`` relative plus ``T_ABS_TOL`` absolute. The test suite holds
  the two routes to 1e-9 of (1 + max entry) per matrix entry, which moves T
  by far less than 1e-6; the absolute floor lets both routes call a point
  near-opaque on either side of the 1e12 threshold, where T < 1e-20 anyway.
- resonance roots: the real-form residual, evaluated with 50-digit mpmath,
  must change sign across ``[root - ROOT_DELTA, root + ROOT_DELTA]``. The
  program bisects to a 1e-10 bracket, so the true root lies within 5e-11.
  The nonzero roots of each set must also match the benchmark's own root
  list (workloads.bench_roots) one to one within ROOT_DELTA, so a dropped
  root is a failure too.
- classify and converge: labels and factors against the benchmark's own
  root list and the 50-digit residuals; peaks against the slab route.
- nonzero exits: only a ``converge`` that reports no peak on
  ``[alpha - radius, alpha + radius]`` may exit nonzero, and only if the slab route
  agrees: on the program's 2001-point pre-scan of that bracket, T must at
  some eps of the ladder be monotone (for "transmission is monotone") or
  peak at an end (for "no interior crest"), within the T tolerances. Any
  other nonzero exit is a wrong result.
"""

from __future__ import annotations

import json
import math
import random
import re

import mpmath
import numpy as np

T_REL_TOL = 1e-6
T_ABS_TOL = 1e-20
LOG_ABS_TOL = 1e-9
ROOT_DELTA = 1e-9
THETA_REL_TOL = 1e-9
# classify reports theta at its own root, up to 1e-10 from the input strength
CLASSIFY_THETA_REL_TOL = 1e-6
SAMPLE_ROWS = 200
MP_DPS = 50
# peak_refine's bracket and pre-scan at the CLI defaults
CONVERGE_RADIUS = 0.5
PRESCAN_STEPS = 2001
NO_PEAK_ERROR = re.compile(r"error: (transmission is monotone|no interior crest) on \[(\S+), (\S+)\]")


def sigma_split(alpha, sigma):
    """The well-control parameter lands on the wells, chosen by sign."""
    if alpha > 0:
        return 1.0, sigma
    if alpha < 0:
        return sigma, 1.0
    return 1.0, 1.0


def real_residual(label, alpha, b, sigma, m=math):
    """Real form of the three limiting equations (tan and tanh swap for alpha < 0).

    ``m`` supplies sqrt/tanh/tan: ``math`` for the input generator, ``mpmath``
    (with mpf arguments) for the oracle. Requires sigma > 0.
    """
    sp, sm = sigma_split(alpha, sigma)
    s = m.sqrt(b * sm / sp)
    x = abs(alpha)
    a_ = m.sqrt(2 * x * sp / (1 + 1 / b))
    b_ = m.sqrt(2 * x * sm / (1 + b))
    if alpha >= 0:
        th_a, tn_b = m.tanh(a_), m.tan(b_)
        if label == "SigmaPlus":
            return (s - 1 / s) * th_a * tn_b - 2
        if label == "SigmaMinus":
            return th_a * tn_b + s
        return th_a - s * tn_b
    tn_a, th_b = m.tan(a_), m.tanh(b_)
    if label == "SigmaPlus":
        return -(s - 1 / s) * tn_a * th_b - 2
    if label == "SigmaMinus":
        return -tn_a * th_b + s
    return tn_a - s * th_b


def mp_brackets_root(label, alpha, b, sigma) -> bool:
    with mpmath.workdps(MP_DPS):
        a, bb, sg = mpmath.mpf(alpha), mpmath.mpf(b), mpmath.mpf(sigma)
        d = mpmath.mpf(ROOT_DELTA)
        lo = real_residual(label, a - d, bb, sg, mpmath)
        hi = real_residual(label, a + d, bb, sg, mpmath)
        return lo * hi < 0


def mp_theta(alpha, b, sigma) -> float:
    """Discontinuity factor cosh/cos (cos/cosh for alpha < 0) at 50 digits."""
    with mpmath.workdps(MP_DPS):
        a, bb, sg = mpmath.mpf(alpha), mpmath.mpf(b), mpmath.mpf(sigma)
        sp, sm = sigma_split(a, sg)
        x = abs(a)
        a_ = mpmath.sqrt(2 * x * sp / (1 + 1 / bb))
        b_ = mpmath.sqrt(2 * x * sm / (1 + bb))
        if a > 0:
            return float(mpmath.cosh(a_) / mpmath.cos(b_))
        return float(mpmath.cos(a_) / mpmath.cosh(b_))


def partial_limit(theta: float) -> float:
    """T of diag(theta^2, theta^-2): u = theta^2 - theta^-2, v = 0."""
    u = theta * theta - 1.0 / (theta * theta)
    return 4.0 / (4.0 + u * u)


def _rel_close(x: float, ref: float, tol: float) -> bool:
    return abs(x - ref) <= tol * max(abs(ref), 1e-300)


def _t_close(t: float, ref: float) -> bool:
    return abs(t - ref) <= T_REL_TOL * max(t, ref) + T_ABS_TOL


def _fmt12(x: float) -> str:
    s = format(float(x), ".12g")
    return "0" if s == "-0" else s


class Checker:
    """Checks one case's output file; ``check`` returns a list of problems."""

    def __init__(self, bw, seed: int):
        self.bw = bw  # the imported bwtunnel package (slab route only)
        self.seed = seed

    def check(self, case: dict, data: bytes) -> list[str]:
        kind = case["check"]["type"]
        return getattr(self, "_" + kind)(case, data)

    def _rows_to_check(self, case, n):
        rng = random.Random(f"oracle:{self.seed}:{case['name']}")
        picks = {0, n - 1}
        picks.update(rng.randrange(n) for _ in range(SAMPLE_ROWS))
        return sorted(picks)

    def _t_ref(self, c, alpha, k):
        bw = self.bw
        params = bw.BWParams(kind=bw.Kind(c["model"]), alpha=float(alpha), eps=c["eps"],
                             c1=c["b"], c2=1.0, sigma=c["sigma"])
        return bw.transmissivity(params, float(k))

    def _check_csv_point(self, c, line, alpha, k):
        cells = line.split(",")
        if len(cells) != 4:
            return f"malformed row {line!r}"
        if cells[0] != _fmt12(alpha) or cells[1] != _fmt12(k):
            return f"row {line!r} is not at grid point ({alpha!r}, {k!r})"
        t = float(cells[2])
        ref = self._t_ref(c, alpha, k)
        if not _t_close(t, ref):
            return f"T at ({alpha!r}, {k!r}) is {t!r}, slab route gives {ref!r}"
        if t == 0.0:
            if cells[3] != "-inf":
                return f"log10T of a zero T is {cells[3]!r}"
        elif abs(float(cells[3]) - math.log10(t)) > LOG_ABS_TOL * max(1.0, abs(math.log10(t))):
            return f"log10T {cells[3]!r} does not match T {t!r}"
        return None

    def _csv_points(self, case, data, alphas, ks):
        c = case["check"]
        lines = data.decode().split("\n")
        if lines[-1] != "":
            return ["output does not end with a newline"]
        lines.pop()
        if lines[0] != "alpha,k,T,log10T":
            return [f"bad header {lines[0]!r}"]
        n = len(alphas) * len(ks)
        if len(lines) - 1 != n:
            return [f"{len(lines) - 1} data rows, expected {n}"]
        problems = []
        for r in self._rows_to_check(case, n):
            p = self._check_csv_point(c, lines[r + 1], float(alphas[r // len(ks)]), float(ks[r % len(ks)]))
            if p:
                problems.append(p)
        return problems

    def _scan(self, case, data):
        c = case["check"]
        alphas = np.linspace(c["alpha_min"], c["alpha_max"], c["steps"])
        if c["format"] == "csv":
            return self._csv_points(case, data, alphas, [c["k"]])
        payload = json.loads(data)
        if payload["ks"] != [c["k"]] or len(payload["alphas"]) != c["steps"] \
                or len(payload["values"]) != c["steps"]:
            return ["JSON scan has the wrong shape"]
        problems = []
        for i in self._rows_to_check(case, c["steps"]):
            a, (t,) = payload["alphas"][i], payload["values"][i]
            if a != float(alphas[i]):
                problems.append(f"alpha[{i}] is {a!r}, expected {float(alphas[i])!r}")
                continue
            ref = self._t_ref(c, a, c["k"])
            if not _t_close(t, ref):
                problems.append(f"T at alpha {a!r} is {t!r}, slab route gives {ref!r}")
        return problems

    def _grid(self, case, data):
        c = case["check"]
        alphas = np.linspace(c["alpha_min"], c["alpha_max"], c["alpha_steps"])
        ks = np.linspace(c["k_min"], c["k_max"], c["k_steps"])
        return self._csv_points(case, data, alphas, ks)

    def _resonances(self, case, data):
        c = case["check"]
        model_label = "SigmaPlus" if c["model"] == "plus" else "SigmaMinus"
        problems = []
        by_set: dict[str, list[dict]] = {}
        for e in json.loads(data):
            by_set.setdefault(e["set"], []).append(e)
            if e["set"] not in (model_label, "SigmaPrime"):
                problems.append(f"root in foreign set {e['set']!r}")
                continue
            if e["alpha"] == 0:
                if e["set"] != model_label or e["n"] != 0:
                    problems.append("the trivial strength 0 is mislabelled")
                continue
            if not mp_brackets_root(e["set"], e["alpha"], c["b"], c["sigma"]):
                problems.append(f"{e['set']} root {e['alpha']!r} brackets no sign change")
            if e["set"] == "SigmaPrime":
                th = mp_theta(e["alpha"], c["b"], c["sigma"])
                if e["theta"] is None or not _rel_close(e["theta"], th, THETA_REL_TOL):
                    problems.append(f"theta at {e['alpha']!r} is {e['theta']!r}, expected {th!r}")
        for label, entries in by_set.items():
            neg = [e["n"] for e in entries if e["alpha"] < 0]
            pos = [e["n"] for e in entries if e["alpha"] > 0]
            if neg != list(range(-len(neg), 0)) or pos != list(range(1, len(pos) + 1)):
                problems.append(f"{label} indices are not outward-ordered")
        for label, expected in c["roots"].items():
            got = sorted(e["alpha"] for e in by_set.get(label, []) if e["alpha"] != 0)
            if len(got) != len(expected):
                problems.append(f"{label} has {len(got)} nonzero roots, expected {len(expected)}")
                continue
            for a, ref in zip(got, expected):
                if abs(a - ref) > ROOT_DELTA:
                    problems.append(f"{label} root {a!r} does not match the expected {ref!r}")
        return problems

    def _classify(self, case, data):
        c = case["check"]
        out = json.loads(data)
        problems = []
        if out["label"] != c["label"] or out["set"] != c["set"]:
            problems.append(f"classified {out['label']}/{out['set']}, "
                            f"expected {c['label']}/{c['set']}")
        if c["set"] is not None and not mp_brackets_root(c["set"], c["alpha"], c["b"], c["sigma"]):
            problems.append(f"input strength {c['alpha']!r} is not a {c['set']} root")
        if c["label"] == "PartialTransmission":
            th = mp_theta(c["alpha"], c["b"], c["sigma"])
            if out["theta"] is None or not _rel_close(out["theta"], th, CLASSIFY_THETA_REL_TOL):
                problems.append(f"theta {out['theta']!r}, expected {th!r}")
            elif not _rel_close(out["t_limit"], partial_limit(out["theta"]), THETA_REL_TOL):
                problems.append(f"t_limit {out['t_limit']!r} does not match theta")
        return problems

    def _converge(self, case, data):
        c = case["check"]
        lines = data.decode().split("\n")
        if lines[0] != "eps,alpha_peak,T_peak,alpha_drift" or lines[-1] != "":
            return ["malformed converge CSV"]
        rows = [list(map(float, ln.split(","))) for ln in lines[1:-1]]
        problems = []
        if [r[0] for r in rows] != c["eps_list"]:
            problems.append("eps column does not follow the ladder")
        for eps, a_peak, t_peak, drift in rows:
            if abs(drift - abs(a_peak - c["alpha"])) > 1e-10 * max(1.0, abs(c["alpha"])):
                problems.append(f"drift {drift!r} does not match the peak {a_peak!r}")
            cfg = dict(c, eps=eps)
            ref = self._t_ref(cfg, a_peak, c["k"])
            if not _t_close(t_peak, ref):
                problems.append(f"T_peak {t_peak!r} at eps {eps}, slab route gives {ref!r}")
            h = 1e-6 * max(1.0, abs(a_peak))
            side = max(self._t_ref(cfg, a_peak - h, c["k"]), self._t_ref(cfg, a_peak + h, c["k"]))
            if side > t_peak * (1.0 + T_REL_TOL) + T_ABS_TOL:
                problems.append(f"alpha_peak {a_peak!r} at eps {eps} is not a local crest")
        return problems

    def check_failure(self, case: dict, error: str | None) -> list[str]:
        """Problems with a nonzero exit; empty if the failure is the right answer."""
        c = case["check"]
        m = NO_PEAK_ERROR.fullmatch(error or "")
        if c["type"] != "converge" or m is None:
            return [f"unexpected failure: {error!r}"]
        claim, lo, hi = m.group(1), float(m.group(2)), float(m.group(3))
        if lo != c["alpha"] - CONVERGE_RADIUS or hi != c["alpha"] + CONVERGE_RADIUS:
            return [f"no-peak bracket [{lo!r}, {hi!r}] is not alpha +- {CONVERGE_RADIUS}"]
        alphas = np.linspace(lo, hi, PRESCAN_STEPS)
        for eps in c["eps_list"]:
            cfg = dict(c, eps=eps)
            ts = [self._t_ref(cfg, a, c["k"]) for a in alphas]
            tol = T_REL_TOL * max(ts) + T_ABS_TOL
            if claim == "no interior crest":
                if max(ts[1:-1]) <= max(ts[0], ts[-1]) + tol:
                    return []
                continue
            diffs = [t1 - t0 for t0, t1 in zip(ts, ts[1:])]
            if all(d >= -tol for d in diffs) or all(d <= tol for d in diffs):
                return []
        return [f"reported {claim!r}, but the slab route finds an interior crest "
                f"at every eps of {c['eps_list']}"]


def count_rows(case: dict, data: bytes) -> tuple[int, int]:
    """(output rows, rows with T = 0) of one case's file."""
    c = case["check"]
    if c["type"] == "converge":
        return data.count(b"\n") - 1, 0
    if c["type"] in ("scan", "grid") and c["format"] == "csv":
        return data.count(b"\n") - 1, data.count(b",-inf\n")
    payload = json.loads(data)
    if c["type"] == "scan":
        return len(payload["alphas"]), sum(1 for (t,) in payload["values"] if t == 0)
    if c["type"] == "resonances":
        return len(payload), 0
    return 1, 0
