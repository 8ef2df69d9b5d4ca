"""Command-line front end. Batch computations, plot-ready CSV/JSON output.

All configuration is by flags (optionally seeded from a JSON config
file whose keys mirror the flag names; explicit flags win). Identical
invocations produce byte-identical output: fixed float formatting,
fixed ordering, no environment dependence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .potential import BWParams, Kind, Segment, SegmentChain, realize
from .resonance import (
    NoPeakError,
    PoleError,
    WindowTooCoarseError,
    resonance_sets,
)
from .scattering import grid, grid_csv_rows
from .serialize import csv_row, json_dumps
from .transfer import chain_matrix, closed_form
from .zerolimit import classify, converge_study

_DEFAULTS = {
    "model": "plus",
    "b": 3.0,
    "sigma": 1.0,
    "eps": 0.1,
    "k": 1.0,
    "alpha_min": -40.0,
    "alpha_max": 40.0,
    "steps": 4000,
    "alpha_steps": 401,
    "k_min": 0.01,
    "k_max": 10.0,
    "k_steps": 201,
    "grid_steps": 20000,
    "tol": 1e-10,
    "match_tol": 1e-6,
    "radius": 0.5,
    "x_left": 0.0,
    "format": None,  # per-command default
}


@dataclass
class RunConfig:
    command: str
    model: Kind
    c1: float
    c2: float
    sigma: float
    eps: float
    k: float
    alpha: float | None
    alpha_min: float
    alpha_max: float
    steps: int
    alpha_steps: int
    k_min: float
    k_max: float
    k_steps: int
    grid_steps: int
    tol: float
    match_tol: float
    radius: float
    eps_list: list[float] | None
    out_format: str
    out_path: str | None
    raw: str | None
    x_left: float

    @property
    def b(self) -> float:
        return self.c1 / self.c2

    def params(self, alpha: float) -> BWParams:
        return BWParams(kind=self.model, alpha=alpha, eps=self.eps,
                        c1=self.c1, c2=self.c2, sigma=self.sigma)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bwtunnel",
        description="Resonant tunneling through squeezed barrier-well structures. "
                    "Defaults follow the reference configuration: model plus, "
                    "b=3 (c1=3, c2=1), sigma=1, eps=0.1, k=1.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, fmt_choices=("csv", "json")) -> None:
        p.add_argument("--model", choices=("plus", "minus"),
                       help="arrangement: plus (barrier-well repeated) or minus (mirror); default plus")
        p.add_argument("--b", type=float, help="shape ratio c1/c2; sets c1=b, c2=1 (default 3)")
        p.add_argument("--c1", type=float, help="barrier shape constant (use together with --c2)")
        p.add_argument("--c2", type=float, help="well shape constant (use together with --c1)")
        p.add_argument("--sigma", type=float, help="well-depth control, >= 0 (default 1)")
        p.add_argument("--config", help="JSON file with defaults; keys mirror flag names, flags win")
        p.add_argument("--out", dest="out_path", help="write output to this file instead of stdout")
        if fmt_choices:
            p.add_argument("--format", choices=fmt_choices, help=f"output format (default {fmt_choices[0]})")

    p = sub.add_parser("scan-alpha", help="transmissivity vs strength at fixed wave number")
    common(p)
    p.add_argument("--k", type=float, help="wave number > 0 (default 1)")
    p.add_argument("--eps", type=float, help="squeezing parameter > 0 (default 0.1)")
    p.add_argument("--alpha-min", type=float, help="strength window lower edge (default -40)")
    p.add_argument("--alpha-max", type=float, help="strength window upper edge (default 40)")
    p.add_argument("--steps", type=int, help="grid points, >= 2 (default 4000)")

    p = sub.add_parser("grid", help="transmissivity over an (alpha, k) grid")
    common(p)
    p.add_argument("--eps", type=float, help="squeezing parameter > 0 (default 0.1)")
    p.add_argument("--alpha-min", type=float, help="strength lower edge (default -40)")
    p.add_argument("--alpha-max", type=float, help="strength upper edge (default 40)")
    p.add_argument("--alpha-steps", type=int, help="strength grid points (default 401)")
    p.add_argument("--k-min", type=float, help="wave number lower edge, > 0 (default 0.01)")
    p.add_argument("--k-max", type=float, help="wave number upper edge (default 10)")
    p.add_argument("--k-steps", type=int, help="wave number grid points (default 201)")

    p = sub.add_parser("resonances", help="quantized transparency strengths in a window (JSON)")
    common(p, fmt_choices=())
    p.add_argument("--alpha-min", type=float, help="window lower edge (default -40)")
    p.add_argument("--alpha-max", type=float, help="window upper edge (default 40)")
    p.add_argument("--grid-steps", type=int, help="scan cells, >= 100 (default 20000)")
    p.add_argument("--tol", type=float, help="bisection width tolerance (default 1e-10)")

    p = sub.add_parser("converge", help="finite-squeezing peak drift toward a limiting strength")
    common(p)
    p.add_argument("--alpha", type=float, required=True, help="limiting strength to track")
    p.add_argument("--k", type=float, help="wave number > 0 (default 1)")
    p.add_argument("--eps-list", help="comma-separated strictly decreasing eps values")
    p.add_argument("--radius", type=float, help="search radius around the strength (default 0.5)")

    p = sub.add_parser("classify", help="limiting transparency of one strength (JSON)")
    common(p, fmt_choices=())
    p.add_argument("--alpha", type=float, required=True, help="strength to classify")
    p.add_argument("--alpha-min", type=float, help="window lower edge (default -40)")
    p.add_argument("--alpha-max", type=float, help="window upper edge (default 40)")
    p.add_argument("--grid-steps", type=int, help="scan cells (default 20000)")
    p.add_argument("--tol", type=float, help="root tolerance (default 1e-10)")
    p.add_argument("--match-tol", type=float, help="set-membership tolerance (default 1e-6)")

    p = sub.add_parser("matrix", help="transfer matrix diagnostics at one point (JSON)")
    common(p, fmt_choices=())
    p.add_argument("--alpha", type=float, help="strength (default 0)")
    p.add_argument("--k", type=float, help="wave number > 0 (default 1)")
    p.add_argument("--eps", type=float, help="squeezing parameter > 0 (default 0.1)")
    p.add_argument("--raw", help="explicit chain 'value:width,value:width,...' instead of the "
                                 "eps parametrization (no closed form available)")
    p.add_argument("--x-left", type=float, help="left edge position for --raw chains (default 0)")

    return parser


def _load_config_file(path: str, parser: argparse.ArgumentParser) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        parser.error(f"--config {path}: {e}")
    if not isinstance(data, dict):
        parser.error(f"--config {path}: top level must be a JSON object")
    return {str(k).replace("-", "_"): v for k, v in data.items()}


def parse_args(argv: list[str]) -> RunConfig:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    file_cfg = _load_config_file(ns.config, parser) if getattr(ns, "config", None) else {}

    def pick(name: str, fallback=None):
        v = getattr(ns, name, None)
        if v is not None:
            return v
        if name in file_cfg:
            return file_cfg[name]
        if name in _DEFAULTS:
            return _DEFAULTS[name]
        return fallback

    b, c1, c2 = pick("b", None), pick("c1", None), pick("c2", None)
    explicit_b = getattr(ns, "b", None) is not None or "b" in file_cfg
    explicit_c = getattr(ns, "c1", None) is not None or getattr(ns, "c2", None) is not None \
        or "c1" in file_cfg or "c2" in file_cfg
    if explicit_b and explicit_c:
        parser.error("provide either --b or the pair --c1/--c2, not both")
    if explicit_c:
        c1 = pick("c1", None) if ("c1" in file_cfg or ns.c1 is not None) else None
        c2 = pick("c2", None) if ("c2" in file_cfg or ns.c2 is not None) else None
        if c1 is None or c2 is None:
            parser.error("--c1 and --c2 must be given together")
        if c1 <= 0 or c2 <= 0:
            parser.error("--c1 and --c2 must be > 0")
    else:
        bval = float(b if b is not None else _DEFAULTS["b"])
        if bval <= 0:
            parser.error("--b must be > 0")
        c1, c2 = bval, 1.0

    sigma = float(pick("sigma"))
    if sigma < 0:
        parser.error("--sigma must be >= 0")
    eps = float(pick("eps"))
    if eps <= 0:
        parser.error("--eps must be > 0")
    k = float(pick("k"))
    if k <= 0:
        parser.error("--k must be > 0")

    alpha_min = float(pick("alpha_min"))
    alpha_max = float(pick("alpha_max"))
    steps = int(pick("steps"))
    alpha_steps = int(pick("alpha_steps"))
    k_min = float(pick("k_min"))
    k_max = float(pick("k_max"))
    k_steps = int(pick("k_steps"))
    grid_steps = int(pick("grid_steps"))
    tol = float(pick("tol"))
    match_tol = float(pick("match_tol"))
    radius = float(pick("radius"))

    command = ns.command
    if command in ("scan-alpha", "grid", "resonances", "classify"):
        if alpha_min >= alpha_max:
            parser.error("--alpha-min must be strictly less than --alpha-max")
    if command == "scan-alpha" and steps < 2:
        parser.error(f"--steps must be at least 2, got {steps}")
    if command == "grid":
        if alpha_steps < 2:
            parser.error(f"--alpha-steps must be at least 2, got {alpha_steps}")
        if k_steps < 2:
            parser.error(f"--k-steps must be at least 2, got {k_steps}")
        if k_min <= 0:
            parser.error("--k-min must be > 0")
        if k_min >= k_max:
            parser.error("--k-min must be strictly less than --k-max")
    if command == "resonances" and grid_steps < 100:
        parser.error(f"--grid-steps must be at least 100, got {grid_steps}")
    if command in ("resonances", "classify") and tol <= 0:
        parser.error("--tol must be > 0")
    if command == "converge" and radius <= 0:
        parser.error("--radius must be > 0")

    eps_list = None
    if command == "converge":
        rawlist = pick("eps_list", None)
        if rawlist is None:
            parser.error("--eps-list is required for converge")
        if isinstance(rawlist, str):
            try:
                eps_list = [float(x) for x in rawlist.split(",") if x.strip()]
            except ValueError:
                parser.error(f"--eps-list must be comma-separated numbers, got {rawlist!r}")
        else:
            eps_list = [float(x) for x in rawlist]
        if not eps_list or any(e <= 0 for e in eps_list):
            parser.error("--eps-list values must all be > 0")
        if any(a <= b_ for a, b_ in zip(eps_list, eps_list[1:])):
            parser.error("--eps-list must be strictly decreasing")

    fmt = pick("format", None)
    if fmt is None:
        fmt = "json" if command in ("resonances", "classify", "matrix") else "csv"

    model = Kind(pick("model"))
    alpha = getattr(ns, "alpha", None)
    if alpha is None and "alpha" in file_cfg:
        alpha = float(file_cfg["alpha"])
    if command == "matrix" and alpha is None:
        alpha = 0.0

    return RunConfig(
        command=command, model=model, c1=float(c1), c2=float(c2), sigma=sigma,
        eps=eps, k=k, alpha=alpha, alpha_min=alpha_min, alpha_max=alpha_max,
        steps=steps, alpha_steps=alpha_steps, k_min=k_min, k_max=k_max,
        k_steps=k_steps, grid_steps=grid_steps, tol=tol, match_tol=match_tol,
        radius=radius, eps_list=eps_list, out_format=fmt,
        out_path=pick("out_path", None), raw=pick("raw", None),
        x_left=float(pick("x_left")),
    )


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _scan_csv(rows) -> str:
    lines = ["alpha,k,T,log10T"]
    for a, k, t, logt in rows:
        lines.append(csv_row((a, k, t, logt)))
    return "\n".join(lines) + "\n"


def _complex_dict(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def run(config: RunConfig) -> int:
    cmd = config.command
    if cmd in ("scan-alpha", "grid"):
        alpha_range = (config.alpha_min, config.alpha_max)
        if cmd == "scan-alpha":
            g = grid(config.params(0.0), alpha_range, (config.k, config.k), config.steps, 1)
        else:
            g = grid(config.params(0.0), alpha_range, (config.k_min, config.k_max),
                     config.alpha_steps, config.k_steps)
        if config.out_format == "csv":
            _emit(_scan_csv(grid_csv_rows(g)), config.out_path)
        else:
            _emit(json_dumps(g.to_json_dict()) + "\n", config.out_path)
        return 0

    if cmd == "resonances":
        model_set, prime_set = resonance_sets(
            config.model, config.b, config.sigma,
            (config.alpha_min, config.alpha_max), config.grid_steps, config.tol)
        entries = sorted(model_set.roots + prime_set.roots, key=lambda r: r.alpha)
        payload = [{"alpha": r.alpha, "set": r.set_label.value, "n": r.index,
                    "theta": r.theta, "residual": r.residual} for r in entries]
        _emit(json_dumps(payload) + "\n", config.out_path)
        return 0

    if cmd == "converge":
        rows = converge_study(config.model, config.alpha, config.b, config.sigma,
                              config.k, config.eps_list, config.radius)
        if config.out_format == "csv":
            lines = ["eps,alpha_peak,T_peak,alpha_drift"]
            lines += [csv_row((r.eps, r.alpha_peak, r.t_peak, r.alpha_drift)) for r in rows]
            _emit("\n".join(lines) + "\n", config.out_path)
        else:
            payload = [{"eps": r.eps, "alpha_peak": r.alpha_peak, "T_peak": r.t_peak,
                        "alpha_drift": r.alpha_drift} for r in rows]
            _emit(json_dumps(payload) + "\n", config.out_path)
        return 0

    if cmd == "classify":
        sets = resonance_sets(config.model, config.b, config.sigma,
                              (config.alpha_min, config.alpha_max),
                              config.grid_steps, config.tol)
        result = classify(config.model, config.alpha, config.b, config.sigma,
                          sets, config.match_tol)
        payload = {
            "alpha": result.alpha,
            "model": config.model.value,
            "label": result.label.value,
            "set": result.matched_set.value if result.matched_set else None,
            "theta": result.theta,
            "t_limit": result.t_limit,
        }
        _emit(json_dumps(payload) + "\n", config.out_path)
        return 0

    if cmd == "matrix":
        E = config.k * config.k
        if config.raw:
            chain = _parse_raw_chain(config.raw, config.x_left)
            product = chain_matrix(chain, E)
            closed = None
        else:
            params = config.params(config.alpha if config.alpha is not None else 0.0)
            product = chain_matrix(realize(params), E)
            closed = closed_form(params, E)
        det = product.det()
        payload = {
            "model": None if config.raw else config.model.value,
            "alpha": config.alpha,
            "k": config.k,
            "product": {name: _complex_dict(z)
                        for name, z in zip(("m11", "m12", "m21", "m22"), product.entries())},
            "closed_form": None if closed is None else {
                name: _complex_dict(z)
                for name, z in zip(("m11", "m12", "m21", "m22"), closed.entries())},
            "det": _complex_dict(det),
            "det_error": abs(det - 1.0),
            "max_rel_diff": None if closed is None else
                product.max_abs_diff(closed) / (1.0 + product.max_abs_entry()),
        }
        _emit(json_dumps(payload) + "\n", config.out_path)
        return 0

    raise ValueError(f"unknown command {cmd!r}")


def _parse_raw_chain(spec: str, x_left: float) -> SegmentChain:
    segs = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            value_s, width_s = part.split(":")
            segs.append(Segment(width=float(width_s), value=float(value_s)))
        except ValueError as e:
            raise ValueError(f"--raw entry {part!r} is not 'value:width': {e}") from None
    if not segs:
        raise ValueError("--raw chain is empty")
    return SegmentChain(tuple(segs), x_left)


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        return run(config)
    except (ValueError, PoleError, NoPeakError, WindowTooCoarseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
