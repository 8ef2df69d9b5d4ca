"""Command-line front end. Batch computations, plot-ready CSV/JSON output.

Every value reaches the library through argparse. Each flag is declared
once in ``_FLAGS`` with its default and a type converter that checks its
range (numbers must be finite); ``_COMMANDS`` lists the flags of each
subcommand. A JSON config file (``--config``) is turned into
``--flag=value`` tokens that are parsed before the command line's own
flags, so its keys are flag names, its values pass the same checks and
an explicit flag wins. Only the required flags (checked once the
config is merged, so a config may supply them) and checks that span
several flags run after parsing. Scans and grids are written block by
block as they are computed. The writers produce ASCII bytes: a --out file
receives them as they are, and stdout receives them decoded, so any text
stream serves. A failure after the range checks removes the partial
--out file if it is a regular file. Exit codes: 0 success, 1
computation error, 2 usage error. Identical invocations produce
byte-identical output, the same on stdout and in --out: fixed float
formatting, fixed ordering, no environment dependence.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import stat
import sys
from pathlib import Path

from .potential import BWParams, Kind, Segment, SegmentChain, realize
from .resonance import (
    NoPeakError,
    WindowTooCoarseError,
    resonance_sets,
    resonance_sets_near,
)
from .scattering import BLOCK_POINTS, grid_blocks, log10_transmission
from .serialize import (
    BlockLayout,
    csv_row,
    floats,
    format_block,
    format_column,
    format_rows,
    json_dumps,
    quote_nonfinite,
)
from .transfer import chain_matrix, closed_form
from .zerolimit import classify, converge_study


def _checked(what: str, ok=lambda v: True, cast=float):
    """Type converter: a finite number for which ``ok`` holds, cast by ``cast``."""
    def convert(text: str):
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and ok(value)):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return cast(value)
    return convert


_finite = _checked("a finite number")
_positive = _checked("a finite number > 0", lambda v: v > 0)
_nonneg = _checked("a finite number >= 0", lambda v: v >= 0)


def _count(least: int):
    # integral floats count too, so a JSON config may write 4000.0
    return _checked(f"an integer >= {least}", lambda v: v >= least and v.is_integer(), int)


def _eps_list(text: str) -> list[float]:
    eps = [_positive(x) for x in text.split(",") if x.strip()]
    if not eps or any(a <= b for a, b in zip(eps, eps[1:])):
        raise argparse.ArgumentTypeError(f"must be strictly decreasing, got {text!r}")
    return eps


def _raw_chain(text: str) -> tuple[Segment, ...]:
    segs = []
    for part in filter(None, (p.strip() for p in text.split(","))):
        try:
            value, width = part.split(":")
            segs.append(Segment(width=float(width), value=float(value)))
        except ValueError as e:
            raise argparse.ArgumentTypeError(f"entry {part!r} is not 'value:width': {e}") from None
    if not segs:
        raise argparse.ArgumentTypeError("the chain is empty")
    return tuple(segs)


_FLAGS = {
    "model": dict(type=Kind, default=Kind.PLUS, metavar="{plus,minus}",
                  help="arrangement: plus (barrier-well repeated) or minus (mirror); default plus"),
    "b": dict(type=_positive, help="shape ratio c1/c2 > 0; sets c1=b, c2=1 (default 3)"),
    "c1": dict(type=_positive, help="barrier shape constant > 0 (use together with --c2)"),
    "c2": dict(type=_positive, help="well shape constant > 0 (use together with --c1)"),
    "sigma": dict(type=_nonneg, default=1.0, help="well-depth control, >= 0 (default %(default)s)"),
    "config": dict(help="JSON file of flag values; keys are flag names, explicit flags win"),
    "out": dict(dest="out_path", metavar="PATH", help="write output to this file instead of stdout"),
    "format": dict(dest="out_format", choices=("csv", "json"), default="csv",
                   help="output format (default %(default)s)"),
    "alpha": dict(type=_finite, default=0.0,
                  help="strength (required by converge and classify; matrix default 0.0)"),
    "k": dict(type=_positive, default=1.0, help="wave number > 0 (default %(default)s)"),
    "eps": dict(type=_positive, default=0.1, help="squeezing parameter > 0 (default %(default)s)"),
    "alpha-min": dict(type=_finite, default=-40.0, help="strength window lower edge (default %(default)s)"),
    "alpha-max": dict(type=_finite, default=40.0, help="strength window upper edge (default %(default)s)"),
    "steps": dict(type=_count(2), default=4000, help="grid points, >= 2 (default %(default)s)"),
    "alpha-steps": dict(type=_count(2), default=401, help="strength grid points, >= 2 (default %(default)s)"),
    "k-min": dict(type=_positive, default=0.01, help="wave number lower edge, > 0 (default %(default)s)"),
    "k-max": dict(type=_finite, default=10.0, help="wave number upper edge (default %(default)s)"),
    "k-steps": dict(type=_count(2), default=201, help="wave number grid points, >= 2 (default %(default)s)"),
    "grid-steps": dict(type=_count(100), default=20000, help="root-scan cells, >= 100 (default %(default)s)"),
    "tol": dict(type=_positive, default=1e-10, help="bisection width tolerance > 0 (default %(default)s)"),
    "match-tol": dict(type=_nonneg, default=1e-6, help="set-membership tolerance >= 0 (default %(default)s)"),
    "radius": dict(type=_positive, default=0.5, help="search radius around the strength (default %(default)s)"),
    "eps-list": dict(type=_eps_list, help="comma-separated strictly decreasing eps values > 0 (required)"),
    "raw": dict(type=_raw_chain, help="explicit chain 'value:width,value:width,...' instead of the "
                                      "eps parametrization (no closed form available)"),
}

_COMMON = ("model", "b", "c1", "c2", "sigma", "config", "out")

# command: (help, optional flags beyond _COMMON, required flags); without --format it writes JSON
_COMMANDS = {
    "scan-alpha": ("transmissivity vs strength at fixed wave number",
                   ("format", "k", "eps", "alpha-min", "alpha-max", "steps"), ()),
    "grid": ("transmissivity over an (alpha, k) grid",
             ("format", "eps", "alpha-min", "alpha-max", "alpha-steps", "k-min", "k-max", "k-steps"), ()),
    "resonances": ("quantized transparency strengths in a window (JSON)",
                   ("alpha-min", "alpha-max", "grid-steps", "tol"), ()),
    "converge": ("finite-squeezing peak drift toward a limiting strength",
                 ("format", "k", "radius"), ("alpha", "eps-list")),
    "classify": ("limiting transparency of one strength (JSON), from the root-scan cells "
                 "within --match-tol of it and one more on each side",
                 ("alpha-min", "alpha-max", "grid-steps", "tol", "match-tol"), ("alpha",)),
    "matrix": ("transfer matrix diagnostics at one point (JSON)",
               ("alpha", "k", "eps", "raw"), ()),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves it unchanged, so calls share it."""
    parser = argparse.ArgumentParser(
        prog="bwtunnel",
        description="Resonant tunneling through squeezed barrier-well structures. "
                    "Defaults follow the reference configuration; see each command's --help.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, flags, required) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag in (*_COMMON, *flags):
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        for flag in required:  # no default: parse_args checks it after the --config merge
            p.add_argument(f"--{flag}", **{**_FLAGS[flag], "default": None})
        if "format" not in flags:
            p.set_defaults(out_format="json")
    return parser


def _config_tokens(path: str, command: str, parser: argparse.ArgumentParser) -> list[str]:
    """The config file as ``--flag=value`` tokens for ``command``.

    Keys are flag names (``alpha-min`` or ``alpha_min``). Keys of other
    commands are skipped, so one file can serve several; a null value
    leaves its flag unset and a list is joined with commas.
    """
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        parser.error(f"--config {path}: {e}")
    if not isinstance(data, dict):
        parser.error(f"--config {path}: top level must be a JSON object")
    _, flags, required = _COMMANDS[command]
    tokens = []
    for key, value in data.items():
        flag = key.replace("_", "-")
        if flag not in _FLAGS:
            parser.error(f"--config {path}: key {key!r} is not a flag of any command")
        if flag in (*_COMMON, *flags, *required) and value is not None:
            if isinstance(value, list):
                value = ",".join(map(str, value))
            tokens.append(f"--{flag}={value}")
    return tokens


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.config:
        ns = parser.parse_args([ns.command, *_config_tokens(ns.config, ns.command, parser), *argv[1:]])

    if ns.b is not None and (ns.c1 is not None or ns.c2 is not None):
        parser.error("provide either --b or the pair --c1/--c2, not both")
    if (ns.c1 is None) != (ns.c2 is None):
        parser.error("--c1 and --c2 must be given together")
    if ns.c1 is None:
        ns.c1, ns.c2 = (3.0 if ns.b is None else ns.b), 1.0
    ns.b = ns.c1 / ns.c2
    if "alpha_min" in ns and ns.alpha_min >= ns.alpha_max:
        parser.error("--alpha-min must be strictly less than --alpha-max")
    if "k_min" in ns and ns.k_min >= ns.k_max:
        parser.error("--k-min must be strictly less than --k-max")
    for flag in _COMMANDS[ns.command][2]:
        if getattr(ns, flag.replace("-", "_")) is None:
            parser.error(f"--{flag} is required for {ns.command}")
    return ns


def _params(config: argparse.Namespace, alpha: float) -> BWParams:
    return BWParams(kind=config.model, alpha=alpha, eps=config.eps,
                    c1=config.c1, c2=config.c2, sigma=config.sigma)


class _Decoded:
    """A binary sink over a text stream: each write's ASCII bytes go to it decoded."""

    def __init__(self, stream):
        self.stream = stream

    def write(self, data: bytes) -> None:
        self.stream.write(data.decode("ascii"))


@contextlib.contextmanager
def _output(out_path: str | None):
    """A binary sink: the --out file, or stdout without one; a failed run leaves no partial file.

    Only a regular file is removed: a FIFO, a device or a symlink given
    as --out (whose target the open truncated) stays where it is.
    """
    if not out_path:
        yield _Decoded(sys.stdout)
        return
    with open(out_path, "wb") as out:
        try:
            yield out
        except BaseException:
            out.close()
            if stat.S_ISREG(os.lstat(out_path).st_mode):
                os.remove(out_path)
            raise


def _emit(data: bytes, out_path: str | None) -> None:
    with _output(out_path) as out:
        out.write(data)


def _write_json_floats(out, values) -> None:
    """A JSON list's floats, BLOCK_POINTS at a time, so a long axis costs no more than a block."""
    layout = BlockLayout(17, (b", ", b""))
    for i in range(0, len(values), BLOCK_POINTS):
        text = quote_nonfinite(format_block((values[i:i + BLOCK_POINTS],), layout))
        out.write(text if i else text[2:])  # no separator before the first value


def _write_grid(out, out_format: str, alphas, ks, blocks) -> None:
    """Write a grid's rows (CSV) or its axes and value rows (JSON) block by block.

    A scan's CSV rows and every JSON block go through
    serialize.format_block, which writes most cells as %d fields of their
    significands into one row template per run of rows of equal layout: a
    scan row is three value columns, its one k text inside the template,
    at 12 digits, and JSON is written at 17. Each output keeps one
    BlockLayout, so its blocks share the cell texts. A grid's CSV rows
    change layout every few cells along k, so runs would be short; there
    each block is one bytes %.12g fill, with each alpha and k text
    formatted once and written into the template, so % fills only T and
    log10T.
    """
    if out_format == "csv":
        out.write(b"alpha,k,T,log10T\n")
        k_texts = format_column(ks, 12)
        if len(k_texts) == 1:  # a scan: alpha is a field, the one k a constant
            layout = BlockLayout(12, (b"", b"," + k_texts[0] + b",", b",", b"\n"))
            for a, t in blocks:
                t = t.ravel()
                out.write(format_block((a, t, log10_transmission(t.tolist())), layout))
            return
        tails = [k + b",%.12g,%.12g\n" for k in k_texts]
        for a, t in blocks:
            heads = [text + b"," for text in format_column(a, 12)]
            template = b"".join(head + head.join(tails) for head in heads)
            ts = floats(t)
            out.write(format_rows(template, (ts, log10_transmission(ts))))
        return
    out.write(b'{"alphas": [')
    _write_json_floats(out, alphas)
    out.write(b'], "ks": [')
    _write_json_floats(out, ks)
    out.write(b'], "values": [')
    layout = BlockLayout(17, (b", [",) + (b", ",) * (len(ks) - 1) + (b"]",))
    for i, (a, t) in enumerate(blocks):
        rows = quote_nonfinite(format_block(t.T, layout))
        out.write(rows if i else rows[2:])  # no separator before the first row
    out.write(b"]}\n")


def _complex_dict(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def run(config: argparse.Namespace) -> int:
    cmd = config.command
    if cmd in ("scan-alpha", "grid"):
        alpha_range = (config.alpha_min, config.alpha_max)
        # the range checks run here, before --out is opened
        if cmd == "scan-alpha":
            parts = grid_blocks(_params(config, 0.0), alpha_range, (config.k, config.k),
                                config.steps, 1)
        else:
            parts = grid_blocks(_params(config, 0.0), alpha_range, (config.k_min, config.k_max),
                                config.alpha_steps, config.k_steps)
        with _output(config.out_path) as out:
            _write_grid(out, config.out_format, *parts)
        return 0

    if cmd == "resonances":
        model_set, prime_set = resonance_sets(
            config.model, config.b, config.sigma,
            (config.alpha_min, config.alpha_max), config.grid_steps, config.tol)
        entries = sorted(model_set.roots + prime_set.roots, key=lambda r: r.alpha)
        payload = [{"alpha": r.alpha, "set": r.set_label.value, "n": r.index,
                    "theta": r.theta, "residual": r.residual} for r in entries]
        _emit(json_dumps(payload) + b"\n", config.out_path)
        return 0

    if cmd == "converge":
        rows = converge_study(config.model, config.alpha, config.b, config.sigma,
                              config.k, config.eps_list, config.radius)
        if config.out_format == "csv":
            lines = [b"eps,alpha_peak,T_peak,alpha_drift"]
            lines += [csv_row((r.eps, r.alpha_peak, r.t_peak, r.alpha_drift)) for r in rows]
            _emit(b"\n".join(lines) + b"\n", config.out_path)
        else:
            payload = [{"eps": r.eps, "alpha_peak": r.alpha_peak, "T_peak": r.t_peak,
                        "alpha_drift": r.alpha_drift} for r in rows]
            _emit(json_dumps(payload) + b"\n", config.out_path)
        return 0

    if cmd == "classify":
        # the sets on the grid cells around the strength: all that matching it reads
        sets = resonance_sets_near(config.model, config.b, config.sigma, config.alpha,
                                   config.match_tol, (config.alpha_min, config.alpha_max),
                                   config.grid_steps, config.tol)
        result = classify(config.model, config.alpha, sets, config.match_tol)
        payload = {
            "alpha": result.alpha,
            "model": config.model.value,
            "label": result.label.value,
            "set": result.matched_set.value if result.matched_set else None,
            "theta": result.theta,
            "t_limit": result.t_limit,
        }
        _emit(json_dumps(payload) + b"\n", config.out_path)
        return 0

    if cmd == "matrix":
        E = config.k * config.k
        if config.raw:
            product = chain_matrix(SegmentChain(config.raw), E)
            closed = None
        else:
            params = _params(config, config.alpha)
            product = chain_matrix(realize(params), E)
            closed = closed_form(params, E)
        det = product.det()
        payload = {
            "model": None if config.raw else config.model.value,
            "alpha": None if config.raw else config.alpha,
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
        _emit(json_dumps(payload) + b"\n", config.out_path)
        return 0

    raise ValueError(f"unknown command {cmd!r}")


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        return run(config)
    # ArithmeticError covers PoleError and math range errors such as cmath's overflow
    except (ValueError, ArithmeticError, NoPeakError, WindowTooCoarseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
