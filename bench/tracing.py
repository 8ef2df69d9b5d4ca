"""Per-layer tracing from outside the program.

Wrappers go around public functions of each bwtunnel module, in the home
module and in every module that binds the same function object by name, so
calls between modules are caught too. Coarse calls record a span (name,
start, end, parent span, operation id); per-point calls record only a count
and busy time. Every wrapper also subtracts its children, which gives each
function its self time. The tracer's own bookkeeping after a call is counted
as child time of the caller, so it lands in no layer's self time.
"""

from __future__ import annotations

import importlib
import sys
import time

LAYERS = ("cli", "serialize", "scattering", "transfer", "resonance", "zerolimit", "potential")

# (module, function, kind): "span" records spans, "point" only counts and
# busy time, "gen" times every step of a generator.
TARGETS = (
    ("cli", "main", "span"),
    ("cli", "parse_args", "span"),
    ("cli", "run", "span"),
    ("serialize", "json_dumps", "span"),
    ("serialize", "csv_row", "point"),
    ("scattering", "scan_alpha", "span"),
    ("scattering", "grid", "span"),
    ("scattering", "grid_csv_rows", "gen"),
    ("scattering", "transmissivity", "point"),
    ("transfer", "chain_matrix", "point"),
    ("resonance", "resonance_sets", "span"),
    ("resonance", "find_roots", "span"),
    ("resonance", "peak_refine", "span"),
    ("resonance", "f_plus", "point"),
    ("resonance", "f_minus", "point"),
    ("resonance", "f_prime", "point"),
    ("zerolimit", "classify", "span"),
    ("zerolimit", "converge_study", "span"),
    ("potential", "realize", "point"),
)

RESIDUALS = ("resonance.f_plus", "resonance.f_minus", "resonance.f_prime")


class Tracer:
    """Holds the spans and per-operation statistics of one traced phase."""

    def __init__(self):
        # frame: [child seconds, id of the nearest enclosing span]
        self.stack = [[0.0, None]]
        self.spans: list[tuple] = []
        self.span_seq = 0
        self.op_id: int | None = None
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counts: dict[str, int] = {}
        self.bindings: dict[str, list[str]] = {}

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.stats = {}
        self.counts = {}

    def _count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _finish(self, name, frame, parent, t0, t1, coarse):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += t1 - t0
        st[2] += t1 - t0 - frame[0]
        if coarse:
            self.spans.append((frame[1], name, t0, t1, parent[1], self.op_id))

    def wrap(self, name: str, orig, coarse: bool, after=None):
        stack, finish, clock = self.stack, self._finish, time.perf_counter
        pole_error = sys.modules["bwtunnel.resonance"].PoleError

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, self._next_span_id() if coarse else parent[1]]
            stack.append(frame)
            t0 = clock()
            t1 = None
            try:
                result = orig(*args, **kwargs)
                t1 = clock()
                if after is not None:
                    after(result)
                return result
            except pole_error:
                t1 = clock()
                if name in RESIDUALS:
                    self._count("resonance.pole_errors", 1)
                raise
            finally:
                if t1 is None:
                    t1 = clock()
                stack.pop()
                finish(name, frame, parent, t0, t1, coarse)
                parent[0] += clock() - t0

        wrapper.__wrapped__ = orig
        return wrapper

    def _next_span_id(self) -> int:
        self.span_seq += 1
        return self.span_seq

    def wrap_gen(self, name: str, orig):
        """Time each step of the generator orig returns, as per-point calls."""
        stack, finish, clock = self.stack, self._finish, time.perf_counter

        def wrapper(*args, **kwargs):
            gen = orig(*args, **kwargs)

            def timed():
                while True:
                    parent = stack[-1]
                    frame = [0.0, parent[1]]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        t1 = clock()
                        stack.pop()
                        finish(name, frame, parent, t0, t1, False)
                        parent[0] += clock() - t0
                    yield item

            return timed()

        wrapper.__wrapped__ = orig
        return wrapper

    def install(self) -> None:
        """Wrap every target wherever the bwtunnel package binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "bwtunnel" or n.startswith("bwtunnel."))]
        afters = {
            "scattering.scan_alpha": lambda pts: self._count("scattering.scan_alpha_points", len(pts)),
            "scattering.grid": lambda g: self._count("scattering.grid_points", int(g.values.size)),
        }
        for mod, fn, kind in TARGETS:
            home = importlib.import_module(f"bwtunnel.{mod}")
            orig = getattr(home, fn)
            name = f"{mod}.{fn}"
            if kind == "gen":
                wrapped = self.wrap_gen(name, orig)
            else:
                wrapped = self.wrap(name, orig, kind == "span", afters.get(name))
            sites = []
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)
                        sites.append(f"{m.__name__}.{attr}")
            self.bindings[name] = sites

    def op_record(self) -> dict:
        """Statistics of the operation since begin_op, keyed by function."""
        return {"stats": {k: list(v) for k, v in self.stats.items()}, "counts": dict(self.counts)}
