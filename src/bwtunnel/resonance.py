"""Resonance conditions at finite squeezing and their zero-range limits.

The limiting equations quantize the strength values at which the
squeezed structures stay transparent. Each residual is written once, in
real arithmetic, on two slab phases: one under tanh/cosh and one under
tan/cos. Continuing a residual to negative strengths turns it purely
real or purely imaginary and swaps its trigonometric and hyperbolic
factors, so the real form there is that swap, with the tan phase moved
from the well slot to the barrier slot.

Each residual is one formula on the terms of one shared step (the
phases and their tanh and tan). _residual_rows, the one residual body,
evaluates formulas over a numpy array of strengths as the rows of one
array; the scalar names f_plus, f_minus and f_prime are one point of it
and raise PoleError where the cos of the tan phase is within 1e-12 of
zero, and theta_factor reads its phases off one point of the same step.
numpy's tan and tanh can differ from math's by an ulp or two, and so can
the residuals in their last digits.

The finder is a bracketing bisection on the signs of its samples. It
knows the residuals alternate roots with tan poles and drops, by one
relative magnitude rule, each bisection that closed in on a pole; a NaN
sample is neither sign and drops its bracket. It scans all cells of the
grid in lockstep over the rows of one array body, then bisects every
sign-change cell of every row on evenly spaced samples: one residual
call evaluates 15 samples that cut every bracket into 16 equal
sections, and each bracket takes four bisection steps on its own row's
samples. resonance_sets finds both of its sets in one such pass, and
resonance_sets_near in one over the grid cells around one strength;
find_roots lifts a scalar callable into it as one row.

peak_refine finds a transmission crest by zooming on the closed-form
kernel of scattering.grid, the route of scans and grids; the slab
product stays out of it, as the independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .potential import BWParams, Kind, bw_geometry, sigma_split
from .scattering import BLOCK_POINTS, _check_steps, grid


class PoleError(ArithmeticError):
    """Residual evaluated too close to a tan/cot/cos singularity."""


class WindowTooCoarseError(RuntimeError):
    """Two roots landed inside one scan cell; rescan with a finer grid."""


class NoPeakError(RuntimeError):
    """Transmission is monotone across the requested bracket."""


class SetLabel(Enum):
    SIGMA_PLUS = "SigmaPlus"
    SIGMA_MINUS = "SigmaMinus"
    SIGMA_PRIME = "SigmaPrime"


@dataclass(frozen=True)
class ResonanceRoot:
    """One quantized strength with its set membership and outward index.

    theta is populated only for SIGMA_PRIME entries; residual is |f| at
    the returned root (0 by convention for the trivial strength 0). index
    is None for a nonzero root of resonance_sets_near, which does not
    count the roots outside its cells.
    """

    alpha: float
    set_label: SetLabel
    index: int | None
    theta: float | None
    residual: float


@dataclass(frozen=True)
class ResonanceSet:
    roots: tuple[ResonanceRoot, ...]
    window: tuple[float, float]
    b: float
    sigma: float

    def alphas(self) -> list[float]:
        return [r.alpha for r in self.roots]


_POLE_TOL = 1e-12


def _check_bsigma(b: float, sigma: float) -> None:
    # float bounds: an int operand would take the slower mixed comparison
    if not (0.0 < b < math.inf):
        raise ValueError(f"b must be finite and > 0, got {b}")
    if not (0.0 <= sigma < math.inf):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")


def _near_pole(c):
    """The one pole test: |c| < _POLE_TOL, for c the cos under a tan or the sin under a cot."""
    return abs(c) < _POLE_TOL


def _residual_phases(alpha, b: float, sigma: float):
    """(alpha, sp, sm, x, y, tanh x, tan y): the step all limiting residuals and theta share.

    Runs the input checks, then elementwise over strengths: the slots
    (sp, sm) of potential.sigma_split and the two limiting slab phases x,
    y, both real. x goes under tanh/cosh and y under tan/cos. For positive
    strengths y is the well slot's phase; continuation to negative
    strengths swaps the trigonometric and hyperbolic factors, so there y
    is the barrier slot's. Only y carries sigma, so sigma = 0 gives y = 0.
    Last come the tanh and tan of the phases; the hyperbolic factors are
    pole free, and the tan is taken as it is even at a pole.
    """
    _check_bsigma(b, sigma)
    alpha = np.asarray(alpha, dtype=float)
    sp, sm = sigma_split(alpha, sigma)
    a = np.abs(alpha)
    finite = a < math.inf
    if not finite.all():
        raise ValueError(f"alpha must be finite, got {alpha[~finite][0]}")
    barrier = np.sqrt(2.0 * a * sp / (1.0 + 1.0 / b))
    well = np.sqrt(2.0 * a * sm / (1.0 + b))
    finite = barrier + well < math.inf
    if not finite.all():
        raise ValueError(f"the slab phases of strength {alpha[~finite][0]} are not finite")
    up = alpha >= 0
    x, y = np.where(up, barrier, well), np.where(up, well, barrier)
    return alpha, sp, sm, x, y, np.tanh(x), np.tan(y)


def _ratio(sp: np.ndarray, sm: np.ndarray, b: float, sigma: float) -> np.ndarray:
    """r = sqrt(b*sm/sp) of potential.sigma_split's slots (sp, sm), elementwise.

    b*sm/sp overflows at a huge b or a subnormal sigma where its square
    root may not, so r then comes from sqrt(b), sqrt(sm) and sqrt(sp).
    Raises ValueError where r itself is not finite; at negative strengths
    with sigma = 0 (sp = 0) it is inf, and unused.
    """
    with np.errstate(over="ignore", divide="ignore"):
        r = np.sqrt(b * sm / sp)
        big = r == math.inf
        if big.any():
            big &= sp != 0.0
            r[big] = math.sqrt(b) * np.sqrt(sm[big]) / np.sqrt(sp[big])
            if (r[big] == math.inf).any():
                raise ValueError(f"r = sqrt(b / sigma) is not finite at b = {b}, sigma = {sigma}")
    return r


def _tanc(z, tan_z):
    """tan(z)/z from tan_z = tan(z), continuous through z = 0."""
    return _over_z(z, tan_z, 1.0)


def _tanhc(z, tanh_z):
    """tanh(z)/z from tanh_z = tanh(z), continuous through z = 0."""
    return _over_z(z, tanh_z, -1.0)


def _over_z(z, t, sign: float):
    """t/z, or the series 1 + sign*z^2/3 + 2z^4/15 of tan(z)/z (sign 1) or tanh(z)/z (sign -1).

    The series takes the lanes where |z| < 1e-6 and sees 0 on the others,
    so no z^4 of a large phase overflows. z may be an array or a float.
    """
    small = np.abs(z) < 1e-6
    if not small.any():  # the common case: no series lane, no zero divisor
        return t / z
    zs = np.where(small, z, 0.0)
    z2 = zs * zs
    return np.where(small, 1.0 + sign * z2 / 3.0 + 2.0 * z2 * z2 / 15.0, t / np.where(small, 1.0, z))


def _plus(alpha, sp, sm, x, y, tx, ty, b: float, sigma: float) -> np.ndarray:
    """The f_plus formula on the shared step's terms."""
    c = np.where(alpha >= 0, b, 1.0 / b)
    return c * y * ty * _tanhc(x, tx) - x * tx * _tanc(y, ty) / c - 2.0


def _minus(alpha, sp, sm, x, y, tx, ty, b: float, sigma: float) -> np.ndarray:
    """The f_minus formula on the shared step's terms."""
    t = tx * ty
    f = np.where(alpha >= 0, t, -t) + _ratio(sp, sm, b, sigma)
    if sigma == 0.0:
        # the rescaled residuals: sm = 0 at positive strengths, sp = 0 at negative ones
        rescaled = tx * np.sqrt(2.0 * np.abs(alpha) / (1.0 + b)) + math.sqrt(b)
        f = np.where(alpha > 0, rescaled, np.where(alpha < 0, 1.0, f))
    return f


def _prime(alpha, sp, sm, x, y, tx, ty, b: float, sigma: float) -> np.ndarray:
    """The f_prime formula on the shared step's terms."""
    r = _ratio(sp, sm, b, sigma)
    up = alpha >= 0
    # r is inf at negative strengths when sigma = 0, where the value is
    # replaced below; where tanh(x) underflows to 0 there too, inf * 0 is a
    # nan without a warning
    with np.errstate(invalid="ignore"):
        f = np.where(up, tx, ty) - r * np.where(up, ty, tx)
    if sigma == 0.0:
        f = np.where(alpha < 0, -tx, f)  # the imaginary part over its diverging prefactor
    return f


# each arrangement's own limiting formula and the label of its model set
MODEL_SETS = {Kind.PLUS: (_plus, SetLabel.SIGMA_PLUS), Kind.MINUS: (_minus, SetLabel.SIGMA_MINUS)}


def _residual_rows(formulas, alpha, b: float, sigma: float) -> np.ndarray:
    """The formulas' residuals at strengths as the rows of one array, as the formulas give them.

    One shared step serves every row, poles untested; the rows are computed
    in order, so the first formula's exception comes first.
    """
    terms = _residual_phases(alpha, b, sigma)
    return np.array([formula(*terms, b, sigma) for formula in formulas])


def _check_poles(alphas: Sequence[float], y: np.ndarray) -> None:
    """PoleError at the first strength whose tan phase y is near a pole (_near_pole).

    The one pole check of the scalar wrappers (one strength) and of the
    residual fields of resonance_sets (the roots of one set), whose values
    come from the same shared step and formulas, so those fields equal the
    wrappers' |f| bit for bit.
    """
    pole = _near_pole(np.cos(y))
    if np.count_nonzero(pole):  # cheaper than pole.any() on the one-point mask of a wrapper
        alpha = alphas[int(np.argmax(pole))]
        raise PoleError(f"the tan phase of strength {alpha} is within {_POLE_TOL} of a pole")


def _scalar(formula, alpha: float, b: float, sigma: float) -> float:
    """One point of a formula's residual as a float; PoleError near a tan pole."""
    terms = _residual_phases(np.array([alpha], dtype=float), b, sigma)
    value = formula(*terms, b, sigma)
    _check_poles([alpha], terms[4])
    return float(value[0])


def f_plus(alpha: float, b: float, sigma: float) -> float:
    """Residual of the limiting strength equation for the repeated pair.

    Zero exactly at the quantized strengths of the first transparency
    set. Written with tan(y)/y and tanh(x)/x so that it stays regular at
    sigma = 0, where the prefactor 1/sqrt(sigma) and the vanishing tan
    argument would otherwise meet in a 0*inf; in the degenerate case the
    residual stays strictly negative, matching the disappearance of
    finite roots. One point of the array body; raises PoleError where
    its tan phase is near a pole.
    """
    return _scalar(_plus, alpha, b, sigma)


def f_minus(alpha: float, b: float, sigma: float) -> float:
    """Residual of the limiting strength equation for the mirror pair.

    At sigma = 0 the literal residual degenerates (it collapses to zero
    identically for positive strengths and diverges for negative ones),
    so those branches return the direction-of-approach rescaled
    residual, which is finite, strictly positive, and rootless. One
    point of the array body; raises PoleError where its tan phase is near
    a pole.
    """
    return _scalar(_minus, alpha, b, sigma)


def f_prime(alpha: float, b: float, sigma: float) -> float:
    """Residual of the shared limiting equation of both arrangements.

    Vanishes identically at strength 0 (a degenerate double root that
    the set builder excludes). For negative strengths continuation makes
    the residual purely imaginary, and its imaginary part is returned;
    at sigma = 0 that part diverges, so it is returned divided by its
    diverging prefactor. One point of the array body; raises PoleError
    where its tan phase is near a pole.
    """
    return _scalar(_prime, alpha, b, sigma)


def theta_factor(alpha: float, b: float, sigma: float) -> float:
    """Wave-function discontinuity factor at a root of f_prime.

    cosh over cos of the two limiting slab phases of the shared step, for
    the same (b, sigma) as the residuals; continuation to negative
    strengths swaps them into cos over cosh. Signals PoleError when the
    denominator is within 1e-12 of zero.
    """
    _, _, _, x, y, *_ = _residual_phases(np.array([alpha], dtype=float), b, sigma)
    return _theta(alpha, float(x[0]), float(y[0]))


def _theta(alpha: float, x: float, y: float) -> float:
    """theta_factor from the two limiting slab phases of the strength alpha."""
    if alpha < 0:
        return math.cos(y) / math.cosh(x)
    denom = math.cos(y)
    if _near_pole(denom):
        raise PoleError(f"cos denominator {denom!r} is within {_POLE_TOL} of zero")
    return math.cosh(x) / denom


def db_resonance_residual(k: float, alpha: float, eps: float, c1: float, c2: float) -> float:
    """Double-barrier resonance residual in the wave number.

    Applies to the well-free (sigma = 0) mirror structure with positive
    strength. A root implies perfect transmission, not the converse: the
    family sin(p*l) = 0, where each barrier is transparent on its own, is
    not among the roots (alpha = 10, eps = 0.2, b = 3: T = 1 at k = 8.3116,
    where the residual is -10.80). With p the barrier wave number it reads
    (p/k + k/p) tan(p*l) - 2 cot(2*k*r); tunneling wave numbers turn tan
    into tanh, and at p = 0 it takes its regular limit k*l - 2 cot(2*k*r).
    """
    if not (0 < k < math.inf):
        raise ValueError(f"k must be finite and > 0, got {k}")
    if not (0 < alpha < math.inf):
        raise ValueError(f"double-barrier residual needs a finite alpha > 0, got {alpha}")
    # the checks and the slabs of the well-free mirror pair
    h, l, _, r = bw_geometry(BWParams(Kind.MINUS, alpha, eps, c1, c2, 0.0))
    p2 = k * k - alpha * h
    p = math.sqrt(abs(p2))
    pl = p * l
    # an infinite phase (k*k overflows) meets math.tan's ValueError below
    if 0 < p2 < math.inf and _near_pole(math.cos(pl)):
        raise PoleError(f"tan argument {pl} is within {_POLE_TOL} of a pole")
    sin_kr = math.sin(2.0 * k * r)
    if _near_pole(sin_kr):
        raise PoleError(f"cot argument {2 * k * r} is within {_POLE_TOL} of a pole")
    cot = math.cos(2.0 * k * r) / sin_kr
    if p2 >= 0:
        t = math.tan(pl)
        return float(p / k * t + k * l * _tanc(pl, t) - 2.0 * cot)
    t = math.tanh(pl)
    return float(k * l * _tanhc(pl, t) - p / k * t - 2.0 * cot)


def find_roots(
    f: Callable[[float], float],
    window: tuple[float, float],
    grid_steps: int = 20000,
    tol: float = 1e-10,
) -> list[float]:
    """All roots of f in the window by sign-change bracketing.

    Scans a uniform grid and bisects each sign-change cell to the
    requested width. A PoleError or NaN sample is neither sign and drops
    a bracket that meets it, as does a pole crossing: |f| at the left end
    of the last bracket above |f| at both ends of the cell, a relative
    rule that keeps steep roots. Raises WindowTooCoarseError when two
    returned roots are closer than one grid cell, since siblings may then
    have been missed. grid_steps must be an integer >= 100 and tol finite
    and > 0. f is called one point at a time, under the same cell rules as
    the array residuals of resonance_sets; each bisection round calls it
    at 15 evenly spaced points of each bracket. At double-precision
    resolution such a point may equal an end of its bracket.
    """
    def f_array(xs: np.ndarray) -> np.ndarray:
        values = np.full((1, xs.size), np.nan)  # NaN where f raises PoleError
        for i, x in enumerate(xs.tolist()):
            try:
                values[0, i] = f(x)
            except PoleError:
                pass
        return values

    return _bracket_roots(f_array, window, grid_steps, tol)[0]


def _bracket_roots(f, window: tuple[float, float], grid_steps: int, tol: float,
                   near: tuple[float, float] | None = None) -> list[list[float]]:
    """find_roots for an array body f: strengths -> residual rows.

    f returns a 2-D array with one row per residual; the result is one
    root list per row. A cell is bracketed where its ends are numbers of
    opposite sign (signs, not values, are multiplied, exact at any scale;
    NaN is neither). Every row and every cell follow the same rules, in
    lockstep, so one call of f serves all rows per scan block and per
    bisection round. The scan hands f BLOCK_POINTS cells at a time, so the
    residual's temporaries stay small whatever grid_steps is.
    Where two rows raise WindowTooCoarseError, the first row's is raised.

    With near = (lo', hi'), only the window's grid cells that touch
    [lo', hi'] are solved, plus one neighbouring cell on each side (at
    least one cell). They are the same points of the same grid, so the
    roots in [lo', hi'] are the full pass's, bit for bit: a root is
    dropped as a copy of one less than max(tol, 1e-12) below it, which
    lies in its own cell or the one before. A pair among the solved
    cells' roots closer than one cell raises WindowTooCoarseError as in
    the full pass; roots, pairs and errors of the other cells are never
    seen. Where max(tol, 1e-12) is half a cell or more, such copies may
    chain across cells, so every cell is solved.
    """
    lo, hi = window
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"window must be finite, got {window}")
    if not lo < hi:
        raise ValueError(f"window must satisfy lo < hi, got {window}")
    _check_steps("grid", grid_steps, 100)
    if not (0.0 < tol < math.inf):
        raise ValueError(f"tol must be finite and > 0, got {tol}")

    xs = np.linspace(lo, hi, grid_steps + 1)
    if near is not None and 2.0 * max(tol, 1e-12) < (hi - lo) / grid_steps:
        first = max(int(np.searchsorted(xs, near[0])) - 2, 0)
        stop = min(int(np.searchsorted(xs, near[1], "right")) + 1, grid_steps)
        xs = xs[first:max(stop, first + 1) + 1]
    zeros, cells = [], []
    for start in range(0, xs.size - 1, BLOCK_POINTS):
        x = xs[start:start + BLOCK_POINTS + 1]
        fx = f(x)
        s = np.sign(fx)
        # the few cells whose ends do not share a sign hold every zero and
        # sign change; the rules are applied to them alone
        row, i = np.nonzero(~(s[:, :-1] * s[:, 1:] > 0))
        fa, fb = fx[row, i], fx[row, i + 1]
        change = s[row, i] * s[row, i + 1] < 0  # ends that are numbers of opposite sign
        # a zero at the right end is recorded by the next cell
        zero = fa == 0.0
        zeros.append((row[zero], x[i[zero]]))
        row, i = row[change], i[change]
        cells.append((row, x[i], x[i + 1], fa[change], fb[change]))
    row = np.flatnonzero(fx[:, -1] == 0.0)
    zeros.append((row, xs[-1:].repeat(row.size)))
    roots: list[list[float]] = [[] for _ in fx]
    for row, x in zeros:
        for r, root in zip(row.tolist(), x.tolist()):
            roots[r].append(root)
    row, a, b, fa, fb = (np.concatenate(c) for c in zip(*cells))
    row = row.tolist()
    found = _bisect(f, list(zip(row, a.tolist(), b.tolist(), fa.tolist())), tol)
    # a pole crossing, not a root: |f| at the left end of the last bracket
    # exceeds |f| at both ends of the scan cell
    for r, hit, bound in zip(row, found, np.fmax(np.abs(fa), np.abs(fb)).tolist()):
        if hit is not None and not abs(hit[1]) > bound:
            roots[r].append(hit[0])
    return [_merged(r, tol, (hi - lo) / grid_steps) for r in roots]


def _merged(roots: list[float], tol: float, cell: float) -> list[float]:
    """The roots ascending, one of each within max(tol, 1e-12) of another.

    Raises WindowTooCoarseError where two of them are closer than one
    grid cell.
    """
    roots.sort()
    merged: list[float] = []
    for r in roots:
        if merged and abs(r - merged[-1]) <= max(tol, 1e-12):
            continue
        merged.append(r)
    for r1, r2 in zip(merged, merged[1:]):
        if r2 - r1 < cell:
            raise WindowTooCoarseError(
                f"roots {r1} and {r2} are closer than one grid cell ({cell}); "
                "increase grid_steps"
            )
    return merged


_SECTIONS = 16  # per bracket and residual call: 15 inner samples serve 4 bisection steps


def _bisect(f, brackets: list[tuple[int, float, float, float]],
            tol: float) -> list[tuple[float, float] | None]:
    """Bisect each (row, a, b, f(a)) bracket on its row to its root; one result per bracket.

    A bracket at least tol wide with a float strictly inside it is live.
    One call of f evaluates the samples a + j*(b - a)/16, j = 1 .. 15, of
    every live bracket; each then takes four bisection steps on its own
    row's samples, keeping the half whose ends change sign. An exact zero
    is recorded with f = 0, and a NaN sample drops the bracket (None). A
    bracket no longer live stops with its midpoint and f at its left end.
    At double-precision resolution a sample may equal a bracket end, but
    the middle one never does, so each round narrows a live bracket.
    """
    found: list[tuple[float, float] | None] = [None] * len(brackets)
    live = list(enumerate(brackets))
    steps = np.arange(_SECTIONS + 1.0)
    while live:
        cut = []
        for k, (row, a, b, fa) in live:
            m = 0.5 * (a + b)
            if b - a >= tol and a < m < b:
                cut.append((k, row, a, b, fa))
            else:  # the requested width or double-precision resolution
                found[k] = (m, fa)
        if not cut:
            break
        a, b = np.array([(a, b) for _, _, a, b, _ in cut]).T
        # j*(b - a) before the division: (b - a)/16 may round to 0 among subnormals
        x = a[:, None] + steps * (b - a)[:, None] / _SECTIONS
        x[:, -1] = b  # a + (b - a) may round off b
        with np.errstate(over="ignore"):  # beside a tan pole f may overflow to +-inf
            values = f(x[:, 1:-1].ravel()).reshape(-1, len(cut), _SECTIONS - 1).tolist()
        live = []
        for n, ((k, row, _, _, fa), xs) in enumerate(zip(cut, x.tolist())):
            lo, hi = 0, _SECTIONS  # the indices of the bracket's ends in xs
            while hi - lo > 1:
                i = (lo + hi) // 2
                fm = values[row][n][i - 1]
                if math.isnan(fm):  # a bracket that meets a pole or a NaN is dropped
                    break
                if fm == 0.0:
                    found[k] = (xs[i], fm)
                    break
                if (fa < 0.0) != (fm < 0.0):  # both are nonzero numbers
                    hi = i
                else:
                    lo, fa = i, fm
            else:
                live.append((k, (row, xs[lo], xs[hi], fa)))
    return found


def resonance_sets(
    kind: Kind,
    b: float,
    sigma: float,
    window: tuple[float, float] = (-40.0, 40.0),
    grid_steps: int = 20000,
    tol: float = 1e-10,
) -> tuple[ResonanceSet, ResonanceSet]:
    """Quantized transparency strengths of one arrangement in a window.

    Returns (model set, shared set). The model set is the roots of the
    arrangement's own limiting equation plus the trivial strength 0 with
    index 0; the shared set is the nonzero roots of f_prime with the
    discontinuity factor attached. Indices count outward from zero by
    sign. The default window and grid resolve the closest known pairs for
    moderate b; for tighter clusters raise grid_steps. Both residuals are
    rows of one body, so one root-finder pass finds both sets, over every
    cell of the window's grid. The classify command instead solves only
    the cells around its strength (resonance_sets_near), so the errors
    below fail it only where they come from those cells.

    Errors come as from one finder pass per set followed by each set's
    residual fields: a WindowTooCoarseError of either set, the model
    set's first, before a PoleError at a root of either set, again the
    model set's first.
    """
    return _sets(kind, b, sigma, window, grid_steps, tol, None)


def resonance_sets_near(
    kind: Kind,
    b: float,
    sigma: float,
    alpha: float,
    reach: float,
    window: tuple[float, float] = (-40.0, 40.0),
    grid_steps: int = 20000,
    tol: float = 1e-10,
) -> tuple[ResonanceSet, ResonanceSet]:
    """resonance_sets on the window's grid cells within reach of one strength alone.

    Solves the cells that touch [alpha - reach, alpha + reach] and one
    neighbouring cell on each side, with the checks, rules and error order
    of resonance_sets. Every root of resonance_sets within reach of alpha
    is here, bit for bit and with the same residual and theta; so
    zerolimit.classify, given reach = match_tol, matches alpha as it would
    against resonance_sets. The sets keep the whole window; the trivial
    strength 0 keeps index 0, and every other root has index None, since
    no root outside the cells is counted. A WindowTooCoarseError, a
    PoleError or a ValueError of a non-finite phase or r that only other
    cells' strengths raise is not raised here. alpha must be finite and
    reach >= 0 (not NaN).
    """
    if not (math.isfinite(alpha) and reach >= 0.0):
        raise ValueError(f"alpha must be finite and reach >= 0, got {alpha} and {reach}")
    return _sets(kind, b, sigma, window, grid_steps, tol, (alpha - reach, alpha + reach))


def _sets(kind, b, sigma, window, grid_steps, tol, near):
    """resonance_sets, or with near = (lo', hi') only the cells around it (_bracket_roots)."""
    _check_bsigma(b, sigma)
    formula, label = MODEL_SETS[kind]

    def body(a):
        return _residual_rows((formula, _prime), a, b, sigma)

    model_alphas, prime_alphas = ([r for r in roots if abs(r) > 1e-6]
                                  for roots in _bracket_roots(body, window, grid_steps, tol, near))
    model = _outward_indices(model_alphas, include_zero=window[0] <= 0.0 <= window[1])
    prime = _outward_indices(prime_alphas, include_zero=False)

    # both sets' residual fields and every theta from one shared step; the
    # finder has raised any WindowTooCoarseError of either set by now
    n = len(model)
    alphas = [alpha for alpha, _ in model + prime]
    terms = _residual_phases(alphas, b, sigma)
    x, y = terms[3], terms[4]
    _check_poles(alphas[:n], y[:n])
    _check_poles(alphas[n:], y[n:])
    model_res = np.abs(formula(*terms, b, sigma)[:n]).tolist()
    prime_res = np.abs(_prime(*terms, b, sigma)[n:]).tolist()
    counted = near is None  # only a pass over every cell knows a root's outward index
    model_roots = [ResonanceRoot(alpha, label, idx if counted or not alpha else None, None,
                                 res if alpha else 0.0)
                   for (alpha, idx), res in zip(model, model_res)]
    prime_roots = [ResonanceRoot(alpha, SetLabel.SIGMA_PRIME, idx if counted else None,
                                 _theta(alpha, xa, ya), res)
                   for (alpha, idx), xa, ya, res in zip(prime, x[n:].tolist(), y[n:].tolist(),
                                                        prime_res)]

    return (
        ResonanceSet(tuple(model_roots), window, b, sigma),
        ResonanceSet(tuple(prime_roots), window, b, sigma),
    )


def _outward_indices(alphas: Sequence[float], include_zero: bool) -> list[tuple[float, int]]:
    """Pair each ascending root with its outward index (sign-aware)."""
    neg = sorted(a for a in alphas if a < 0)
    pos = sorted(a for a in alphas if a > 0)
    out = [(a, -(len(neg) - i)) for i, a in enumerate(neg)]
    if include_zero:
        out.append((0.0, 0))
    out.extend((a, i + 1) for i, a in enumerate(pos))
    return out


# peak_refine's pre-scan points and the strength resolution of its search
PEAK_PRESCAN_STEPS = 2001
PEAK_RESOLUTION = 1e-8


def peak_refine(
    template: BWParams,
    k: float,
    alpha_guess: float,
    radius: float,
) -> tuple[float, float]:
    """Locate the transmission crest near a guessed strength.

    The peaks are far narrower than any reasonable bracket, so a dense
    pre-scan of PEAK_PRESCAN_STEPS points first finds the attraction
    basin. Each zoom then rescans the two cells on either side of the
    highest sample with as many points, on the closed-form kernel of
    grid, down to the strength resolution PEAK_RESOLUTION. Crests narrow
    as eps shrinks; one narrower than the resolution keeps the zoom going
    while a neighbour of the highest sample is more than 1e-9 relative
    below it, down to float resolution, so the reported transmission is
    the crest's and not a point on its flank. Returns the highest sample
    and its T. Raises NoPeakError when transmission is monotone across
    the bracket, and ValueError where a pre-scan or zoom sample of T is
    not finite.
    """
    if radius <= 0:
        raise ValueError(f"radius must be > 0, got {radius}")

    def scan(a: float, b: float) -> tuple[np.ndarray, np.ndarray, float]:
        g = grid(template, (a, b), (k, k), PEAK_PRESCAN_STEPS, 1)
        if not np.all(np.isfinite(g.values)):
            raise ValueError(f"transmission is not finite on [{a}, {b}]")
        return g.alphas, g.values[:, 0], b - a

    lo, hi = alpha_guess - radius, alpha_guess + radius
    alphas, ts, width = scan(lo, hi)
    diffs = np.diff(ts)
    if np.all(diffs >= 0) or np.all(diffs <= 0):
        raise NoPeakError(f"transmission is monotone on [{lo}, {hi}]")
    imax = int(np.argmax(ts))
    if imax == 0 or imax == len(ts) - 1:
        raise NoPeakError(f"no interior crest on [{lo}, {hi}]")

    while True:
        cell = width / (PEAK_PRESCAN_STEPS - 1)
        t_max = ts[imax]
        if cell <= PEAK_RESOLUTION and t_max - ts[max(imax - 1, 0):imax + 2].min() <= 1e-9 * t_max:
            break
        a_max = float(alphas[imax])
        a, b = max(lo, a_max - 2 * cell), min(hi, a_max + 2 * cell)
        if b - a >= width:  # float resolution: the window no longer shrinks
            break
        alphas, ts, width = scan(a, b)
        imax = int(np.argmax(ts))
    return float(alphas[imax]), float(ts[imax])
