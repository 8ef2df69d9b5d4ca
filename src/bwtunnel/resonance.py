"""Resonance conditions at finite squeezing and their zero-range limits.

The limiting equations quantize the strength values at which the
squeezed structures stay transparent. Each residual is written once, in
real arithmetic, on two slab phases: one under tanh/cosh and one under
tan/cos. Continuing a residual to negative strengths turns it purely
real or purely imaginary and swaps its trigonometric and hyperbolic
factors, so the real form there is that swap, with the tan phase moved
from the well slot to the barrier slot.

Each residual body works on a numpy array of strengths and returns its
values with a boolean pole mask, set where the tan phase lies within
1e-12 of a singularity; the scalar names f_plus, f_minus and f_prime
are one point of those bodies and raise PoleError where the mask is
set. numpy's tan and tanh can differ from the math module's by an ulp
or two, so residual values can differ from a math-based evaluation in
the last digits.

The finder is a bracketing bisection that knows the residuals alternate
roots with tan poles and discards pole crossings by magnitude. Its one
implementation scans, refines and bisects all cells of the grid in
lockstep over an array residual; find_roots lifts a scalar callable into
it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .potential import BWParams, Kind, bw_geometry, sigma_split
from .scattering import BLOCK_POINTS, grid, transmissivity
from .transfer import wave_numbers


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
    the returned root (0 by convention for the trivial strength 0).
    """

    alpha: float
    set_label: SetLabel
    index: int
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


def _phases(alpha, b: float, sp, sm) -> tuple[np.ndarray, np.ndarray]:
    """The two limiting slab phases (x, y) of strengths, both real, elementwise.

    x goes under tanh/cosh and y under tan/cos. For positive strengths y
    is the well slot's phase; continuation to negative strengths swaps
    the trigonometric and hyperbolic factors, so there y is the barrier
    slot's. Only y carries sigma, so sigma = 0 gives y = 0.
    """
    alpha = np.asarray(alpha, dtype=float)
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
    return np.where(up, barrier, well), np.where(up, well, barrier)


def _residual_phases(alpha, b: float, sigma: float):
    """(alpha, x, y, r, pole) of a limiting residual after its input checks.

    Elementwise over strengths: the phases x, y of potential.sigma_split's
    (sp, sm), r = sqrt(b*sm/sp), and pole marking the strengths whose tan
    phase lies within 1e-12 of a singularity; the hyperbolic factors are
    pole free.
    """
    _check_bsigma(b, sigma)
    alpha = np.asarray(alpha, dtype=float)
    pos, neg = alpha > 0, alpha < 0
    x, y = _phases(alpha, b, np.where(neg, sigma, 1.0), np.where(pos, sigma, 1.0))
    # r at negative strengths is unused when sigma = 0
    r_neg = math.sqrt(b / sigma) if sigma else math.inf
    r = np.where(pos, math.sqrt(b * sigma), np.where(neg, r_neg, math.sqrt(b)))
    pole = np.abs(np.fmod(y, math.pi) - math.pi / 2) < _POLE_TOL
    return alpha, x, y, r, pole


def _tanc(z, tan_z):
    """tan(z)/z from tan_z = tan(z), continuous through z = 0."""
    small = np.abs(z) < 1e-6
    if not small.any():  # the common case: no series lane, no zero divisor
        return tan_z / z
    z2 = z * z
    return np.where(small, 1.0 + z2 / 3.0 + 2.0 * z2 * z2 / 15.0, tan_z / np.where(small, 1.0, z))


def _tanhc(z, tanh_z):
    """tanh(z)/z from tanh_z = tanh(z), continuous through z = 0."""
    small = np.abs(z) < 1e-6
    if not small.any():  # the common case: no series lane, no zero divisor
        return tanh_z / z
    z2 = z * z
    return np.where(small, 1.0 - z2 / 3.0 + 2.0 * z2 * z2 / 15.0, tanh_z / np.where(small, 1.0, z))


def _f_plus(alpha, b: float, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """f_plus on an array of strengths: (values, pole mask)."""
    alpha, x, y, _, pole = _residual_phases(alpha, b, sigma)
    tx, ty = np.tanh(x), np.tan(y)
    c = np.where(alpha >= 0, b, 1.0 / b)
    return c * y * ty * _tanhc(x, tx) - x * tx * _tanc(y, ty) / c - 2.0, pole


def _f_minus(alpha, b: float, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """f_minus on an array of strengths: (values, pole mask)."""
    alpha, x, y, r, pole = _residual_phases(alpha, b, sigma)
    tx = np.tanh(x)
    t = tx * np.tan(y)
    f = np.where(alpha >= 0, t, -t) + r
    if sigma == 0.0:
        # the rescaled residuals: sm = 0 at positive strengths, sp = 0 at negative ones
        rescaled = tx * np.sqrt(2.0 * np.abs(alpha) / (1.0 + b)) + math.sqrt(b)
        f = np.where(alpha > 0, rescaled, np.where(alpha < 0, 1.0, f))
    return f, pole


def _f_prime(alpha, b: float, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """f_prime on an array of strengths: (values, pole mask)."""
    alpha, x, y, r, pole = _residual_phases(alpha, b, sigma)
    tx, ty = np.tanh(x), np.tan(y)
    up = alpha >= 0
    f = np.where(up, tx, ty) - r * np.where(up, ty, tx)
    if sigma == 0.0:
        f = np.where(alpha < 0, -tx, f)  # the imaginary part over its diverging prefactor
    return f, pole


def _scalar(body, alpha: float, b: float, sigma: float) -> float:
    """One point of a residual body as a float; PoleError where its mask is set."""
    value, pole = body(alpha, b, sigma)
    if pole:
        raise PoleError(f"the tan phase of strength {alpha} is within {_POLE_TOL} of a pole")
    return float(value)


def f_plus(alpha: float, b: float, sigma: float) -> float:
    """Residual of the limiting strength equation for the repeated pair.

    Zero exactly at the quantized strengths of the first transparency
    set. Written with tan(y)/y and tanh(x)/x so that it stays regular at
    sigma = 0, where the prefactor 1/sqrt(sigma) and the vanishing tan
    argument would otherwise meet in a 0*inf; in the degenerate case the
    residual stays strictly negative, matching the disappearance of
    finite roots. One point of the array body; raises PoleError where
    the body's pole mask is set.
    """
    return _scalar(_f_plus, alpha, b, sigma)


def f_minus(alpha: float, b: float, sigma: float) -> float:
    """Residual of the limiting strength equation for the mirror pair.

    At sigma = 0 the literal residual degenerates (it collapses to zero
    identically for positive strengths and diverges for negative ones),
    so those branches return the direction-of-approach rescaled
    residual, which is finite, strictly positive, and rootless. One
    point of the array body; raises PoleError where the body's pole mask
    is set.
    """
    return _scalar(_f_minus, alpha, b, sigma)


def f_prime(alpha: float, b: float, sigma: float) -> float:
    """Residual of the shared limiting equation of both arrangements.

    Vanishes identically at strength 0 (a degenerate double root that
    the set builder excludes). For negative strengths continuation makes
    the residual purely imaginary, and its imaginary part is returned;
    at sigma = 0 that part diverges, so it is returned divided by its
    diverging prefactor. One point of the array body; raises PoleError
    where the body's pole mask is set.
    """
    return _scalar(_f_prime, alpha, b, sigma)


def theta_factor(alpha_prime: float, b: float, sigma_plus: float, sigma_minus: float) -> float:
    """Wave-function discontinuity factor at a root of f_prime.

    cosh over cos of the two limiting slab phases; continuation to
    negative strengths swaps them into cos over cosh. Signals PoleError
    when the denominator is within 1e-12 of zero.
    """
    _check_bsigma(b, sigma_plus)
    _check_bsigma(b, sigma_minus)
    x, y = map(float, _phases(alpha_prime, b, sigma_plus, sigma_minus))
    if alpha_prime < 0:
        return math.cos(y) / math.cosh(x)
    denom = math.cos(y)
    if abs(denom) < _POLE_TOL:
        raise PoleError(f"cos denominator {denom!r} is within {_POLE_TOL} of zero")
    return math.cosh(x) / denom


def finite_eps_residuals(params: BWParams, E: float) -> tuple[complex, complex, complex]:
    """The three divergence-cancellation residuals at finite squeezing.

    Diagnostics for how close a configuration is to each branch along
    which the lower-left matrix entry stays finite as eps -> 0. Returned
    as complex numbers; they are generally not real in the tunneling
    regime.
    """
    _, l, _, r = bw_geometry(params)
    w = wave_numbers(params, E)
    p, q = w.p, w.q
    sp, cp = cmath.sin(p * l), cmath.cos(p * l)
    sq, cq = cmath.sin(q * r), cmath.cos(q * r)
    r8 = 2.0 * cp * cq - (p / q + q / p) * sp * sq
    r9 = p * sp * cq + q * cp * sq
    r10 = p * sp * sq - q * cp * cq
    return r8, r9, r10


def db_resonance_residual(k: float, alpha: float, eps: float, c1: float, c2: float) -> float:
    """Double-barrier resonance residual in the wave number.

    Applies to the well-free (sigma = 0) mirror structure with positive
    strength; its roots are the k values where the structure transmits
    perfectly. With p the barrier wave number it reads
    (p/k + k/p) tan(p*l) - 2 cot(2*k*r); tunneling wave numbers turn tan
    into tanh, and at p = 0 it takes its regular limit k*l - 2 cot(2*k*r).
    """
    if not (0 < k < math.inf):
        raise ValueError(f"k must be finite and > 0, got {k}")
    if not (0 < alpha < math.inf):
        raise ValueError(f"double-barrier residual needs a finite alpha > 0, got {alpha}")
    if not (0 < eps < math.inf and 0 < c1 < math.inf and 0 < c2 < math.inf):
        raise ValueError("eps, c1, c2 must all be finite and > 0")
    h = 2.0 / (c1 * (c1 + c2)) / (eps * eps)
    l = c1 * eps
    r = c2 * eps
    p2 = k * k - alpha * h
    p = math.sqrt(abs(p2))
    pl = p * l
    if p2 > 0 and abs(math.fmod(pl, math.pi) - math.pi / 2) < _POLE_TOL:
        raise PoleError(f"tan argument {pl} is within {_POLE_TOL} of a pole")
    krm = math.fmod(2.0 * k * r, math.pi)
    if min(krm, math.pi - krm) < _POLE_TOL:
        raise PoleError(f"cot argument {2 * k * r} is within {_POLE_TOL} of a pole")
    cot = math.cos(2.0 * k * r) / math.sin(2.0 * k * r)
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

    Scans a uniform grid, keeps sign-change cells, and drops cells that
    contain a PoleError or whose 10-point refinement never brings |f|
    below 1 (a pole crossing, not a root). Surviving brackets are
    bisected to the requested width. Raises WindowTooCoarseError when
    two returned roots are closer than one grid cell, since siblings may
    then have been missed. grid_steps must be an integer >= 100 and tol
    finite and > 0. f is called one point at a time, under the same cell
    rules as the array residuals of resonance_sets.
    """
    def f_array(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values = np.full(xs.shape, np.nan)
        pole = np.zeros(xs.shape, dtype=bool)
        for i, x in enumerate(xs.tolist()):
            try:
                values[i] = f(x)
            except PoleError:
                pole[i] = True
        return values, pole

    return _bracket_roots(f_array, window, grid_steps, tol)


def _bracket_roots(f, window: tuple[float, float], grid_steps: int, tol: float) -> list[float]:
    """find_roots for an array residual f: strengths -> (values, pole mask).

    Every cell follows the same rules, in lockstep across cells. The scan
    hands f BLOCK_POINTS cells at a time, so the residual's temporaries
    stay small whatever grid_steps is.
    """
    lo, hi = window
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"window must be finite, got {window}")
    if not lo < hi:
        raise ValueError(f"window must satisfy lo < hi, got {window}")
    if not isinstance(grid_steps, (int, np.integer)) or grid_steps < 100:
        raise ValueError(f"grid_steps must be an integer >= 100, got {grid_steps!r}")
    if not (0.0 < tol < math.inf):
        raise ValueError(f"tol must be finite and > 0, got {tol}")

    xs = np.linspace(lo, hi, grid_steps + 1)
    roots: list[float] = []
    cells = []
    for start in range(0, grid_steps, BLOCK_POINTS):
        x = xs[start:start + BLOCK_POINTS + 1]
        fx, pole = f(x)
        fa, fb = fx[:-1], fx[1:]
        clear_a, clear_b = ~pole[:-1], ~pole[1:]
        roots += x[:-1][clear_a & (fa == 0.0)].tolist()
        # a zero at the right end is recorded by the next cell
        change = clear_a & clear_b & (fa != 0.0) & (fb != 0.0) & ~(fa * fb > 0)
        i = np.flatnonzero(change)
        cells.append((x[i], x[i + 1], fa[i]))
    if not pole[-1] and fx[-1] == 0.0:
        roots.append(float(xs[-1]))
    a, b, fa = (np.concatenate(c) for c in zip(*cells))

    # a pole crossing, not a root: a pole among the points of
    # np.linspace(a, b, 10), or |f| never below 1 on them
    ts = a[:, None] + np.arange(10.0) * ((b - a) / 9.0)[:, None]
    ts[:, -1] = b
    ft, pole = (v.reshape(ts.shape) for v in f(ts.ravel()))
    keep = ~pole.any(axis=1) & (np.fmin.reduce(np.abs(ft), axis=1) <= 1.0)
    a, b, fa = a[keep], b[keep], fa[keep]

    while True:
        m = 0.5 * (a + b)
        # stop at the requested width or at double-precision resolution
        go = (b - a >= tol) & (a < m) & (m < b)
        roots += m[~go].tolist()
        if not go.any():
            break
        a, b, fa, m = a[go], b[go], fa[go], m[go]
        fm, pole = f(m)
        zero = ~pole & (fm == 0.0)
        roots += m[zero].tolist()
        left = fa * fm < 0
        live = ~pole & ~zero  # a bracket that meets a pole is dropped
        a, b, fa = (np.where(left, a, m)[live], np.where(left, m, b)[live],
                    np.where(left, fa, fm)[live])

    roots.sort()
    merged: list[float] = []
    for r in roots:
        if merged and abs(r - merged[-1]) <= max(tol, 1e-12):
            continue
        merged.append(r)
    cell = (hi - lo) / grid_steps
    for r1, r2 in zip(merged, merged[1:]):
        if r2 - r1 < cell:
            raise WindowTooCoarseError(
                f"roots {r1} and {r2} are closer than one grid cell ({cell}); "
                "increase grid_steps"
            )
    return merged


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
    moderate b; for tighter clusters raise grid_steps.
    """
    _check_bsigma(b, sigma)
    if kind is Kind.PLUS:
        body, f_model, label = _f_plus, f_plus, SetLabel.SIGMA_PLUS
    else:
        body, f_model, label = _f_minus, f_minus, SetLabel.SIGMA_MINUS

    model_alphas = [r for r in _bracket_roots(lambda a: body(a, b, sigma), window, grid_steps, tol)
                    if abs(r) > 1e-6]
    prime_alphas = [r for r in _bracket_roots(lambda a: _f_prime(a, b, sigma), window, grid_steps, tol)
                    if abs(r) > 1e-6]

    model_roots = []
    for alpha, idx in _outward_indices(model_alphas, include_zero=window[0] <= 0.0 <= window[1]):
        if alpha == 0.0:
            model_roots.append(ResonanceRoot(0.0, label, 0, None, 0.0))
        else:
            model_roots.append(ResonanceRoot(alpha, label, idx, None, abs(f_model(alpha, b, sigma))))

    prime_roots = []
    for alpha, idx in _outward_indices(prime_alphas, include_zero=False):
        sp, sm = sigma_split(alpha, sigma)
        th = theta_factor(alpha, b, sp, sm)
        prime_roots.append(ResonanceRoot(alpha, SetLabel.SIGMA_PRIME, idx, th,
                                         abs(f_prime(alpha, b, sigma))))

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


def peak_refine(
    template: BWParams,
    k: float,
    alpha_guess: float,
    radius: float,
    resolution: float = 1e-8,
    prescan_steps: int = 2001,
) -> tuple[float, float]:
    """Locate the transmission crest near a guessed strength.

    The peaks are far narrower than any reasonable bracket, so a dense
    pre-scan first finds the attraction basin and golden-section then
    maximizes inside it down to the requested strength resolution. Crests
    narrow as eps shrinks; one narrower than the resolution keeps the
    search going while the two interior values still disagree, down to
    float resolution, so the reported transmission is the crest's and
    not a point on its flank.
    Raises NoPeakError when transmission is monotone across the bracket.
    """
    if radius <= 0:
        raise ValueError(f"radius must be > 0, got {radius}")
    lo, hi = alpha_guess - radius, alpha_guess + radius
    prescan = grid(template, (lo, hi), (k, k), prescan_steps, 1)
    ts = prescan.values[:, 0]
    diffs = np.diff(ts)
    if np.all(diffs >= 0) or np.all(diffs <= 0):
        raise NoPeakError(f"transmission is monotone on [{lo}, {hi}]")
    imax = int(np.argmax(ts))
    if imax == 0 or imax == len(ts) - 1:
        raise NoPeakError(f"no interior crest on [{lo}, {hi}]")

    cell = (hi - lo) / (prescan_steps - 1)
    a_max = float(prescan.alphas[imax])
    a = max(lo, a_max - 2 * cell)
    b = min(hi, a_max + 2 * cell)

    def tval(alpha: float) -> float:
        return transmissivity(replace(template, alpha=alpha), k)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = tval(c), tval(d)
    while (b - a) > resolution or abs(fc - fd) > 1e-9 * max(fc, fd):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = tval(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = tval(d)
        if not (a < c < d < b):
            break
    alpha_peak = 0.5 * (a + b)
    return alpha_peak, tval(alpha_peak)
