"""Resonance conditions at finite squeezing and their zero-range limits.

The limiting equations quantize the strength values at which the
squeezed structures stay transparent. Negative strengths are reached by
analytic continuation through principal complex square roots; the
resulting residual is purely real or purely imaginary, and the single
nonzero component is what the root finder sees. The finder itself is a
bracketing bisection that knows the residuals alternate roots with tan
poles and discards pole crossings by magnitude.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .potential import BWParams, Kind, bw_geometry, sigma_split
from .scattering import grid, transmissivity
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


def _collapse(w: complex) -> float:
    """Reduce a residual that must be purely real or purely imaginary.

    Analytic continuation to negative strengths turns some residuals
    purely imaginary; the imaginary component is then the real-rewritten
    residual, so Re + Im is the correct scalar on both half-axes. A
    residual with both components large signals a branch bug.
    """
    if min(abs(w.real), abs(w.imag)) > 1e-9 * (1.0 + abs(w)):
        raise ValueError(f"residual is neither purely real nor purely imaginary: {w!r}")
    return w.real + w.imag


def _pole_check(alpha: float, b: float, sp: float, sm: float) -> None:
    """Reject evaluation within 1e-12 of a tan singularity.

    For positive strengths the real tan argument sits on the well side;
    after continuation to negative strengths it moves to the barrier
    side. The other trigonometric factors are hyperbolic and pole free.
    """
    if alpha > 0 and sm > 0:
        t = math.sqrt(2.0 * alpha * sm / (1.0 + b))
    elif alpha < 0 and sp > 0:
        t = math.sqrt(2.0 * abs(alpha) * sp / (1.0 + 1.0 / b))
    else:
        return
    if abs(math.fmod(t, math.pi) - math.pi / 2) < _POLE_TOL:
        raise PoleError(f"tan argument {t} is within {_POLE_TOL} of a pole")


def _tanhc(z: complex) -> complex:
    """tanh(z)/z, continuous through z = 0."""
    if abs(z) < 1e-6:
        z2 = z * z
        return 1.0 - z2 / 3.0 + 2.0 * z2 * z2 / 15.0
    return cmath.tanh(z) / z


def _tanc(z: complex) -> complex:
    """tan(z)/z, continuous through z = 0."""
    if abs(z) < 1e-6:
        z2 = z * z
        return 1.0 + z2 / 3.0 + 2.0 * z2 * z2 / 15.0
    return cmath.tan(z) / z


def _check_bsigma(b: float, sigma: float) -> None:
    if not (b > 0):
        raise ValueError(f"b must be > 0, got {b}")
    if not (sigma >= 0):
        raise ValueError(f"sigma must be >= 0, got {sigma}")


def _sqrt_args(alpha: float, b: float, sp: float, sm: float) -> tuple[complex, complex]:
    A = cmath.sqrt(complex(2.0 * alpha * sp / (1.0 + 1.0 / b), 0.0))
    B = cmath.sqrt(complex(2.0 * alpha * sm / (1.0 + b), 0.0))
    return A, B


def f_plus(alpha: float, b: float, sigma: float) -> float:
    """Residual of the limiting strength equation for the repeated pair.

    Zero exactly at the quantized strengths of the first transparency
    set. Written in a form regular at sigma = 0, where the prefactor
    1/sqrt(sigma) and the vanishing tan argument would otherwise meet in
    a 0*inf; in the degenerate case the residual stays strictly
    negative, matching the disappearance of finite roots.
    """
    _check_bsigma(b, sigma)
    sp, sm = sigma_split(alpha, sigma)
    _pole_check(alpha, b, sp, sm)
    A, B = _sqrt_args(alpha, b, sp, sm)
    term1 = cmath.sqrt(complex(2.0 * alpha * b * sm / (1.0 + 1.0 / b), 0.0)) \
        * _tanhc(A) * cmath.tan(B)
    term2 = cmath.sqrt(complex(2.0 * alpha * sp / (b * (1.0 + b)), 0.0)) \
        * _tanc(B) * cmath.tanh(A)
    return _collapse(term1 - term2 - 2.0)


def f_minus(alpha: float, b: float, sigma: float) -> float:
    """Residual of the limiting strength equation for the mirror pair.

    At sigma = 0 the literal residual degenerates (it collapses to zero
    identically for positive strengths and diverges for negative ones),
    so those branches return the direction-of-approach rescaled
    residual, which is finite, strictly positive, and rootless.
    """
    _check_bsigma(b, sigma)
    sp, sm = sigma_split(alpha, sigma)
    _pole_check(alpha, b, sp, sm)
    A, B = _sqrt_args(alpha, b, sp, sm)
    if sm == 0.0 and alpha > 0:
        return _collapse(cmath.tanh(A)) * math.sqrt(2.0 * alpha / (1.0 + b)) \
            + math.sqrt(b / sp)
    if sp == 0.0 and alpha < 0:
        return 1.0
    return _collapse(cmath.tanh(A) * cmath.tan(B) + math.sqrt(b * sm / sp))


def f_prime(alpha: float, b: float, sigma: float) -> float:
    """Residual of the shared limiting equation of both arrangements.

    Vanishes identically at strength 0 (a degenerate double root that
    the set builder excludes). For negative strengths the continued
    residual is purely imaginary and its imaginary part is returned; see
    _collapse.
    """
    _check_bsigma(b, sigma)
    sp, sm = sigma_split(alpha, sigma)
    _pole_check(alpha, b, sp, sm)
    A, B = _sqrt_args(alpha, b, sp, sm)
    if sm == 0.0 and alpha > 0:
        return _collapse(cmath.tanh(A))
    if sp == 0.0 and alpha < 0:
        return _collapse(-cmath.tan(B))
    return _collapse(cmath.tanh(A) - math.sqrt(b * sm / sp) * cmath.tan(B))


def f_plus_real(alpha: float, b: float, sigma: float) -> float:
    """Explicit real rewriting of f_plus (tanh and tan swap for alpha < 0).

    Cross-check implementation; requires both split parameters nonzero.
    """
    sp, sm = sigma_split(alpha, sigma)
    if sp == 0 or sm == 0:
        raise ValueError("real-form residuals require sigma > 0")
    s = math.sqrt(b * sm / sp)
    if alpha >= 0:
        a_ = math.sqrt(2.0 * alpha * sp / (1.0 + 1.0 / b))
        b_ = math.sqrt(2.0 * alpha * sm / (1.0 + b))
        return (s - 1.0 / s) * math.tanh(a_) * math.tan(b_) - 2.0
    a_ = math.sqrt(2.0 * abs(alpha) * sp / (1.0 + 1.0 / b))
    b_ = math.sqrt(2.0 * abs(alpha) * sm / (1.0 + b))
    return -(s - 1.0 / s) * math.tan(a_) * math.tanh(b_) - 2.0


def f_minus_real(alpha: float, b: float, sigma: float) -> float:
    """Explicit real rewriting of f_minus."""
    sp, sm = sigma_split(alpha, sigma)
    if sp == 0 or sm == 0:
        raise ValueError("real-form residuals require sigma > 0")
    s = math.sqrt(b * sm / sp)
    if alpha >= 0:
        a_ = math.sqrt(2.0 * alpha * sp / (1.0 + 1.0 / b))
        b_ = math.sqrt(2.0 * alpha * sm / (1.0 + b))
        return math.tanh(a_) * math.tan(b_) + s
    a_ = math.sqrt(2.0 * abs(alpha) * sp / (1.0 + 1.0 / b))
    b_ = math.sqrt(2.0 * abs(alpha) * sm / (1.0 + b))
    return -math.tan(a_) * math.tanh(b_) + s


def f_prime_real(alpha: float, b: float, sigma: float) -> float:
    """Explicit real rewriting of f_prime."""
    sp, sm = sigma_split(alpha, sigma)
    if sp == 0 or sm == 0:
        raise ValueError("real-form residuals require sigma > 0")
    s = math.sqrt(b * sm / sp)
    if alpha >= 0:
        a_ = math.sqrt(2.0 * alpha * sp / (1.0 + 1.0 / b))
        b_ = math.sqrt(2.0 * alpha * sm / (1.0 + b))
        return math.tanh(a_) - s * math.tan(b_)
    a_ = math.sqrt(2.0 * abs(alpha) * sp / (1.0 + 1.0 / b))
    b_ = math.sqrt(2.0 * abs(alpha) * sm / (1.0 + b))
    return math.tan(a_) - s * math.tanh(b_)


def theta_factor(alpha_prime: float, b: float, sigma_plus: float, sigma_minus: float) -> float:
    """Wave-function discontinuity factor at a root of f_prime.

    cosh over cos of the two limiting slab phases; continuation to
    negative strengths swaps them into cos over cosh. Signals PoleError
    when the denominator is within 1e-12 of zero.
    """
    A, B = _sqrt_args(alpha_prime, b, sigma_plus, sigma_minus)
    denom = cmath.cos(B)
    if abs(denom) < _POLE_TOL:
        raise PoleError(f"cos denominator {denom!r} is within {_POLE_TOL} of zero")
    return _collapse(cmath.cosh(A) / denom)


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
    perfectly. Tunneling wave numbers are handled by continuation and
    give a real residual.
    """
    if k <= 0:
        raise ValueError(f"k must be > 0, got {k}")
    if alpha <= 0:
        raise ValueError(f"double-barrier residual needs alpha > 0, got {alpha}")
    if eps <= 0 or c1 <= 0 or c2 <= 0:
        raise ValueError("eps, c1, c2 must all be > 0")
    h = 2.0 / (c1 * (c1 + c2)) / (eps * eps)
    l = c1 * eps
    r = c2 * eps
    p2 = k * k - alpha * h
    if p2 > 0:
        pl = math.sqrt(p2) * l
        if abs(math.fmod(pl, math.pi) - math.pi / 2) < _POLE_TOL:
            raise PoleError(f"tan argument {pl} is within {_POLE_TOL} of a pole")
    krm = math.fmod(2.0 * k * r, math.pi)
    if min(krm, math.pi - krm) < _POLE_TOL:
        raise PoleError(f"cot argument {2 * k * r} is within {_POLE_TOL} of a pole")
    p = cmath.sqrt(complex(p2, 0.0))
    cot = math.cos(2.0 * k * r) / math.sin(2.0 * k * r)
    return _collapse((p / k + k / p) * cmath.tan(p * l) - 2.0 * cot)


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
    then have been missed.
    """
    lo, hi = window
    if not lo < hi:
        raise ValueError(f"window must satisfy lo < hi, got {window}")
    if grid_steps < 100:
        raise ValueError(f"grid_steps must be >= 100, got {grid_steps}")
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")

    xs = np.linspace(lo, hi, grid_steps + 1)
    vals: list[float | None] = []
    for x in xs:
        try:
            vals.append(f(float(x)))
        except PoleError:
            vals.append(None)

    roots: list[float] = []
    for i in range(grid_steps):
        fa, fb = vals[i], vals[i + 1]
        a, bx = float(xs[i]), float(xs[i + 1])
        if fa is not None and fa == 0.0:
            roots.append(a)
            continue
        if fa is None or fb is None:
            continue
        if fb == 0.0:
            continue  # recorded when the next cell starts there
        if fa * fb > 0:
            continue
        if not _bracket_is_root(f, a, bx):
            continue
        root = _bisect(f, a, fa, bx, fb, tol)
        if root is not None:
            roots.append(root)
    last = vals[-1]
    if last is not None and last == 0.0:
        roots.append(float(xs[-1]))

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


def _bracket_is_root(f, a: float, b: float) -> bool:
    """Distinguish a root cell from a pole crossing by refinement."""
    best = math.inf
    for t in np.linspace(a, b, 10):
        try:
            best = min(best, abs(f(float(t))))
        except PoleError:
            return False
    return best <= 1.0


def _bisect(f, a, fa, b, fb, tol):
    try:
        while (b - a) >= tol:
            m = 0.5 * (a + b)
            if m <= a or m >= b:
                break  # bracket at double-precision resolution
            fm = f(m)
            if fm == 0.0:
                return m
            if fa * fm < 0:
                b, fb = m, fm
            else:
                a, fa = m, fm
    except PoleError:
        return None
    return 0.5 * (a + b)


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
        f_model, label = f_plus, SetLabel.SIGMA_PLUS
    else:
        f_model, label = f_minus, SetLabel.SIGMA_MINUS

    model_alphas = [r for r in find_roots(lambda a: f_model(a, b, sigma), window, grid_steps, tol)
                    if abs(r) > 1e-6]
    prime_alphas = [r for r in find_roots(lambda a: f_prime(a, b, sigma), window, grid_steps, tol)
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
