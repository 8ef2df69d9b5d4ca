"""Scattering amplitudes, transmission probabilities, scans and grids.

Probabilities come from the u, v combination of matrix entries rather
than from |T|^2 of the amplitudes, which avoids phase-factor
cancellation. u, v, their realness check and T are written once,
elementwise, as the tail of every route: scans and grids feed it the
closed-form kernel over numpy arrays, single-point transmissivity the
slab product, and the tests cross-check the two. T is plain f64
arithmetic with no threshold: it underflows to 0 only where u^2 + v^2
overflows, and it is NaN where u or v is not finite (entries overflowed).
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import potential, transfer
from .potential import BWParams, Kind, bw_geometry
from .transfer import TransferMatrix, closed_form_arrays

# Imaginary parts per unit magnitude above this indicate a branch bug.
REALNESS_TOL = 1e-9


@dataclass(frozen=True)
class ScatteringResult:
    """Reflection/transmission amplitudes and their probabilities."""

    rl: complex
    rr: complex
    tl: complex
    tr: complex
    refl: float
    trans: float


@dataclass(frozen=True)
class TransmissionGrid:
    """Transmissivity sampled on an (alpha, k) product grid.

    values[i, j] is the probability at (alphas[i], ks[j]); rows are
    alpha-major, matching the CSV emission order.
    """

    alphas: np.ndarray
    ks: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (len(self.alphas), len(self.ks)):
            raise ValueError("grid shape does not match axis lengths")


def _uv(m, k):
    """u = m11 - m22 and v = k*m12 + m21/k from the entries m, elementwise.

    Plain arithmetic, so it runs on Python complex numbers (one point) and
    on numpy arrays alike. Complex input (the slab product) is checked:
    raises ValueError where an imaginary part exceeds REALNESS_TOL per
    unit magnitude, and returns the real parts. Real input (the
    closed-form kernel) has no imaginary part to check, so its u and v
    are returned as they are.
    """
    u = m[0] - m[3]
    v = k * m[1] + m[2] / k
    if not (np.iscomplexobj(u) or np.iscomplexobj(v)):
        return u, v
    bad = (abs(u.imag) > REALNESS_TOL * (1.0 + abs(u))) \
        | (abs(v.imag) > REALNESS_TOL * (1.0 + abs(v)))
    if np.count_nonzero(bad):
        raise ValueError("complex residue in u or v; branch inconsistency")
    return u.real, v.real


def _transmission(m, k):
    """T = 4/(4 + u^2 + v^2) from the entries m at wave numbers k, elementwise.

    T underflows to exactly 0 where u^2 + v^2 overflows, and it is NaN
    where u or v is not finite, never 0. Array callers silence numpy's
    overflow and invalid warnings, which only such points raise.
    """
    u, v = _uv(m, k)
    return np.where(np.isfinite(u) & np.isfinite(v), 4.0 / (4.0 + u * u + v * v), np.nan)


def uv(L: TransferMatrix, k: float) -> tuple[float, float]:
    """Asymmetry u = m11 - m22 and v = k*m12 + m21/k, as real numbers."""
    if not (0.0 < k < math.inf):
        raise ValueError(f"k must be finite and > 0, got {k}")
    return _uv(L.entries(), k)


def amplitudes(L: TransferMatrix, k: float, x1: float, x2: float) -> ScatteringResult:
    """Left/right reflection and transmission amplitudes for the matrix L.

    x1 and x2 are the edge positions entering the plane-wave phase
    factors. Probabilities always satisfy refl + trans = 1, also where
    u^2 + v^2 overflows (refl 1, trans 0), and the two transmission
    amplitudes are equal for any real potential. The det = 1 test runs on
    the entries divided by the largest one (when it exceeds 1), so no
    product in it overflows and lets a matrix through.
    """
    u, v = uv(L, k)
    g = max(1.0, L.max_abs_entry())
    n11, n12, n21, n22 = (z / g for z in L.entries())
    one = 1.0 / g / g
    if not abs(n11 * n22 - n12 * n21 - one) <= 1e-8 * (one + abs(n11 * n22) + abs(n12 * n21)):
        raise ValueError(f"transfer matrix is not unimodular: det = {L.det()!r}")
    l11, l12, l21, l22 = L.entries()
    D = l11 + l22 - 1j * (k * l12 - l21 / k)
    rl = (l22 - l11 - 1j * (k * l12 + l21 / k)) / D * cmath.exp(2j * k * x1)
    rr = (l11 - l22 - 1j * (k * l12 + l21 / k)) / D * cmath.exp(-2j * k * x2)
    t = 2.0 / D * cmath.exp(1j * k * (x1 - x2))
    s = u * u + v * v
    refl = 1.0 if s == math.inf else s / (4.0 + s)
    return ScatteringResult(rl, rr, t, t, refl=refl, trans=4.0 / (4.0 + s))


def transmissivity(params: BWParams, k: float) -> float:
    """Transmission probability of the four-slab chain at wave number k.

    The slab product, through the same tail as scans and grids. Far
    from the resonances T falls like eps^2, the perfectly-reflecting
    wall of the zero-range limit, and underflows to 0.0 only where
    u^2 + v^2 overflows. Where a slab's cmath overflows (past alpha of
    about 3.4e5) an entry is past the float range and T is NaN, as in
    the closed-form kernel of scans and grids.
    """
    if not (0.0 < k < math.inf):
        raise ValueError(f"k must be finite and > 0, got {k}")
    chain = potential.realize(params)
    try:
        L = transfer.chain_matrix(chain, k * k)
    except OverflowError:
        return math.nan
    return float(_transmission(L.entries(), k))


def _transmission_array(kind, alphas, ks, eps, c1, c2, sigma):
    k = np.asarray(ks, dtype=float)[None, :]
    m = closed_form_arrays(kind, np.asarray(alphas, dtype=float)[:, None], k * k,
                           eps, c1, c2, sigma)
    with np.errstate(over="ignore", invalid="ignore"):
        return _transmission(m, k)


def _check_steps(name: str, n, least: int) -> None:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"{name}_steps must be an integer, got {n!r}")
    if n < least:
        raise ValueError(f"{name}_steps must be >= {least}, got {n}")


def scan_alpha(
    template: BWParams,
    k: float,
    alpha_min: float,
    alpha_max: float,
    steps: int,
) -> list[tuple[float, float]]:
    """Transmissivity on a uniform strength grid, endpoints included.

    steps is the number of grid points (>= 2); output order follows the
    grid, so repeated runs are identical. This is the one-column grid at
    wave number k, returned as (alpha, T) pairs.
    """
    _check_steps("alpha", steps, 2)
    alphas, _, blocks = grid_blocks(template, (alpha_min, alpha_max), (k, k), steps, 1)
    return list(zip(alphas.tolist(), np.concatenate([t[:, 0] for _, t in blocks]).tolist()))


# points per block of grid_blocks; bounds the kernel's temporaries
BLOCK_POINTS = 4096


def grid_blocks(
    template: BWParams,
    alpha_range: tuple[float, float],
    k_range: tuple[float, float],
    alpha_steps: int,
    k_steps: int,
) -> tuple[np.ndarray, np.ndarray, Iterator[tuple[np.ndarray, np.ndarray]]]:
    """The axes of an (alpha, k) product grid and its values block by block.

    Runs every range check at once, then returns (alphas, ks, blocks),
    where blocks lazily yields (alphas_block, values_block) over
    consecutive slices of the one alphas axis, max(1, BLOCK_POINTS //
    k_steps) alpha rows at a time, so every point equals grid's.
    """
    for name, (lo, hi), n in (("alpha", alpha_range, alpha_steps), ("k", k_range, k_steps)):
        _check_steps(name, n, 1)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"{name} range must be finite, got {(lo, hi)}")
        if n == 1 and lo != hi:
            raise ValueError(f"{name} range must be degenerate when steps = 1")
        if lo > hi:
            raise ValueError(f"{name} range is reversed")
    if k_range[0] <= 0:
        raise ValueError("all k values must be > 0")
    alphas = np.linspace(alpha_range[0], alpha_range[1], alpha_steps)
    ks = np.linspace(k_range[0], k_range[1], k_steps)
    rows = max(1, BLOCK_POINTS // k_steps)
    blocks = ((a, _transmission_array(template.kind, a, ks, template.eps,
                                      template.c1, template.c2, template.sigma))
              for a in (alphas[i:i + rows] for i in range(0, alpha_steps, rows)))
    return alphas, ks, blocks


def grid(
    template: BWParams,
    alpha_range: tuple[float, float],
    k_range: tuple[float, float],
    alpha_steps: int,
    k_steps: int,
) -> TransmissionGrid:
    """Transmissivity over an (alpha, k) product grid, alpha-major.

    A single-point axis (steps = 1) requires a degenerate range and
    reduces to pointwise transmissivity.
    """
    alphas, ks, blocks = grid_blocks(template, alpha_range, k_range, alpha_steps, k_steps)
    values = np.concatenate([t for _, t in blocks])
    return TransmissionGrid(alphas=alphas, ks=ks, values=values)


def log10_transmission(ts) -> list[float]:
    """log10 of each transmission; a T that underflowed to 0 gives -inf.

    NaN (or a negative value) gives NaN, so a T that is not a number is
    not written as an underflowed one.
    """
    try:
        # every T > 0, or NaN, which log10 keeps
        return list(map(math.log10, ts))
    except ValueError:  # a T of 0 or below
        return [math.log10(t) if t > 0.0 else -math.inf if t == 0.0 else math.nan for t in ts]


def grid_csv_rows(g: TransmissionGrid):
    """Yield (alpha, k, T, log10T) rows in alpha-major order.

    log10 of a T that underflowed to 0 is -inf (emitted as "-inf").
    """
    points = product(g.alphas.tolist(), g.ks.tolist())
    ts = g.values.ravel().tolist()
    for (a, k), t, lt in zip(points, ts, log10_transmission(ts)):
        yield a, k, t, lt


def subbarrier_bound(alpha: float, c1: float, c2: float, eps: float) -> float:
    """Wave number below which transmission is tunneling, not overbarrier.

    Returns +inf at alpha = 0 (no barrier at all).
    """
    # BWParams checks the inputs; neither the kind nor sigma enters the barrier
    params = BWParams(Kind.PLUS, alpha, eps, c1, c2)
    if alpha == 0:
        return math.inf
    # the barrier is the sigma-free slot: h for alpha > 0, d for alpha < 0
    h, _, d, _ = bw_geometry(params)
    return math.sqrt(alpha * h if alpha > 0 else -alpha * d)
