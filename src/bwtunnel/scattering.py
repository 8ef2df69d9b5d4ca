"""Scattering amplitudes, transmission probabilities, scans and grids.

Probabilities come from the u, v combination of matrix entries rather
than from |T|^2 of the amplitudes, which avoids phase-factor
cancellation. Scans and grids evaluate the closed-form matrix elements
vectorized over numpy arrays; single-point transmissivity goes through
the slab product, and the two routes are cross-checked in the tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .potential import BWParams, Kind, realize
from .transfer import (
    NEAR_OPAQUE_THRESHOLD,
    TransferMatrix,
    chain_matrix,
    closed_form_entries,
    require_real,
)


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

    def to_json_dict(self) -> dict:
        return {
            "alphas": self.alphas.tolist(),
            "ks": self.ks.tolist(),
            "values": self.values.tolist(),
        }


def uv(L: TransferMatrix, k: float) -> tuple[float, float]:
    """Asymmetry u = m11 - m22 and v = k*m12 + m21/k, as real numbers."""
    if k <= 0:
        raise ValueError(f"k must be > 0, got {k}")
    u = require_real(L.m11 - L.m22)
    v = require_real(k * L.m12 + L.m21 / k)
    return u, v


def amplitudes(L: TransferMatrix, k: float, x1: float, x2: float) -> ScatteringResult:
    """Left/right reflection and transmission amplitudes for the matrix L.

    x1 and x2 are the edge positions entering the plane-wave phase
    factors. Probabilities always satisfy refl + trans = 1 and the two
    transmission amplitudes are equal for any real potential.
    """
    if k <= 0:
        raise ValueError(f"k must be > 0, got {k}")
    det = L.det()
    scale = 1.0 + abs(L.m11 * L.m22) + abs(L.m12 * L.m21)
    if abs(det - 1.0) > 1e-8 * scale:
        raise ValueError(f"transfer matrix is not unimodular: det = {det!r}")
    l11, l12, l21, l22 = L.entries()
    D = l11 + l22 - 1j * (k * l12 - l21 / k)
    rl = (l22 - l11 - 1j * (k * l12 + l21 / k)) / D * cmath.exp(2j * k * x1)
    rr = (l11 - l22 - 1j * (k * l12 + l21 / k)) / D * cmath.exp(-2j * k * x2)
    t = 2.0 / D * cmath.exp(1j * k * (x1 - x2))
    u, v = uv(L, k)
    s = u * u + v * v
    return ScatteringResult(rl, rr, t, t, refl=s / (4.0 + s), trans=4.0 / (4.0 + s))


def transmissivity(params: BWParams, k: float) -> float:
    """Transmission probability of the realized chain at wave number k.

    Near-opaque matrices (entries beyond double-precision usefulness)
    report exactly 0.0, consistent with the perfectly-reflecting limit.
    """
    if k <= 0:
        raise ValueError(f"k must be > 0, got {k}")
    L = chain_matrix(realize(params), k * k)
    if L.near_opaque:
        return 0.0
    u, v = uv(L, k)
    return 4.0 / (4.0 + u * u + v * v)


def _uv_arrays(kind: Kind, alphas, ks, eps: float, c1: float, c2: float, sigma: float):
    """Vectorized closed-form u, v over broadcast (alpha, k) arrays.

    Returns (u, v, opaque) where opaque marks points whose entries
    overflowed the near-opaque threshold (or double precision).
    """
    a = np.asarray(alphas, dtype=float)[:, None]
    k = np.asarray(ks, dtype=float)[None, :]
    sp_ = np.where(a < 0, sigma, 1.0)
    sm_ = np.where(a > 0, sigma, 1.0)
    h = 2.0 * sp_ / (c1 * (c1 + c2)) / eps**2
    d = 2.0 * sm_ / (c2 * (c1 + c2)) / eps**2
    l = c1 * eps
    r = c2 * eps
    E = k * k
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        p = np.sqrt((E - a * h).astype(complex))
        q = np.sqrt((E + a * d).astype(complex))
        # alpha = 0 makes p = q = k exactly; no division hazards there
        m11, m12, m21, m22 = closed_form_entries(kind, p, q, l, r, np.sin, np.cos)
        # p = 0 or q = 0 exactly is 0/0 in the closed form: refill those
        # points from the slab product (MINUS m22 is m11 itself)
        for i, j in zip(*np.nonzero((p == 0) | (q == 0))):
            params = BWParams(kind, float(a[i, 0]), eps, c1, c2, sigma)
            L = chain_matrix(realize(params), float(E[0, j]))
            m11[i, j], m12[i, j], m21[i, j] = L.m11, L.m12, L.m21
            if m22 is not m11:
                m22[i, j] = L.m22
        u_c = m11 - m22
        v_c = k * m12 + m21 / k
        mag = np.maximum(np.maximum(np.abs(m11), np.abs(m12)),
                         np.maximum(np.abs(m21), np.abs(m22)))
    opaque = ~np.isfinite(mag) | (mag > NEAR_OPAQUE_THRESHOLD)
    ok = ~opaque
    bad_im = np.abs(u_c.imag[ok]) > 1e-9 * (1.0 + np.abs(u_c[ok]))
    bad_im |= np.abs(v_c.imag[ok]) > 1e-9 * (1.0 + np.abs(v_c[ok]))
    if np.any(bad_im):
        raise ValueError("complex residue in u or v; branch inconsistency")
    return u_c.real, v_c.real, opaque


def _transmission_array(kind, alphas, ks, eps, c1, c2, sigma):
    u, v, opaque = _uv_arrays(kind, alphas, ks, eps, c1, c2, sigma)
    with np.errstate(over="ignore"):
        t = 4.0 / (4.0 + u * u + v * v)
    t[opaque] = 0.0
    return t


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
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    g = grid(template, (alpha_min, alpha_max), (k, k), steps, 1)
    return list(zip(g.alphas.tolist(), g.values[:, 0].tolist()))


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
    for name, (lo, hi), n in (("alpha", alpha_range, alpha_steps), ("k", k_range, k_steps)):
        if n < 1:
            raise ValueError(f"{name}_steps must be >= 1, got {n}")
        if n == 1 and lo != hi:
            raise ValueError(f"{name} range must be degenerate when steps = 1")
        if lo > hi:
            raise ValueError(f"{name} range is reversed")
    if k_range[0] <= 0:
        raise ValueError("all k values must be > 0")
    alphas = np.linspace(alpha_range[0], alpha_range[1], alpha_steps)
    ks = np.linspace(k_range[0], k_range[1], k_steps)
    values = _transmission_array(template.kind, alphas, ks, template.eps,
                                 template.c1, template.c2, template.sigma)
    return TransmissionGrid(alphas=alphas, ks=ks, values=values)


def grid_csv_rows(g: TransmissionGrid):
    """Yield (alpha, k, T, log10T) rows in alpha-major order.

    log10 of a flagged zero is the -inf sentinel (emitted as "-inf").
    """
    points = product(g.alphas.tolist(), g.ks.tolist())
    for (a, k), t in zip(points, g.values.ravel().tolist()):
        yield a, k, t, math.log10(t) if t > 0.0 else -math.inf


def subbarrier_bound(alpha: float, c1: float, c2: float, eps: float) -> float:
    """Wave number below which transmission is tunneling, not overbarrier.

    Returns +inf at alpha = 0 (no barrier at all).
    """
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if alpha == 0:
        return math.inf
    if alpha > 0:
        return math.sqrt(2.0 * alpha / (c1 * (c1 + c2))) / eps
    return math.sqrt(2.0 * abs(alpha) / (c2 * (c1 + c2))) / eps
