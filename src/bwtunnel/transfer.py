"""Transfer matrices for segment chains and their closed forms.

A transfer matrix maps the boundary data (psi, psi') at the left edge
of a structure to the right edge. For a real potential and E > 0 it is
real and unimodular. The slab product (chain_matrix) keeps complex
entries on the principal branch, and scattering extracts real results
with an imaginary-part check, so a wrong branch there shows up as a hard
failure instead of a silent sign error.

The closed form is one numpy kernel, closed_form_arrays, over arrays of
strengths and energies: both arrangements are two copies of one
barrier-well cell, in real arithmetic on the squared wave numbers p^2 and
q^2 (cos/sin of an oscillating slab, cosh/sinh of an evanescent one), with
no complex trig and no branch to choose. It is the one route of
closed_form, scans, grids and the crest search of peak_refine, and the
finite-eps residuals and lambda21 are read off its cell, down to the exact
p = 0 / q = 0 points, where each slab term takes its regular limit. The
slab product is the independent oracle: only transmissivity and the CLI's
matrix command take it.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .potential import BWParams, Kind, SegmentChain, bw_geometry, sigma_split, slab_geometry


class Branch(enum.Enum):
    """Which divergence-cancellation branch a limit matrix belongs to."""

    ONE = 1
    TWO = 2


@dataclass(frozen=True)
class WaveNumbers:
    """Slab wave numbers p (barrier), q (well) and the free wave number k."""

    p: complex
    q: complex
    k: float


@dataclass(frozen=True)
class TransferMatrix:
    m11: complex
    m12: complex
    m21: complex
    m22: complex

    def det(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21

    def max_abs_entry(self) -> float:
        return max(abs(self.m11), abs(self.m12), abs(self.m21), abs(self.m22))

    def __matmul__(self, other: "TransferMatrix") -> "TransferMatrix":
        return TransferMatrix(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def entries(self) -> tuple[complex, complex, complex, complex]:
        return (self.m11, self.m12, self.m21, self.m22)

    def max_abs_diff(self, other: "TransferMatrix") -> float:
        return max(abs(a - b) for a, b in zip(self.entries(), other.entries()))

    @staticmethod
    def identity() -> "TransferMatrix":
        return TransferMatrix(1.0 + 0j, 0j, 0j, 1.0 + 0j)


def wave_numbers(params: BWParams, E: float) -> WaveNumbers:
    """Principal-branch p = sqrt(E - alpha*h), q = sqrt(E + alpha*d)."""
    h, _, d, _ = bw_geometry(params)
    return WaveNumbers(cmath.sqrt(E - params.alpha * h), cmath.sqrt(E + params.alpha * d),
                       math.sqrt(E) if E > 0 else 0.0)


def segment_matrix(width: float, value: float, E: float) -> TransferMatrix:
    """Propagator across one slab of the given potential value.

    Uses kappa = sqrt(E - value) on the principal branch; near kappa = 0
    the sin(kw)/kappa entries switch to a three-term series whose
    truncation error (< 1e-24 at the switch point) is far below double
    rounding, removing the 0/0.
    """
    if not (width > 0.0):
        raise ValueError(f"width must be > 0, got {width}")
    kap2 = complex(E - value, 0.0)
    z = kap2 * width * width
    if abs(z) < 1e-8:
        diag = 1.0 - z / 2.0 + z * z / 24.0
        tail = 1.0 - z / 6.0 + z * z / 120.0
        return TransferMatrix(diag, width * tail, -kap2 * width * tail, diag)
    kap = cmath.sqrt(kap2)
    c = cmath.cos(kap * width)
    s = cmath.sin(kap * width)
    return TransferMatrix(c, s / kap, -kap * s, c)


def chain_matrix(chain: SegmentChain, E: float) -> TransferMatrix:
    """Ordered slab product; the leftmost segment acts first."""
    m = segment_matrix(chain.segments[0].width, chain.segments[0].value, E)
    for seg in chain.segments[1:]:
        m = segment_matrix(seg.width, seg.value, E) @ m
    return m


def _slab_terms(w, width):
    """(c, S, T) = (cos(pL), sin(pL)/p, p*sin(pL)) of one slab, p = sqrt(w), L = width.

    Real arithmetic: cos/sin of kappa*width where w >= 0, cosh/sinh where
    w < 0 or w is NaN (p = i*kappa, so T = -kappa*sinh), and S = width at
    kappa = 0. Each point gets only its own branch's pair: the masked
    ufunc calls fill c and s in place, so no cosh is taken (and none
    overflows) at an oscillating point, and no cos at an evanescent one.
    """
    kap = np.sqrt(np.abs(w))
    x = kap * width
    osc = w >= 0
    evan = ~osc
    c = np.cos(x, out=np.empty_like(x), where=osc)
    np.cosh(x, out=c, where=evan)
    s = np.sin(x, out=np.empty_like(x), where=osc)
    np.sinh(x, out=s, where=evan)
    return c, np.where(kap == 0, width, s / kap), np.copysign(kap, w) * s


def _cell(wp, wq, l, r):
    """Entries (A, B, C, D) of the cell H = (well slab)*(barrier slab), elementwise.

    The barrier (wp = p^2, width l) acts first, then the well (wq = q^2,
    width r); real arithmetic on each slab's (c, S, T) of _slab_terms, so
    the ratios p/q and q/p never appear.
    """
    cp, Sp, Tp = _slab_terms(wp, l)
    cq, Sq, Tq = _slab_terms(wq, r)
    cc = cp * cq
    return cc - Tp * Sq, Sp * cq + cp * Sq, -(Tp * cq + cp * Tq), cc - Sp * Tq


def _cell_step(alphas, E, eps, c1, c2, sigma: float):
    """The cell entries (A, B, C, D) of _cell and q^2, over broadcast strength and energy arrays.

    The one cell step of closed_form_arrays and the finite-eps diagnostics,
    on bw_geometry's slabs with sigma split by the sign of each strength.
    Callers run it under the errstate of closed_form_arrays.
    """
    a = np.asarray(alphas, dtype=float)
    E = np.asarray(E, dtype=float)
    h, l, d, r = slab_geometry(*sigma_split(a, sigma), eps, c1, c2)
    wq = E + a * d
    return _cell(E - a * h, wq, l, r), wq


def closed_form_arrays(kind: Kind, alphas, E, eps: float, c1: float, c2: float, sigma: float):
    """Closed-form entries (m11, m12, m21, m22) over broadcast strength and energy arrays.

    Real float64 arrays, on bw_geometry's slabs with sigma split by the sign
    of each strength. PLUS is H*H for the cell H = [[A, B], [C, D]] of _cell,
    and MINUS is H^R*H with the mirror H^R = [[D, B], [C, A]], whose equal
    diagonal AD + BC is one object, returned as m11 and m22. At p = 0 or
    q = 0 exactly (E = alpha*h or E = -alpha*d) each slab term takes its
    regular limit in _slab_terms. The floating-point warnings silenced here
    come only from points whose own terms overflow or are not finite
    (cosh/sinh past a phase of about 710, inf times 0, 0/0 at kappa = 0).
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        (A, B, C, D), _ = _cell_step(alphas, E, eps, c1, c2, sigma)
        if kind is Kind.PLUS:
            trace = A + D
            return A * A + B * C, trace * B, trace * C, B * C + D * D
        diag = A * D + B * C
        return diag, 2 * B * D, 2 * A * C, diag


def closed_form(params: BWParams, E: float) -> TransferMatrix:
    """Closed-form transfer matrix of the realized four-slab chain.

    One point of closed_form_arrays, so it equals a scan or grid point
    bit for bit, at p = 0 or q = 0 too.
    """
    m = closed_form_arrays(params.kind, [params.alpha], [E], params.eps,
                           params.c1, params.c2, params.sigma)
    return TransferMatrix(*(complex(z[0]) for z in m))


def _point_cell(params: BWParams, E: float):
    """The cell entries (A, B, C, D) and q^2 at E as floats: one point of _cell_step."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cell, wq = _cell_step([params.alpha], [E], params.eps, params.c1, params.c2, params.sigma)
    return tuple(float(z[0]) for z in cell), float(wq[0])


def finite_eps_residuals(params: BWParams, E: float) -> tuple[complex, complex, complex]:
    """The three divergence-cancellation residuals at finite squeezing.

    Diagnostics for how close a configuration is to each branch along
    which the lower-left matrix entry stays finite as eps -> 0, read off
    the cell (A, B, C, D) of _cell: r8 = A + D, r9 = -C and r10 = -q*A,
    regular at p = 0 and q = 0, inf or NaN past the float range. Complex:
    r10 is purely imaginary where q^2 < 0, and the rest is real.
    """
    (A, _, C, D), wq = _point_cell(params, E)
    qA = math.sqrt(abs(wq)) * A
    return complex(A + D), complex(-C), complex(-qA) if wq >= 0 else complex(0.0, -qA)


def lambda21_factored(params: BWParams, E: float) -> complex:
    """Two-factor form of the lower-left entry.

    Each factor is one of the divergence-cancellation residuals, so the
    entry vanishes exactly when either cancellation condition holds:
    -r8*r9 = (A + D)*C for PLUS and 2*(r10/q)*r9 = 2*A*C for MINUS, with
    no division by p or q. It is closed_form's m21, whose kernel writes
    those two products.
    """
    return closed_form(params, E).m21


def limit_matrix(kind: Kind, branch: Branch, theta: float | None = None) -> TransferMatrix:
    """Zero-range limits of the conditioned transfer matrices.

    Branch ONE gives -I for both arrangements; branch TWO gives the
    squared discontinuity matrix diag(theta^2, theta^-2) for PLUS and
    the identity for MINUS.
    """
    if branch is Branch.ONE:
        return TransferMatrix(-1.0 + 0j, 0j, 0j, -1.0 + 0j)
    if kind is Kind.MINUS:
        return TransferMatrix.identity()
    if theta is None or theta == 0.0:
        raise ValueError("theta must be nonzero for the PLUS branch-TWO limit")
    t2 = complex(theta * theta, 0.0)
    return TransferMatrix(t2, 0j, 0j, 1.0 / t2)
