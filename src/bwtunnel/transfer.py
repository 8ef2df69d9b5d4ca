"""Transfer matrices for segment chains and their closed forms.

A transfer matrix maps the boundary data (psi, psi') at the left edge
of a structure to the right edge. For a real potential and E > 0 it is
real and unimodular; we keep complex entries throughout, and scattering
extracts real results with an imaginary-part check, so a wrong branch
shows up as a hard failure instead of a silent sign error.

The closed form is one numpy kernel, closed_form_arrays, over arrays of
strengths and energies, for both arrangements; closed_form is one point
of it for the arrangement its parameters name, and the slab product
(chain_matrix) stays the independent route.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .potential import BWParams, Kind, SegmentChain, bw_geometry, realize, slab_geometry


class Branch(enum.Enum):
    """Which divergence-cancellation branch a limit matrix belongs to."""

    ONE = 1
    TWO = 2


@dataclass(frozen=True)
class BoundaryState:
    """Wave-function value and derivative at one point."""

    psi: complex
    dpsi: complex


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

    def apply(self, state: BoundaryState) -> BoundaryState:
        return BoundaryState(
            self.m11 * state.psi + self.m12 * state.dpsi,
            self.m21 * state.psi + self.m22 * state.dpsi,
        )

    def entries(self) -> tuple[complex, complex, complex, complex]:
        return (self.m11, self.m12, self.m21, self.m22)

    def max_abs_diff(self, other: "TransferMatrix") -> float:
        return max(abs(a - b) for a, b in zip(self.entries(), other.entries()))

    @staticmethod
    def identity() -> "TransferMatrix":
        return TransferMatrix(1.0 + 0j, 0j, 0j, 1.0 + 0j)


def _slab_wave_numbers(alpha, E, h, d):
    """Principal-branch p = sqrt(E - alpha*h), q = sqrt(E + alpha*d), elementwise."""
    p = np.sqrt(np.asarray(E - alpha * h, dtype=complex))
    q = np.sqrt(np.asarray(E + alpha * d, dtype=complex))
    return p, q


def wave_numbers(params: BWParams, E: float) -> WaveNumbers:
    """Principal-branch p = sqrt(E - alpha*h), q = sqrt(E + alpha*d)."""
    h, _, d, _ = bw_geometry(params)
    p, q = _slab_wave_numbers(params.alpha, E, h, d)
    return WaveNumbers(complex(p), complex(q), math.sqrt(E) if E > 0 else 0.0)


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


def closed_form_entries(kind: Kind, p, q, l, r):
    """Closed-form entries (m11, m12, m21, m22) of the four-slab chain.

    Elementwise numpy arithmetic on the slab wave numbers p, q and widths
    l, r. The mirror arrangement's diagonal entries are equal by spatial
    symmetry and are computed once: its m22 is the very object returned
    as m11. p = 0 or q = 0 divides by zero; closed_form_arrays refills
    those points from chain_matrix.
    """
    sp, cp = np.sin(p * l), np.cos(p * l)
    s2p, c2p = np.sin(2 * p * l), np.cos(2 * p * l)
    s2q = np.sin(2 * q * r)
    por = p / q + q / p
    if kind is Kind.PLUS:
        sq, cq = np.sin(q * r), np.cos(q * r)
        m11 = c2p * cq**2 - 0.25 * (3 * p / q + q / p) * s2p * s2q \
            + ((p / q) ** 2 * sp**2 - cp**2) * sq**2
        m22 = c2p * cq**2 - 0.25 * (p / q + 3 * q / p) * s2p * s2q \
            + ((q / p) ** 2 * sp**2 - cp**2) * sq**2
        m12 = s2p * cq**2 / p + cp**2 * s2q / q \
            - por * (sp * cq / p + cp * sq / q) * sp * sq
        m21 = -p * s2p * cq**2 - q * cp**2 * s2q \
            + por * (p * sp * cq + q * cp * sq) * sp * sq
        return m11, m12, m21, m22
    c2q = np.cos(2 * q * r)
    diag = c2p * c2q - 0.5 * por * s2p * s2q
    m12 = s2p * c2q / p + ((p / q) * cp**2 - (q / p) * sp**2) * s2q / p
    m21 = -p * s2p * c2q + p * ((p / q) * sp**2 - (q / p) * cp**2) * s2q
    return diag, m12, m21, diag


def closed_form_arrays(kind: Kind, alphas, E, eps: float, c1: float, c2: float, sigma: float):
    """Closed-form entries (m11, m12, m21, m22) over broadcast strength and energy arrays.

    Each strength gets bw_geometry's slabs, with sigma split by its sign as
    sigma_split does. At the degenerate points p = 0 or q = 0 exactly
    (E = alpha*h or E = -alpha*d) the closed form is 0/0; there the entries
    are refilled from the slab product, whose series branch is regular
    (MINUS m22 stays the very array returned as m11).
    """
    a = np.asarray(alphas, dtype=float)
    E = np.asarray(E, dtype=float)
    h, l, d, r = slab_geometry(np.where(a < 0, sigma, 1.0), np.where(a > 0, sigma, 1.0),
                               eps, c1, c2)
    p, q = _slab_wave_numbers(a, E, h, d)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # alpha = 0 makes p = q = k exactly; no division hazards there
        m11, m12, m21, m22 = closed_form_entries(kind, p, q, l, r)
    for at in zip(*np.nonzero((p == 0) | (q == 0))):
        params = BWParams(kind, float(np.broadcast_to(a, p.shape)[at]), eps, c1, c2, sigma)
        L = chain_matrix(realize(params), float(np.broadcast_to(E, p.shape)[at]))
        m11[at], m12[at], m21[at] = L.m11, L.m12, L.m21
        if m22 is not m11:
            m22[at] = L.m22
    return m11, m12, m21, m22


def closed_form(params: BWParams, E: float) -> TransferMatrix:
    """Closed-form transfer matrix of the realized four-slab chain.

    One point of closed_form_arrays, so it equals a scan or grid point
    bit for bit; at p = 0 or q = 0 it is the slab product.
    """
    m = closed_form_arrays(params.kind, [params.alpha], [E], params.eps,
                           params.c1, params.c2, params.sigma)
    return TransferMatrix(*(complex(z[0]) for z in m))


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


def lambda21_factored(kind: Kind, params: BWParams, E: float) -> complex:
    """Two-factor form of the lower-left entry.

    Each factor is one of the divergence-cancellation residuals, so the
    entry vanishes exactly when either cancellation condition holds:
    -r8*r9 for PLUS and 2*(r10/q)*r9 for MINUS.
    """
    r8, r9, r10 = finite_eps_residuals(params, E)
    if kind is Kind.PLUS:
        return -r8 * r9
    return 2.0 * (r10 / wave_numbers(params, E).q) * r9


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
