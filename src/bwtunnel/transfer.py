"""Transfer matrices for segment chains and their closed forms.

A transfer matrix maps the boundary data (psi, psi') at the left edge
of a structure to the right edge. For a real potential and E > 0 it is
real and unimodular; we keep complex entries throughout and extract
real results with an imaginary-part assertion, so a wrong branch shows
up as a hard failure instead of a silent sign error.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

from .potential import BWParams, Kind, SegmentChain, bw_geometry, realize

# Entries past this magnitude mean the structure is effectively a wall;
# downstream code reports zero transmission instead of erroring out.
NEAR_OPAQUE_THRESHOLD = 1e12

# Imaginary parts per unit magnitude above this indicate a branch bug.
REALNESS_TOL = 1e-9


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

    @property
    def near_opaque(self) -> bool:
        """True when entries are too large for meaningful double arithmetic."""
        m = self.max_abs_entry()
        return (not math.isfinite(m)) or m > NEAR_OPAQUE_THRESHOLD

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


def require_real(z: complex, tol: float = REALNESS_TOL) -> float:
    """Return Re(z) after checking the imaginary part is rounding noise."""
    if abs(z.imag) > tol * (1.0 + abs(z)):
        raise ValueError(f"expected a real value, got {z!r}")
    return z.real


def wave_numbers(params: BWParams, E: float) -> WaveNumbers:
    """Principal-branch p = sqrt(E - alpha*h), q = sqrt(E + alpha*d)."""
    h, _, d, _ = bw_geometry(params)
    p = cmath.sqrt(complex(E - params.alpha * h, 0.0))
    q = cmath.sqrt(complex(E + params.alpha * d, 0.0))
    k = math.sqrt(E) if E > 0 else 0.0
    return WaveNumbers(p, q, k)


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


def closed_form_entries(kind: Kind, p, q, l, r, sin, cos):
    """Closed-form entries (m11, m12, m21, m22) of the four-slab chain.

    Pure arithmetic on the slab wave numbers p, q and widths l, r, so the
    one formula serves Python complex numbers (with cmath.sin/cos) and
    numpy arrays (with np.sin/np.cos) alike. The mirror arrangement's
    diagonal entries are equal by spatial symmetry and are computed once:
    its m22 is the very object returned as m11. p = 0 or q = 0 divides
    by zero; callers route those points through chain_matrix.
    """
    sp, cp = sin(p * l), cos(p * l)
    s2p, c2p = sin(2 * p * l), cos(2 * p * l)
    s2q = sin(2 * q * r)
    por = p / q + q / p
    if kind is Kind.PLUS:
        sq, cq = sin(q * r), cos(q * r)
        m11 = c2p * cq**2 - 0.25 * (3 * p / q + q / p) * s2p * s2q \
            + ((p / q) ** 2 * sp**2 - cp**2) * sq**2
        m22 = c2p * cq**2 - 0.25 * (p / q + 3 * q / p) * s2p * s2q \
            + ((q / p) ** 2 * sp**2 - cp**2) * sq**2
        m12 = s2p * cq**2 / p + cp**2 * s2q / q \
            - por * (sp * cq / p + cp * sq / q) * sp * sq
        m21 = -p * s2p * cq**2 - q * cp**2 * s2q \
            + por * (p * sp * cq + q * cp * sq) * sp * sq
        return m11, m12, m21, m22
    c2q = cos(2 * q * r)
    diag = c2p * c2q - 0.5 * por * s2p * s2q
    m12 = s2p * c2q / p + ((p / q) * cp**2 - (q / p) * sp**2) * s2q / p
    m21 = -p * s2p * c2q + p * ((p / q) * sp**2 - (q / p) * cp**2) * s2q
    return diag, m12, m21, diag


def closed_form(params: BWParams, E: float) -> TransferMatrix:
    """Closed-form transfer matrix of the realized four-slab chain.

    At the degenerate points p = 0 or q = 0 exactly (E = alpha*h or
    E = -alpha*d) the closed form is 0/0; there the slab product is
    returned, whose series branch is regular.
    """
    _, l, _, r = bw_geometry(params)
    w = wave_numbers(params, E)
    if w.p == 0 or w.q == 0:
        return chain_matrix(realize(params), E)
    return TransferMatrix(*closed_form_entries(params.kind, w.p, w.q, l, r,
                                               cmath.sin, cmath.cos))


def closed_form_plus(params: BWParams, E: float) -> TransferMatrix:
    """Closed-form transfer matrix of the repeated barrier-well pair."""
    if params.kind is not Kind.PLUS:
        raise ValueError("closed_form_plus requires the PLUS arrangement")
    return closed_form(params, E)


def closed_form_minus(params: BWParams, E: float) -> TransferMatrix:
    """Closed-form transfer matrix of the mirror arrangement."""
    if params.kind is not Kind.MINUS:
        raise ValueError("closed_form_minus requires the MINUS arrangement")
    return closed_form(params, E)


def lambda21_factored(kind: Kind, params: BWParams, E: float) -> complex:
    """Two-factor form of the lower-left entry.

    Each factor is one of the divergence-cancellation residuals, so the
    entry vanishes exactly when either cancellation condition holds.
    """
    _, l, _, r = bw_geometry(params)
    w = wave_numbers(params, E)
    p, q = w.p, w.q
    sp, cp = cmath.sin(p * l), cmath.cos(p * l)
    sq, cq = cmath.sin(q * r), cmath.cos(q * r)
    shared = p * sp * cq + q * cp * sq
    if kind is Kind.PLUS:
        first = (p / q + q / p) * sp * sq - 2.0 * cp * cq
    else:
        first = 2.0 * ((p / q) * sp * sq - cp * cq)
    return first * shared


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
