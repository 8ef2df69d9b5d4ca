"""Zero-range limit: transparency classification and peak convergence.

In the squeezed limit every strength is either totally transparent (on
a resonance set), partially transparent (repeated arrangement on the
shared set, with a finite limiting probability set by the boundary
discontinuity factor), or opaque. Finite-squeezing peaks drift onto the
limiting strengths; converge_study tracks that drift numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .potential import BWParams, Kind
from .resonance import (
    MODEL_SETS,
    ResonanceRoot,
    ResonanceSet,
    SetLabel,
    peak_refine,
    theta_factor,
)
from .scattering import amplitudes
from .transfer import Branch, TransferMatrix, limit_matrix


class Transparency(Enum):
    TOTAL = "TotalTransmission"
    PARTIAL = "PartialTransmission"
    OPAQUE = "Opaque"


@dataclass(frozen=True)
class PointClassification:
    """Limiting behavior of one strength value.

    matched_set/theta/t_limit are populated according to the label:
    TOTAL carries the matched set, PARTIAL additionally the
    discontinuity factor and its limiting transmission in (0, 1).
    """

    label: Transparency
    alpha: float
    matched_set: SetLabel | None = None
    theta: float | None = None
    t_limit: float | None = None


@dataclass(frozen=True)
class ConvergenceRow:
    eps: float
    alpha_peak: float
    t_peak: float
    alpha_drift: float


# Boundary discontinuity factor at a root of the shared equation. Meaningful
# only on that root set; elsewhere it is just the cosh/cos ratio.
theta = theta_factor


def boundary_map(th: float) -> TransferMatrix:
    """Two-sided boundary connection diag(theta, 1/theta).

    Encodes psi(+0) = theta*psi(-0) and psi'(-0) = theta*psi'(+0): both
    the wave function and its derivative jump at the origin.
    """
    if th == 0.0:
        raise ValueError("theta must be nonzero")
    return TransferMatrix(complex(th, 0.0), 0j, 0j, complex(1.0 / th, 0.0))


def boundary_values(th: float, psi_minus: complex, dpsi_plus: complex) -> tuple[complex, complex]:
    """Map (psi(-0), psi'(+0)) to (psi(+0), psi'(-0))."""
    if th == 0.0:
        raise ValueError("theta must be nonzero")
    return th * psi_minus, th * dpsi_plus


def partial_transmission_limit(th: float) -> float:
    """Limiting transmission through the squared discontinuity matrix.

    Computed through the scattering amplitudes of diag(theta^2,
    theta^-2) so there is a single source of truth for probabilities;
    the value is k independent, so it is taken at k = 1.
    """
    L = limit_matrix(Kind.PLUS, Branch.TWO, th)
    return amplitudes(L, 1.0, 0.0, 0.0).trans


def classify(
    kind: Kind,
    alpha: float,
    sets: tuple[ResonanceSet, ResonanceSet],
    match_tol: float = 1e-6,
) -> PointClassification:
    """Transparency trichotomy of a strength against precomputed sets.

    The repeated arrangement is totally transparent on its own set and
    only partially transparent on the shared set; the mirror arrangement
    is totally transparent on both. Everything else is opaque. Strength
    0 is trivially transparent for both. match_tol must be >= 0 (not NaN)
    and the model set kind's own. The sets of resonance_sets_near(...,
    alpha, match_tol, ...) hold every root this matches, so they classify
    alpha as resonance_sets' do.
    """
    if not match_tol >= 0.0:
        raise ValueError(f"match_tol must be >= 0, got {match_tol}")
    model_set, prime_set = sets
    label = MODEL_SETS[kind][1]
    if any(root.set_label is not label for root in model_set.roots):
        raise ValueError(f"a {kind.value} strength needs a {label.value} model set")
    lo, hi = model_set.window
    if not (lo <= alpha <= hi):
        raise ValueError(f"alpha {alpha} lies outside the precomputed window {model_set.window}")

    match_model = _closest(model_set, alpha, match_tol)
    match_prime = _closest(prime_set, alpha, match_tol)

    if match_model is not None:
        return PointClassification(Transparency.TOTAL, alpha, matched_set=match_model.set_label)
    if match_prime is not None:
        if kind is Kind.MINUS:
            return PointClassification(Transparency.TOTAL, alpha, matched_set=SetLabel.SIGMA_PRIME)
        th = match_prime.theta  # resonance_sets sets it on every shared-set root
        return PointClassification(
            Transparency.PARTIAL,
            alpha,
            matched_set=SetLabel.SIGMA_PRIME,
            theta=th,
            t_limit=partial_transmission_limit(th),
        )
    return PointClassification(Transparency.OPAQUE, alpha)


def _closest(rset: ResonanceSet, alpha: float, tol: float) -> ResonanceRoot | None:
    best = None
    for root in rset.roots:
        if abs(root.alpha - alpha) <= tol:
            if best is None or abs(root.alpha - alpha) < abs(best.alpha - alpha):
                best = root
    return best


def converge_study(
    kind: Kind,
    alpha_limit: float,
    b: float,
    sigma: float,
    k: float,
    eps_list: list[float],
    radius: float = 0.5,
) -> list[ConvergenceRow]:
    """Track the finite-squeezing peak near a limiting strength.

    eps_list must be strictly decreasing and positive; each entry yields
    one row with the refined crest and its drift from the limit. Rows
    are independent computations emitted in eps_list order.
    """
    if not eps_list:
        raise ValueError("eps_list must not be empty")
    if any(e <= 0 for e in eps_list):
        raise ValueError("all eps values must be > 0")
    if any(a <= b_ for a, b_ in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    rows = []
    for eps in eps_list:
        template = BWParams(kind=kind, alpha=alpha_limit, eps=eps, c1=b, c2=1.0, sigma=sigma)
        alpha_peak, t_peak = peak_refine(template, k, alpha_limit, radius)
        rows.append(ConvergenceRow(eps, alpha_peak, t_peak, abs(alpha_peak - alpha_limit)))
    return rows
