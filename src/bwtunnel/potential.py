"""Piecewise-constant potentials and the squeezed barrier-well structures.

Everything works in units where hbar^2/2m = 1, so segment values are
energies and widths are lengths in the same dimensionless system. The
two model families are built from a thin rectangular barrier with an
adjacent rectangular well whose heights grow like eps^-2 while the
widths shrink like eps. BWParams rejects a parameter set whose numbers
or slab geometry (for either sign of the strength) are not finite.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class Kind(enum.Enum):
    """Arrangement of the two barrier-well units.

    PLUS repeats the unit left to right (barrier, well, barrier, well);
    MINUS mirrors it about the origin (barrier, well, well, barrier).
    """

    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class Segment:
    """One constant-potential slab: a (width, value) pair."""

    width: float
    value: float

    def __post_init__(self):
        if not (self.width > 0.0) or not math.isfinite(self.width):
            raise ValueError(f"segment width must be positive and finite, got {self.width}")
        if not math.isfinite(self.value):
            raise ValueError(f"segment value must be finite, got {self.value}")


@dataclass(frozen=True)
class SegmentChain:
    """Contiguous run of constant-potential slabs starting at x_left.

    Gaps are represented as explicit zero-value segments so edge
    positions stay meaningful for scattering phases even when wells
    degenerate to zero depth.
    """

    segments: tuple[Segment, ...]
    x_left: float = 0.0

    def __post_init__(self):
        if len(self.segments) == 0:
            raise ValueError("chain must contain at least one segment")
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def total_width(self) -> float:
        return sum(s.width for s in self.segments)

    @property
    def x_right(self) -> float:
        return self.x_left + self.total_width

    def translated(self, dx: float) -> "SegmentChain":
        """Same slabs rigidly shifted by dx."""
        return SegmentChain(self.segments, self.x_left + dx)

    def is_palindromic(self) -> bool:
        return tuple(reversed(self.segments)) == self.segments


def concat(first: SegmentChain, second: SegmentChain) -> SegmentChain:
    """Append second's slabs after first's; second's own x_left is ignored."""
    return SegmentChain(first.segments + second.segments, first.x_left)


@dataclass(frozen=True)
class BWParams:
    """Parameters generating one squeezed barrier-well structure.

    alpha is the interaction strength, eps the squeezing scale, c1/c2
    the barrier/well shape constants, and sigma controls the well depth
    (sigma = 0 removes the wells entirely, leaving a double barrier).
    """

    kind: Kind
    alpha: float
    eps: float
    c1: float
    c2: float
    sigma: float = 1.0

    def __post_init__(self):
        eps, c1, c2, sigma = self.eps, self.c1, self.c2, self.sigma
        if not (0.0 < eps < math.inf):
            raise ValueError(f"eps must be finite and > 0, got {eps}")
        if not (0.0 < c1 < math.inf):
            raise ValueError(f"c1 must be finite and > 0, got {c1}")
        if not (0.0 < c2 < math.inf):
            raise ValueError(f"c2 must be finite and > 0, got {c2}")
        if not (0.0 <= sigma < math.inf):
            raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        # scans and grids vary the sign of alpha, which moves sigma between
        # the slots (sigma_split), so the larger of sigma and 1 fills both
        s = sigma if sigma > 1.0 else 1.0
        try:
            h, l, d, r = slab_geometry(s, s, eps, c1, c2)
        except ZeroDivisionError:  # eps^2 or c*(c1 + c2) underflows to 0
            h = l = d = r = math.inf
        if not (h < math.inf and l < math.inf and d < math.inf and r < math.inf):
            raise ValueError(f"the slab geometry of eps = {eps}, c1 = {c1}, c2 = {c2}, "
                             f"sigma = {sigma} is not finite")


def sigma_split(alpha, sigma: float):
    """Distribute the well-control parameter by the sign of the strength.

    The parameter is assigned only to the wells: for alpha > 0 the
    negative-value slabs are the wells, so it lands on the second slot;
    for alpha < 0 the roles swap. At alpha = 0 both slots are 1. The one
    home of this rule: elementwise over an array of strengths, and a pair
    of floats for one strength.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    a = np.asarray(alpha)
    sp, sm = np.where(a < 0, sigma, 1.0), np.where(a > 0, sigma, 1.0)
    if sp.ndim == 0:
        return float(sp), float(sm)
    return sp, sm


def slab_geometry(sp, sm, eps: float, c1: float, c2: float):
    """Barrier height/width and well depth/width (h, l, d, r).

    sp, sm are the two slots of sigma_split; numpy arrays give arrays.
    """
    h = 2.0 * sp / (c1 * (c1 + c2)) / (eps * eps)
    d = 2.0 * sm / (c2 * (c1 + c2)) / (eps * eps)
    return h, c1 * eps, d, c2 * eps


def bw_geometry(params: BWParams) -> tuple[float, float, float, float]:
    """Barrier height/width and well depth/width (h, l, d, r) for params."""
    sp, sm = sigma_split(params.alpha, params.sigma)
    return slab_geometry(sp, sm, params.eps, params.c1, params.c2)


def realize(params: BWParams) -> SegmentChain:
    """Build the four-slab chain for params on [-(l+r), l+r].

    PLUS: barrier, well, barrier, well. MINUS: barrier, well, well,
    barrier (mirror symmetric about 0). Zero-depth wells are kept as
    explicit zero-value slabs. Heights scale like eps^-2; the tests hold
    T of these chains in double precision to 1e-11 of a 60-digit slab
    product for eps down to 1e-7 at |alpha| <= 200 (b = 3, sigma = 1).
    """
    h, l, d, r = bw_geometry(params)
    a = params.alpha
    barrier = Segment(l, a * h)
    well = Segment(r, -a * d)
    if params.kind is Kind.PLUS:
        segs = (barrier, well, barrier, well)
    else:
        segs = (barrier, well, well, barrier)
    return SegmentChain(segs, x_left=-(l + r))
