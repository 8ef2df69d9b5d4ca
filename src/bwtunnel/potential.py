"""Piecewise-constant potentials and the squeezed barrier-well structures.

Everything works in units where hbar^2/2m = 1, so segment values are
energies and widths are lengths in the same dimensionless system. The
two model families are built from a thin rectangular barrier with an
adjacent rectangular well whose heights grow like eps^-2 while the
widths shrink like eps.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass


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

    def is_palindromic(self, rel: float = 0.0) -> bool:
        rev = tuple(reversed(self.segments))
        if rel == 0.0:
            return rev == self.segments
        return all(
            math.isclose(a.width, b.width, rel_tol=rel)
            and math.isclose(a.value, b.value, rel_tol=rel, abs_tol=rel)
            for a, b in zip(rev, self.segments)
        )

    def to_json_dict(self) -> dict:
        return {
            "x_left": self.x_left,
            "segments": [{"width": s.width, "value": s.value} for s in self.segments],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SegmentChain":
        segs = tuple(Segment(width=s["width"], value=s["value"]) for s in data["segments"])
        return cls(segs, float(data["x_left"]))

    def to_json(self) -> str:
        from .serialize import json_dumps

        return json_dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "SegmentChain":
        return cls.from_json_dict(json.loads(text))


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
        if not (self.eps > 0.0):
            raise ValueError(f"eps must be > 0, got {self.eps}")
        if not (self.c1 > 0.0):
            raise ValueError(f"c1 must be > 0, got {self.c1}")
        if not (self.c2 > 0.0):
            raise ValueError(f"c2 must be > 0, got {self.c2}")
        if not (self.sigma >= 0.0):
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")

    @property
    def b(self) -> float:
        """Shape ratio c1/c2."""
        return self.c1 / self.c2


def sigma_split(alpha: float, sigma: float) -> tuple[float, float]:
    """Distribute the well-control parameter by the sign of the strength.

    The parameter is assigned only to the wells: for alpha > 0 the
    negative-value slabs are the wells, so it lands on the second slot;
    for alpha < 0 the roles swap. At alpha = 0 both slots are 1.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if alpha > 0:
        return (1.0, sigma)
    if alpha < 0:
        return (sigma, 1.0)
    return (1.0, 1.0)


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
    explicit zero-value slabs. Heights scale like eps^-2, so chains in
    double precision are reliable for eps in roughly [1e-4, 1]; below
    that, use the limiting-equation machinery instead of direct chains.
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
