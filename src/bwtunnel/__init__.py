"""Resonant tunneling through squeezed barrier-well structures.

Builds piecewise-constant barrier-well potentials parametrized by a
squeezing scale, computes exact transfer matrices and transmission
probabilities, solves the zero-range limiting equations for the
quantized resonance strengths, and tracks how finite-squeezing
transmission peaks converge onto them. Units: hbar^2/2m = 1.
"""

from .potential import BWParams, Kind, Segment, SegmentChain, bw_geometry, concat, realize, sigma_split
from .resonance import (
    NoPeakError,
    PoleError,
    ResonanceRoot,
    ResonanceSet,
    SetLabel,
    WindowTooCoarseError,
    db_resonance_residual,
    f_minus,
    f_plus,
    f_prime,
    find_roots,
    peak_refine,
    resonance_sets,
)
from .scattering import (
    ScatteringResult,
    TransmissionGrid,
    amplitudes,
    grid,
    grid_blocks,
    scan_alpha,
    subbarrier_bound,
    transmissivity,
)
from .transfer import (
    Branch,
    TransferMatrix,
    WaveNumbers,
    chain_matrix,
    closed_form,
    finite_eps_residuals,
    lambda21_factored,
    limit_matrix,
    segment_matrix,
    wave_numbers,
)
from .zerolimit import (
    ConvergenceRow,
    PointClassification,
    Transparency,
    boundary_map,
    boundary_values,
    classify,
    converge_study,
    partial_transmission_limit,
    theta,
)

__version__ = "0.1.0"

__all__ = [
    "BWParams", "Kind", "Segment", "SegmentChain", "bw_geometry", "concat",
    "realize", "sigma_split",
    "TransferMatrix", "WaveNumbers", "Branch",
    "segment_matrix", "chain_matrix", "closed_form", "lambda21_factored",
    "limit_matrix", "wave_numbers",
    "ScatteringResult", "TransmissionGrid", "amplitudes", "transmissivity",
    "scan_alpha", "grid", "grid_blocks", "subbarrier_bound",
    "PoleError", "WindowTooCoarseError", "NoPeakError", "SetLabel",
    "ResonanceRoot", "ResonanceSet", "f_plus", "f_minus", "f_prime",
    "finite_eps_residuals", "find_roots", "resonance_sets",
    "db_resonance_residual", "peak_refine",
    "Transparency", "PointClassification", "ConvergenceRow", "theta",
    "boundary_map", "boundary_values", "classify", "converge_study",
    "partial_transmission_limit",
    "__version__",
]
