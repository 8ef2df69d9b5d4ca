import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwtunnel.potential import BWParams, Kind, Segment, SegmentChain, realize
from bwtunnel.resonance import peak_refine
from bwtunnel.scattering import (
    TransmissionGrid,
    amplitudes,
    grid,
    grid_csv_rows,
    scan_alpha,
    subbarrier_bound,
    transmissivity,
)
from bwtunnel.transfer import TransferMatrix, chain_matrix, limit_matrix, Branch

from conftest import KNOWN_SIGMA_PRIME

moderate_segments = st.lists(
    st.tuples(st.floats(0.05, 0.5), st.floats(-4.0, 4.0)),
    min_size=1, max_size=4,
).map(lambda ws: SegmentChain(tuple(Segment(w, v) for w, v in ws), x_left=-0.4))


class TestAmplitudes:
    def test_identity_matrix_transmits_fully(self):
        res = amplitudes(TransferMatrix.identity(), 0.7, -1.0, 1.0)
        assert res.trans == 1.0
        assert res.refl == 0.0
        assert abs(res.rl) < 1e-15 and abs(res.rr) < 1e-15

    def test_minus_identity_transmits_fully(self):
        m = TransferMatrix(-1.0 + 0j, 0j, 0j, -1.0 + 0j)
        res = amplitudes(m, 1.3, 0.0, 0.0)
        assert res.trans == pytest.approx(1.0, abs=1e-15)

    def test_squared_discontinuity_matrix(self):
        # partial transparency through diag(theta^2, theta^-2)
        theta = 2.0
        m = limit_matrix(Kind.PLUS, Branch.TWO, theta)
        res = amplitudes(m, 1.0, 0.0, 0.0)
        u = theta**2 - theta**-2
        assert res.trans == pytest.approx(4.0 / (4.0 + u * u), rel=1e-14)
        assert res.trans < 1.0

    def test_k_validation(self):
        with pytest.raises(ValueError):
            amplitudes(TransferMatrix.identity(), 0.0, 0.0, 0.0)

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            amplitudes(TransferMatrix(2.0 + 0j, 0j, 0j, 2.0 + 0j), 1.0, 0.0, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(chain=moderate_segments, k=st.floats(0.3, 4.0))
    def test_flux_conservation_and_lr_symmetry(self, chain, k):
        res = amplitudes(chain_matrix(chain, k * k), k, chain.x_left, chain.x_right)
        assert res.refl + res.trans == pytest.approx(1.0, abs=1e-12)
        assert abs(res.tl) == pytest.approx(abs(res.tr), abs=1e-12)
        assert abs(abs(res.tl) ** 2 - res.trans) < 1e-10
        assert 0.0 <= res.trans <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(chain=moderate_segments, k=st.floats(0.3, 4.0), dx=st.floats(-3.0, 3.0))
    def test_translation_leaves_probabilities_alone(self, chain, k, dx):
        m = chain_matrix(chain, k * k)
        a = amplitudes(m, k, chain.x_left, chain.x_right)
        b = amplitudes(m, k, chain.x_left + dx, chain.x_right + dx)
        assert a.trans == b.trans
        assert abs(a.rl) == pytest.approx(abs(b.rl), abs=1e-13)
        assert abs(a.tl) == pytest.approx(abs(b.tl), abs=1e-13)


def test_minus_model_reflection_symmetry():
    # mirror-symmetric potential: equal reflection amplitudes from both sides
    rng = np.random.default_rng(42)
    for _ in range(25):
        params = BWParams(Kind.MINUS, rng.uniform(-20, 20), rng.uniform(0.1, 0.5),
                          rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.uniform(0, 2))
        chain = realize(params)
        k = rng.uniform(0.3, 3.0)
        m = chain_matrix(chain, k * k)
        if m.max_abs_entry() > 1e6:
            continue
        res = amplitudes(m, k, chain.x_left, chain.x_right)
        assert abs(res.rl) == pytest.approx(abs(res.rr), abs=1e-10)


class TestTransmissivity:
    def test_free_particle(self):
        assert transmissivity(BWParams(Kind.PLUS, 0.0, 0.3, 1.0, 1.0, 1.0), 1.0) == 1.0

    def test_total_transmission_peak_near_first_root(self):
        template = BWParams(Kind.PLUS, 0.0, 0.1, 3.0, 1.0, 1.0)
        _, t_peak = peak_refine(template, 1.0, 2.28, 0.5)
        assert t_peak >= 0.99

    def test_off_resonance_opacity(self):
        t = transmissivity(BWParams(Kind.PLUS, 10.0, 0.02, 3.0, 1.0, 1.0), 1.0)
        assert t < 1e-4

    def test_matches_amplitudes_route(self):
        params = BWParams(Kind.MINUS, -4.2, 0.2, 2.0, 1.0, 1.0)
        chain = realize(params)
        res = amplitudes(chain_matrix(chain, 1.69), 1.3, chain.x_left, chain.x_right)
        assert transmissivity(params, 1.3) == pytest.approx(res.trans, rel=1e-12)

    def test_near_opaque_reports_zero(self):
        # far outside the documented eps range the entries overflow the
        # usefulness threshold and the flagged value is exactly 0
        t = transmissivity(BWParams(Kind.PLUS, 40.0, 1e-6, 3.0, 1.0, 1.0), 1.0)
        assert t == 0.0


class TestScanAlpha:
    def test_degenerate_range(self):
        template = BWParams(Kind.PLUS, 0.0, 0.1, 3.0, 1.0, 1.0)
        rows = scan_alpha(template, 1.0, 0.0, 0.0, 2)
        assert rows[0] == rows[1]

    def test_step_validation(self):
        template = BWParams(Kind.PLUS, 0.0, 0.1, 3.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            scan_alpha(template, 1.0, 0.0, 1.0, 1)

    def test_agrees_with_pointwise_chain_route(self):
        template = BWParams(Kind.MINUS, 0.0, 0.15, 3.0, 1.0, 0.7)
        rows = scan_alpha(template, 1.2, -9.0, 9.0, 41)
        from dataclasses import replace

        for alpha, t in rows[::5]:
            direct = transmissivity(replace(template, alpha=alpha), 1.2)
            assert t == pytest.approx(direct, abs=1e-9)

    def test_scan_shows_five_total_and_three_partial_peaks(self):
        # reference configuration: five unit-height maxima on the model set
        # (including strength 0) and three small maxima on the shared set.
        # Grid samples cannot resolve the spike heights (the narrowest is
        # ~1e-5 wide), so maxima are located on the grid and refined.
        template = BWParams(Kind.PLUS, 0.0, 0.1, 3.0, 1.0, 1.0)
        rows = scan_alpha(template, 1.0, -40.0, 40.0, 200001)
        ts = np.array([t for _, t in rows])
        als = np.array([a for a, _ in rows])
        interior = (ts[1:-1] > ts[:-2]) & (ts[1:-1] > ts[2:]) & (ts[1:-1] > 1e-11)
        positions = als[1:-1][interior]
        assert len(positions) == 8
        refined = []
        for pos in positions:
            if abs(pos) < 1e-9:
                refined.append((0.0, 1.0))  # exact free-particle crest
                continue
            refined.append(peak_refine(template, 1.0, float(pos), 0.01))
        total = sorted(a for a, t in refined if t >= 0.999)
        partial = sorted((a, t) for a, t in refined if t < 0.999)
        expected_total = (-18.26, -2.70, 0.0, 2.28, 35.09)
        assert len(total) == 5
        for a, ref in zip(total, expected_total):
            assert abs(a - ref) < 0.5
        assert len(partial) == 3
        for (a, t), ref in zip(partial, sorted(KNOWN_SIGMA_PRIME)):
            assert abs(a - ref) < 0.5
            # partial heights are set by the discontinuity factor and sit
            # orders of magnitude below 1 at this configuration
            assert 0.0 < t < 1e-3


class TestGrid:
    def test_single_point_reduces_to_transmissivity(self):
        template = BWParams(Kind.PLUS, 0.0, 0.1, 3.0, 1.0, 1.0)
        g = grid(template, (2.5, 2.5), (1.0, 1.0), 1, 1)
        assert g.values[0, 0] == pytest.approx(
            transmissivity(BWParams(Kind.PLUS, 2.5, 0.1, 3.0, 1.0, 1.0), 1.0), abs=1e-9)

    def test_shapes_and_bounds(self):
        template = BWParams(Kind.MINUS, 0.0, 0.2, 3.0, 1.0, 1.0)
        g = grid(template, (-5.0, 5.0), (0.5, 2.0), 11, 7)
        assert g.values.shape == (11, 7)
        assert np.all(g.values >= 0.0) and np.all(g.values <= 1.0)

    def test_low_k_ridges_match_scan_peaks(self):
        # ridge feet at the smallest wave number line up with the scan maxima
        template = BWParams(Kind.PLUS, 0.0, 0.2, 3.0, 1.0, 1.0)
        g = grid(template, (-40.0, 40.0), (0.01, 2.0), 3201, 2)
        low_k = g.values[:, 0]
        interior = (low_k[1:-1] > low_k[:-2]) & (low_k[1:-1] > low_k[2:])
        ridge_feet = g.alphas[1:-1][interior & (low_k[1:-1] > 0.9)]
        rows = scan_alpha(template, 0.01, -40.0, 40.0, 3201)
        ts = np.array([t for _, t in rows])
        als = np.array([a for a, _ in rows])
        msk = (ts[1:-1] > ts[:-2]) & (ts[1:-1] > ts[2:]) & (ts[1:-1] > 0.9)
        scan_peaks = als[1:-1][msk]
        cell = 80.0 / 3200.0
        assert len(ridge_feet) == len(scan_peaks) > 0
        for rf, sp_ in zip(ridge_feet, scan_peaks):
            assert abs(rf - sp_) <= cell

    def test_validation(self):
        template = BWParams(Kind.PLUS, 0.0, 0.1, 3.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            grid(template, (0.0, 1.0), (1.0, 2.0), 1, 2)  # non-degenerate 1-step axis
        with pytest.raises(ValueError):
            grid(template, (0.0, 1.0), (0.0, 2.0), 2, 2)  # k must stay positive

    def test_csv_rows_order_and_log_sentinel(self):
        g = TransmissionGrid(np.array([1.0, 2.0]), np.array([0.5]),
                             np.array([[0.25], [0.0]]))
        rows = list(grid_csv_rows(g))
        assert rows[0] == (1.0, 0.5, 0.25, math.log10(0.25))
        assert rows[1][3] == -math.inf


def test_grid_refills_degenerate_points_from_slab_product():
    # b = 1, eps = 0.5: p = 0 where k^2 = 4*alpha and q = 0 where k^2 = -4*alpha,
    # which this grid hits at alpha = +-0.25 (k = 1) and alpha = +-1 (k = 2)
    for kind in Kind:
        template = BWParams(kind, 0.0, 0.5, 1.0, 1.0, 1.0)
        g = grid(template, (-2.0, 2.0), (1.0, 2.0), 17, 2)
        for i, alpha in enumerate(g.alphas):
            for j, k in enumerate(g.ks):
                direct = transmissivity(BWParams(kind, float(alpha), 0.5, 1.0, 1.0, 1.0), k)
                assert abs(g.values[i, j] - direct) < 1e-9

class TestSubbarrierBound:
    def test_positive_branch(self):
        assert subbarrier_bound(2.0, 1.0, 1.0, 1.0) == pytest.approx(math.sqrt(2.0))

    def test_negative_branch(self):
        assert subbarrier_bound(-2.0, 1.0, 1.0, 0.5) == pytest.approx(2.0 * math.sqrt(2.0))

    def test_reference_corner(self):
        assert subbarrier_bound(35.09, 3.0, 1.0, 0.2) == pytest.approx(12.0917, abs=2e-4)

    def test_alpha_zero_sentinel(self):
        assert subbarrier_bound(0.0, 1.0, 2.0, 0.3) == math.inf

    def test_overbarrier_means_real_barrier_momentum(self):
        from bwtunnel.potential import bw_geometry

        alpha, c1, c2, eps = 6.0, 3.0, 1.0, 0.3
        kb = subbarrier_bound(alpha, c1, c2, eps)
        params = BWParams(Kind.PLUS, alpha, eps, c1, c2, 1.0)
        h, _, _, _ = bw_geometry(params)
        assert (kb * 1.01) ** 2 - alpha * h > 0.0
        assert (kb * 0.99) ** 2 - alpha * h < 0.0
