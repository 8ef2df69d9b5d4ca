import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwtunnel import scattering
from bwtunnel.potential import BWParams, Kind, Segment, SegmentChain, realize
from bwtunnel.resonance import peak_refine
from bwtunnel.scattering import (
    REALNESS_TOL,
    TransmissionGrid,
    amplitudes,
    grid,
    grid_blocks,
    grid_csv_rows,
    log10_transmission,
    scan_alpha,
    subbarrier_bound,
    transmissivity,
    uv,
)
from bwtunnel.transfer import TransferMatrix, chain_matrix, limit_matrix, Branch

from conftest import KNOWN_SIGMA_PRIME, mp_slab_uv

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

    def test_non_unimodular_rejected_where_the_det_would_overflow(self):
        # m11*m22 overflows to inf, so an unscaled det test would pass it
        with pytest.raises(ValueError, match="not unimodular"):
            amplitudes(TransferMatrix(1e200 + 0j, 0j, 0j, 1e200 + 0j), 1.0, 0.0, 0.0)

    def test_overflowed_u2_plus_v2_reflects_totally(self):
        # entries ~7.6e156: u^2 + v^2 overflows, and refl takes its limit 1
        chain = realize(BWParams(Kind.PLUS, 2.1e4, 0.1, 3.0, 1.0, 1.0))
        res = amplitudes(chain_matrix(chain, 1.0), 1.0, chain.x_left, chain.x_right)
        assert res.refl == 1.0 and res.trans == 0.0

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



class TestRealnessCheck:
    """scattering._uv checks complex entries and passes real ones through."""

    @pytest.mark.parametrize("where", ["u", "v"])
    def test_complex_residue_past_the_tolerance_raises(self, where):
        im = 10 * REALNESS_TOL * 3.0
        m = [np.array([2.0 + 0j, 1.0]), np.array([0.5 + 0j, 0.5]),
             np.array([-1.0 + 0j, 0.25]), np.array([0.5 + 0j, 4.0])]
        m[0 if where == "u" else 1] = m[0 if where == "u" else 1] + np.array([0.0, im * 1j])
        with pytest.raises(ValueError, match="complex residue"):
            scattering._uv(m, 1.5)
        with pytest.raises(ValueError, match="complex residue"):
            scattering._uv([z[1] for z in m], 1.5)  # one point, Python-style complex

    def test_complex_residue_within_the_tolerance_gives_real_parts(self):
        m = (2.0 + 1e-12j, 0.5 + 0j, -1.0 - 1e-12j, 0.5 + 0j)
        u, v = scattering._uv(m, 2.0)
        assert (u, v) == (1.5, 0.5) and type(u) is type(v) is float

    def test_real_arrays_pass_through_unchanged(self):
        rng = np.random.default_rng(5150)
        m = [rng.normal(size=(7, 3)) * 10.0 ** rng.uniform(-3, 200, (7, 3)) for _ in range(4)]
        m[1][0, 0], m[2][1, 1], m[0][2, 2] = math.inf, math.nan, -math.inf
        k = rng.uniform(0.1, 5.0, (1, 3))
        with np.errstate(all="ignore"):
            u, v = scattering._uv(m, k)
            want_u, want_v = m[0] - m[3], k * m[1] + m[2] / k
        assert u.dtype == v.dtype == np.float64
        assert u.tobytes() == want_u.tobytes() and v.tobytes() == want_v.tobytes()


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


def _mp_slab_transmission(mp, chain, k):
    """T of the chain's own f64 slabs, by a 60-digit slab product."""
    with mp.workdps(60):
        u, v = mp_slab_uv(mp, chain, k)
        return float(4 / (4 + u * u + v * v))


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
        # one T tail: the same entries give the same bits
        assert transmissivity(params, 1.3) == res.trans

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_k_rejected(self, k):
        params = BWParams(Kind.MINUS, -4.2, 0.2, 2.0, 1.0, 1.0)
        L = chain_matrix(realize(params), 1.0)
        with pytest.raises(ValueError, match="k must be finite and > 0"):
            transmissivity(params, k)
        with pytest.raises(ValueError, match="k must be finite and > 0"):
            uv(L, k)
        with pytest.raises(ValueError, match="k must be finite and > 0"):
            amplitudes(L, k, -1.0, 1.0)

    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("eps", [0.1, 1e-7])
    def test_overflowing_slab_product_is_nan_as_in_the_kernel(self, kind, eps):
        # past alpha of about 3.4e5 a slab's cmath overflows: the product raises,
        # and transmissivity gives the NaN that the kernel gives at the same point
        params = BWParams(kind, 3.5e5, eps, 3.0, 1.0, 1.0)
        with pytest.raises(OverflowError):
            chain_matrix(realize(params), 1.0)
        assert math.isnan(transmissivity(params, 1.0))
        assert math.isnan(grid(params, (3.5e5, 3.5e5), (1.0, 1.0), 1, 1).values[0, 0])

    def test_both_routes_match_a_60_digit_slab_product(self):
        # 300 seeded points deep into the wall: 134 of them have an entry past
        # 1e12, yet plain f64 T stays within 1e-11 of the product of the same slabs
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        worst = 0.0
        for i in range(300):
            kind = (Kind.PLUS, Kind.MINUS)[i % 2]
            alpha = rng.uniform(-200.0, 200.0)
            eps, k = 10.0 ** rng.uniform(-7.0, 0.0), 10.0 ** rng.uniform(-2.0, 1.0)
            params = BWParams(kind, alpha, eps, 3.0, 1.0, 1.0)
            want = _mp_slab_transmission(mp, realize(params), k)
            kernel = grid(params, (alpha, alpha), (k, k), 1, 1).values[0, 0]
            for got in (kernel, transmissivity(params, k)):
                worst = max(worst, abs(got - want) / want)
        assert worst <= 1e-11


class TestScanAlpha:
    def test_degenerate_range(self):
        template = BWParams(Kind.PLUS, 0.0, 0.1, 3.0, 1.0, 1.0)
        rows = scan_alpha(template, 1.0, 0.0, 0.0, 2)
        assert rows[0] == rows[1]

    def test_step_validation(self):
        template = BWParams(Kind.PLUS, 0.0, 0.1, 3.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            scan_alpha(template, 1.0, 0.0, 1.0, 1)

    @pytest.mark.parametrize("alpha_min, alpha_max", [(-1.0, 1.0), (0.0, 0.0)])
    def test_one_step_is_a_steps_error_whatever_the_range(self, alpha_min, alpha_max):
        # steps is checked before the range, so a degenerate range gets the same error
        template = BWParams(Kind.PLUS, 0.0, 0.1, 3.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="steps must be >= 2, got 1"):
            scan_alpha(template, 1.0, alpha_min, alpha_max, 1)

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

    @pytest.mark.parametrize("kind", [Kind.PLUS, Kind.MINUS])
    @pytest.mark.parametrize("alpha", [7.6e4, -2.2e5])
    def test_no_nan_before_an_entry_overflows(self, kind, alpha):
        # just inside the NaN onset bands of the README: the kernel's paired
        # products ((Tp*Sq)^2, Tp*(Tp*S2q), ...) must not overflow before the
        # entries do
        for eps in (1e-7, 1e-3, 0.2):
            g = grid(BWParams(kind, 0.0, eps, 3.0, 1.0, 1.0), (alpha, alpha),
                     (0.01, 10.0), 1, 1000)
            assert np.all(np.isfinite(g.values))

    def test_validation(self):
        template = BWParams(Kind.PLUS, 0.0, 0.1, 3.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            grid(template, (0.0, 1.0), (1.0, 2.0), 1, 2)  # non-degenerate 1-step axis
        with pytest.raises(ValueError):
            grid(template, (0.0, 1.0), (0.0, 2.0), 2, 2)  # k must stay positive
        for alpha_range, k_range, k_steps in (((0.0, math.inf), (1.0, 1.0), 1),
                                              ((math.nan, 1.0), (1.0, 1.0), 1),
                                              ((0.0, 1.0), (1.0, math.inf), 2),
                                              ((0.0, 1.0), (math.nan, math.nan), 1)):
            with pytest.raises(ValueError, match="finite"):
                grid(template, alpha_range, k_range, 3, k_steps)
        with pytest.raises(ValueError, match="finite"):
            scan_alpha(template, 1.0, 0.0, math.inf, 3)
        with pytest.raises(ValueError, match="finite"):
            grid_blocks(template, (0.0, math.inf), (1.0, 1.0), 3, 1)  # before any block is drawn
        for alpha_range, k_range, name in (((1.0, 0.0), (1.0, 2.0), "alpha"),
                                           ((0.0, 1.0), (2.0, 1.0), "k")):
            with pytest.raises(ValueError, match=f"{name} range is reversed"):
                grid_blocks(template, alpha_range, k_range, 3, 2)

    @pytest.mark.parametrize("steps", [2.5, 3.0, True, "3"])
    def test_non_integer_steps_rejected(self, steps):
        template = BWParams(Kind.PLUS, 0.0, 0.1, 3.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="alpha_steps must be an integer"):
            grid(template, (-1.0, 1.0), (1.0, 2.0), steps, 3)
        with pytest.raises(ValueError, match="k_steps must be an integer"):
            grid(template, (-1.0, 1.0), (1.0, 2.0), 3, steps)

    @pytest.mark.parametrize("steps", [2.5, 4.0, "3", None, True])
    def test_scan_inherits_the_integer_check(self, steps):
        template = BWParams(Kind.PLUS, 0.0, 0.1, 3.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="alpha_steps must be an integer"):
            scan_alpha(template, 1.0, -1.0, 1.0, steps)

    def test_numpy_integer_steps_accepted(self):
        template = BWParams(Kind.PLUS, 0.0, 0.1, 3.0, 1.0, 1.0)
        g = grid(template, (-1.0, 1.0), (1.0, 2.0), np.int64(3), np.int32(2))
        assert g.values.shape == (3, 2)

    def test_log10_keeps_nan_apart_from_the_zero_sentinel(self):
        got = log10_transmission([0.01, 0.0, -0.0, math.nan, -1.0])
        assert got[:3] == [-2.0, -math.inf, -math.inf]
        assert math.isnan(got[3]) and math.isnan(got[4])

    @pytest.mark.parametrize("shape", [(2, 2), (1, 1), (2,), (1, 2)])
    def test_grid_shape_must_match_the_axes(self, shape):
        with pytest.raises(ValueError, match="grid shape does not match axis lengths"):
            TransmissionGrid(np.array([1.0, 2.0]), np.array([0.5]), np.zeros(shape))

    def test_csv_rows_order_and_log_sentinel(self):
        g = TransmissionGrid(np.array([1.0, 2.0]), np.array([0.5]),
                             np.array([[0.25], [0.0]]))
        rows = list(grid_csv_rows(g))
        assert rows[0] == (1.0, 0.5, 0.25, math.log10(0.25))
        assert rows[1][3] == -math.inf


def test_grid_matches_slab_product_at_degenerate_points():
    # b = 1, eps = 0.5: p = 0 where k^2 = 4*alpha and q = 0 where k^2 = -4*alpha,
    # which this grid hits at alpha = +-0.25 (k = 1) and alpha = +-1 (k = 2)
    for kind in Kind:
        template = BWParams(kind, 0.0, 0.5, 1.0, 1.0, 1.0)
        g = grid(template, (-2.0, 2.0), (1.0, 2.0), 17, 2)
        for i, alpha in enumerate(g.alphas):
            for j, k in enumerate(g.ks):
                direct = transmissivity(BWParams(kind, float(alpha), 0.5, 1.0, 1.0, 1.0), k)
                assert abs(g.values[i, j] - direct) < 1e-9


def test_one_tail_on_scalars_and_arrays():
    # the one tail behind transmissivity (Python complex entries) and the
    # scans and grids (numpy arrays of entries): large entries give their
    # true T, the identity 1, an infinite entry NaN and never 0
    u = 1e13 - 1e-13
    for entries, t in (((1e13 + 0j, 0j, 0j, 1e-13 + 0j), 4.0 / (4.0 + u * u)),
                       ((1.0 + 0j, 0j, 0j, 1.0 + 0j), 1.0),
                       ((complex(math.inf), 0j, 0j, 0j), math.nan)):
        assert np.array_equal(scattering._transmission(entries, 0.8), t, equal_nan=True)
        arrays = tuple(np.full((2, 3), z) for z in entries)
        with np.errstate(over="ignore", invalid="ignore"):
            t_arrays = scattering._transmission(arrays, np.full((1, 3), 0.8))
        assert np.array_equal(t_arrays, np.full((2, 3), t), equal_nan=True)
    assert 4.0 / (4.0 + u * u) == pytest.approx(4e-26, rel=1e-12)


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("alpha", [-20.0, 5.0, 15.0, 120.0])
def test_wall_law_t_falls_like_eps_squared(kind, alpha):
    # off the resonance sets the squeezed structure becomes a perfectly
    # reflecting wall: log10 T drops by 2 per decade of eps on both routes
    for route in (lambda p: transmissivity(p, 1.0),
                  lambda p: grid(p, (alpha, alpha), (1.0, 1.0), 1, 1).values[0, 0]):
        logs = [math.log10(route(BWParams(kind, alpha, eps, 3.0, 1.0, 1.0)))
                for eps in (1e-3, 1e-4, 1e-5, 1e-6)]
        assert np.diff(logs) == pytest.approx([-2.0] * 3, abs=1e-3)


class TestSubbarrierBound:
    def test_positive_branch(self):
        assert subbarrier_bound(2.0, 1.0, 1.0, 1.0) == pytest.approx(math.sqrt(2.0))

    def test_negative_branch(self):
        assert subbarrier_bound(-2.0, 1.0, 1.0, 0.5) == pytest.approx(2.0 * math.sqrt(2.0))

    def test_reference_corner(self):
        assert subbarrier_bound(35.09, 3.0, 1.0, 0.2) == pytest.approx(12.0917, abs=2e-4)

    def test_alpha_zero_sentinel(self):
        assert subbarrier_bound(0.0, 1.0, 2.0, 0.3) == math.inf

    @pytest.mark.parametrize("alpha, c1, c2, eps", [
        (math.nan, 3.0, 1.0, 0.1),
        (math.inf, 3.0, 1.0, 0.1),
        (2.0, -3.0, 1.0, 0.1),
        (2.0, 3.0, 1.0, math.inf),
    ])
    def test_out_of_range_inputs_rejected(self, alpha, c1, c2, eps):
        with pytest.raises(ValueError):
            subbarrier_bound(alpha, c1, c2, eps)

    def test_overbarrier_means_real_barrier_momentum(self):
        from bwtunnel.potential import bw_geometry

        alpha, c1, c2, eps = 6.0, 3.0, 1.0, 0.3
        kb = subbarrier_bound(alpha, c1, c2, eps)
        params = BWParams(Kind.PLUS, alpha, eps, c1, c2, 1.0)
        h, _, _, _ = bw_geometry(params)
        assert (kb * 1.01) ** 2 - alpha * h > 0.0
        assert (kb * 0.99) ** 2 - alpha * h < 0.0
