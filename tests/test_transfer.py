import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwtunnel.potential import BWParams, Kind, Segment, SegmentChain, concat, realize
from bwtunnel.transfer import (
    BoundaryState,
    Branch,
    TransferMatrix,
    chain_matrix,
    closed_form,
    closed_form_entries,
    closed_form_minus,
    closed_form_plus,
    lambda21_factored,
    limit_matrix,
    segment_matrix,
    wave_numbers,
)

# Entries must stay small enough that the det cancellation (~ entries^2
# per rounding unit) sits below the absolute tolerances being asserted.
moderate_segments = st.lists(
    st.tuples(st.floats(0.05, 0.5), st.floats(-4.0, 4.0)),
    min_size=1, max_size=4,
).map(lambda ws: SegmentChain(tuple(Segment(w, v) for w, v in ws), x_left=0.0))

moderate_E = st.floats(0.5, 10.0)


def rand_params(rng):
    return BWParams(
        kind=Kind.PLUS if rng.random() < 0.5 else Kind.MINUS,
        alpha=rng.uniform(-40, 40),
        eps=rng.uniform(0.05, 0.5),
        c1=rng.uniform(0.5, 3.0),
        c2=rng.uniform(0.5, 3.0),
        sigma=rng.uniform(0.0, 2.0),
    )


class TestSegmentMatrix:
    def test_free_half_wavelength(self):
        m = segment_matrix(1.0, 0.0, math.pi**2)
        assert m.m11.real == pytest.approx(-1.0, abs=1e-12)
        assert m.m22.real == pytest.approx(-1.0, abs=1e-12)
        assert abs(m.m12) < 1e-12 and abs(m.m21) < 1e-12

    def test_kappa_zero_series(self):
        m = segment_matrix(1.0, 5.0, 5.0)
        assert m.m11 == 1.0 and m.m22 == 1.0
        assert m.m12 == 1.0 and m.m21 == 0.0

    def test_series_matches_trig_at_crossover(self):
        # just above the series switch both branches must agree
        w, E = 0.1, 1.0
        for dv in (1e-4, -1e-4):
            kap2 = complex(-dv, 0.0)
            kap = cmath.sqrt(kap2)
            expected12 = cmath.sin(kap * w) / kap
            m = segment_matrix(w, E + dv, E)
            assert abs(m.m12 - expected12) < 1e-15

    def test_hyperbolic_oracle(self):
        # evanescent slab checked against the explicit cosh/sinh form
        w, v, E = 0.3, 50.0 / 3.0, 1.0
        mu = math.sqrt(v - E)
        m = segment_matrix(w, v, E)
        assert m.m11.real == pytest.approx(math.cosh(mu * w), rel=1e-12)
        assert m.m12.real == pytest.approx(math.sinh(mu * w) / mu, rel=1e-12)
        assert m.m21.real == pytest.approx(mu * math.sinh(mu * w), rel=1e-12)
        assert abs(m.det() - 1.0) < 1e-12

    def test_width_validation(self):
        with pytest.raises(ValueError):
            segment_matrix(0.0, 1.0, 1.0)


class TestChainMatrix:
    def test_two_free_slabs_compose(self):
        half = SegmentChain((Segment(0.5, 0.0), Segment(0.5, 0.0)))
        full = segment_matrix(1.0, 0.0, 1.0)
        assert chain_matrix(half, 1.0).max_abs_diff(full) < 1e-14

    def test_alpha_zero_equals_free_matrix(self):
        params = BWParams(Kind.PLUS, 0.0, 0.37, 2.0, 1.5, 1.0)
        chain = realize(params)
        free = segment_matrix(chain.total_width, 0.0, 2.0)
        assert chain_matrix(chain, 2.0).max_abs_diff(free) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(a=moderate_segments, b=moderate_segments, E=moderate_E)
    def test_composition(self, a, b, E):
        joined = chain_matrix(concat(a, b), E)
        split = chain_matrix(b, E) @ chain_matrix(a, E)
        scale = 1.0 + max(joined.max_abs_entry(), split.max_abs_entry())
        assert joined.max_abs_diff(split) <= 1e-10 * scale

    @settings(max_examples=100, deadline=None)
    @given(chain=moderate_segments, E=moderate_E)
    def test_unimodular_and_real(self, chain, E):
        m = chain_matrix(chain, E)
        assert abs(m.det() - 1.0) < 1e-10
        for z in m.entries():
            assert abs(z.imag) <= 1e-9 * (1.0 + abs(z))


class TestClosedForms:
    def test_plus_alpha_zero_is_free(self):
        params = BWParams(Kind.PLUS, 0.0, 0.3, 1.0, 2.0, 1.0)
        free = segment_matrix(2.0 * 3.0 * 0.3, 0.0, 1.7)
        assert closed_form_plus(params, 1.7).max_abs_diff(free) < 1e-12

    def test_minus_diagonal_equal_exactly(self):
        params = BWParams(Kind.MINUS, -7.3, 0.12, 3.0, 1.0, 0.8)
        m = closed_form_minus(params, 1.0)
        assert m.m11 == m.m22

    def test_kind_mismatch_rejected(self):
        params = BWParams(Kind.MINUS, 1.0, 0.1, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            closed_form_plus(params, 1.0)

    def test_matches_chain_product_on_random_samples(self):
        rng = np.random.default_rng(20240917)
        checked = 0
        for _ in range(400):
            params = rand_params(rng)
            E = rng.uniform(0.05, 6.0) ** 2
            product = chain_matrix(realize(params), E)
            if product.max_abs_entry() > 1e8:
                continue
            closed = closed_form(params, E)
            scale = 1.0 + product.max_abs_entry()
            assert product.max_abs_diff(closed) <= 1e-9 * scale
            checked += 1
        assert checked >= 200

    def test_lambda21_factorization_identity(self):
        rng = np.random.default_rng(7771)
        checked = 0
        for _ in range(400):
            params = rand_params(rng)
            E = rng.uniform(0.05, 6.0) ** 2
            closed = closed_form(params, E)
            if closed.max_abs_entry() > 1e8:
                continue
            factored = lambda21_factored(params.kind, params, E)
            scale = 1.0 + closed.max_abs_entry()
            assert abs(closed.m21 - factored) <= 1e-10 * scale
            checked += 1
        assert checked >= 200


class TestWaveNumbers:
    def test_squares_recover_inputs(self):
        params = BWParams(Kind.PLUS, -11.5, 0.2, 3.0, 1.0, 1.0)
        from bwtunnel.potential import bw_geometry

        h, _, d, _ = bw_geometry(params)
        E = 2.4
        w = wave_numbers(params, E)
        assert (w.p * w.p).real == pytest.approx(E - params.alpha * h, rel=1e-12)
        assert (w.q * w.q).real == pytest.approx(E + params.alpha * d, rel=1e-12)
        assert abs((w.p * w.p).imag) < 1e-12 * (1 + abs(w.p) ** 2)
        assert w.k == pytest.approx(math.sqrt(E))


class TestLimitMatrix:
    def test_branch_one_is_minus_identity(self):
        for kind in Kind:
            m = limit_matrix(kind, Branch.ONE)
            assert m.m11 == -1.0 and m.m22 == -1.0 and m.m12 == 0 and m.m21 == 0

    def test_minus_branch_two_is_identity(self):
        m = limit_matrix(Kind.MINUS, Branch.TWO, theta=123.0)
        assert m.max_abs_diff(TransferMatrix.identity()) == 0.0

    def test_plus_branch_two_diagonal(self):
        m = limit_matrix(Kind.PLUS, Branch.TWO, theta=2.0)
        assert m.m11 == 4.0 and m.m22 == 0.25
        assert m.det() == pytest.approx(1.0, abs=1e-15)

    def test_zero_theta_rejected(self):
        with pytest.raises(ValueError):
            limit_matrix(Kind.PLUS, Branch.TWO, theta=0.0)
        with pytest.raises(ValueError):
            limit_matrix(Kind.PLUS, Branch.TWO)


def test_apply_boundary_state():
    m = segment_matrix(1.0, 0.0, math.pi**2 / 4.0)  # quarter wavelength
    out = m.apply(BoundaryState(1.0, 0.0))
    assert abs(out.psi) < 1e-12
    assert out.dpsi.real == pytest.approx(-math.pi / 2.0, rel=1e-12)


def test_near_opaque_flag():
    assert TransferMatrix(1e13 + 0j, 0j, 0j, 1e-13 + 0j).near_opaque
    assert not TransferMatrix.identity().near_opaque
    assert TransferMatrix(complex(math.inf), 0j, 0j, 0j).near_opaque


class TestClosedFormEntries:
    @pytest.mark.parametrize("kind", [Kind.PLUS, Kind.MINUS])
    @pytest.mark.parametrize("alpha", [1.0, -1.0])
    def test_degenerate_point_is_the_slab_product(self, kind, alpha):
        # b = 1, eps = 0.5, E = 4: p = 0 at alpha = 1 and q = 0 at alpha = -1
        params = BWParams(kind, alpha, 0.5, 1.0, 1.0, 1.0)
        w = wave_numbers(params, 4.0)
        assert w.p == 0 or w.q == 0
        assert closed_form(params, 4.0) == chain_matrix(realize(params), 4.0)

    @pytest.mark.parametrize("kind", [Kind.PLUS, Kind.MINUS])
    def test_array_route_matches_scalar_route(self, kind):
        rng = np.random.default_rng(5150)
        p = np.sqrt(rng.uniform(-30.0, 30.0, 64).astype(complex))
        q = np.sqrt(rng.uniform(-30.0, 30.0, 64).astype(complex))
        arrays = closed_form_entries(kind, p, q, 0.3, 0.1, np.sin, np.cos)
        if kind is Kind.MINUS:
            assert arrays[3] is arrays[0]
        for i in range(len(p)):
            scalars = closed_form_entries(kind, complex(p[i]), complex(q[i]), 0.3, 0.1,
                                          cmath.sin, cmath.cos)
            scale = 1.0 + max(abs(z) for z in scalars)
            for z_arr, z in zip(arrays, scalars):
                assert abs(z_arr[i] - z) <= 1e-13 * scale
