import cmath
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwtunnel.potential import BWParams, Kind, Segment, SegmentChain, bw_geometry, concat, realize
from bwtunnel.scattering import REALNESS_TOL, transmissivity
from bwtunnel import transfer
from bwtunnel.transfer import (
    Branch,
    TransferMatrix,
    _cell,
    _slab_terms,
    chain_matrix,
    closed_form,
    closed_form_arrays,
    finite_eps_residuals,
    lambda21_factored,
    limit_matrix,
    segment_matrix,
    wave_numbers,
)

from conftest import mp_slab_product, mp_slab_uv

# Entries must stay small enough that the det cancellation (~ entries^2
# per rounding unit) sits below the absolute tolerances being asserted.
moderate_segments = st.lists(
    st.tuples(st.floats(0.05, 0.5), st.floats(-4.0, 4.0)),
    min_size=1, max_size=4,
).map(lambda ws: SegmentChain(tuple(Segment(w, v) for w, v in ws), x_left=0.0))

moderate_E = st.floats(0.5, 10.0)


# a tunneling transmission peak (b = 3, sigma = 1, k = 1): entries O(1), terms ~1e8
PEAK = BWParams(Kind.PLUS, 35.0919303480499, 1e-3, 3.0, 1.0, 1.0)


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
        assert closed_form(params, 1.7).max_abs_diff(free) < 1e-12

    def test_minus_diagonal_equal_exactly(self):
        params = BWParams(Kind.MINUS, -7.3, 0.12, 3.0, 1.0, 0.8)
        m = closed_form(params, 1.0)
        assert m.m11 == m.m22

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
        # the tunneling peak, where the terms dwarf the entries: bounded by
        # slab_growth, as the property test is
        params, E = PEAK, 1.0
        closed, product = closed_form(params, E), chain_matrix(realize(params), E)
        assert product.max_abs_diff(closed) <= 1e-9 * (1.0 + slab_growth(params, E))

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
        params, E = PEAK, 1.0
        factored = lambda21_factored(params.kind, params, E)
        assert abs(closed_form(params, E).m21 - factored) <= 1e-10 * (1.0 + slab_growth(params, E))


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


def slab_growth(params, E):
    """Product of the slab matrices' row-sum norms at energy E.

    Every term that the closed form or the slab product adds up is at most
    this large, so it scales the rounding of both. It can exceed the
    entries by far: at a tunneling transmission peak the entries are O(1)
    while the terms are ~1e8 (alpha = 35.0919, eps = 1e-3, k = 1, b = 3).
    """
    return math.prod(max(abs(m.m11) + abs(m.m12), abs(m.m21) + abs(m.m22))
                     for m in (segment_matrix(s.width, s.value, E)
                               for s in realize(params).segments))


class TestClosedFormEntries:
    @pytest.mark.parametrize("kind", [Kind.PLUS, Kind.MINUS])
    @pytest.mark.parametrize("alpha", [1.0, -1.0])
    def test_degenerate_point_is_the_slab_product(self, kind, alpha):
        # b = 1, eps = 0.5, E = 4: p = 0 at alpha = 1 and q = 0 at alpha = -1,
        # where each slab term takes its limit (sin(pl)/p = l) in the kernel itself
        params = BWParams(kind, alpha, 0.5, 1.0, 1.0, 1.0)
        w = wave_numbers(params, 4.0)
        assert w.p == 0 or w.q == 0
        closed = closed_form(params, 4.0)
        product = chain_matrix(realize(params), 4.0)
        for got, want in zip(closed.entries(), product.entries()):
            assert got.imag == 0.0 and want.imag == 0.0
            assert abs(got.real - want.real) <= 4 * np.spacing(abs(want.real))
        if kind is Kind.MINUS:
            assert closed.m22 == closed.m11  # the mirror diagonal is one object

    @pytest.mark.parametrize("kind", [Kind.PLUS, Kind.MINUS])
    @pytest.mark.parametrize("alpha", [1.0, -1.0])
    def test_degenerate_point_matches_a_60_digit_slab_product(self, kind, alpha):
        # the points above, against the exact product of the same f64 slabs
        mp = pytest.importorskip("mpmath").mp
        params = BWParams(kind, alpha, 0.5, 1.0, 1.0, 1.0)
        closed = closed_form(params, 4.0)
        tol = 1e-15 * (1.0 + slab_growth(params, 4.0))
        with mp.workdps(60):
            want = mp_slab_product(mp, realize(params), 4.0)
            for got, (i, j) in zip(closed.entries(), ((0, 0), (0, 1), (1, 0), (1, 1))):
                assert got.imag == 0.0 and abs(got.real - want[i, j]) <= tol

    @pytest.mark.parametrize("kind", [Kind.PLUS, Kind.MINUS])
    def test_closed_form_is_one_point_of_the_kernel(self, kind):
        # b = 1, eps = 0.5: the axes hit p = 0 (alpha = 1, E = 4) and
        # q = 0 (alpha = -1, E = 4), where the slab terms take their limits
        alphas = np.linspace(-2.0, 2.0, 17)
        Es = np.array([0.3, 1.0, 4.0, 9.5])
        m = closed_form_arrays(kind, alphas[:, None], Es[None, :], 0.5, 1.0, 1.0, 0.7)
        assert all(z.dtype == np.float64 and z.shape == (17, 4) for z in m)
        if kind is Kind.MINUS:
            assert m[3] is m[0]
        for i, alpha in enumerate(alphas.tolist()):
            for j, E in enumerate(Es.tolist()):
                one = closed_form(BWParams(kind, alpha, 0.5, 1.0, 1.0, 0.7), E)
                assert one.entries() == tuple(complex(z[i, j]) for z in m)

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(Kind), alpha=st.floats(-60.0, 60.0),
           eps=st.floats(1e-3, 1.0), sigma=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
           k=st.floats(0.01, 10.0), degenerate=st.sampled_from(["", "p", "q"]))
    def test_real_unimodular_and_equal_to_the_slab_product(self, kind, alpha, eps, sigma,
                                                            k, degenerate):
        params = BWParams(kind, alpha, eps, 3.0, 1.0, sigma)
        h, _, d, _ = bw_geometry(params)
        # the exact p = 0 / q = 0 points, where the slab terms take their limits
        E = {"": k * k, "p": alpha * h, "q": -alpha * d}[degenerate]
        w = wave_numbers(params, E)
        assert (degenerate != "p" or w.p == 0) and (degenerate != "q" or w.q == 0)
        closed = closed_form(params, E)
        for z in closed.entries():
            assert abs(z.imag) <= REALNESS_TOL * (1.0 + abs(z))
        growth = slab_growth(params, E)
        # README: rounding moves det by about entries^2 * 1e-16; here the
        # terms, which slab_growth bounds, take the place of the entries
        assert abs(closed.det() - 1.0) <= 1e-12 * (1.0 + growth) ** 2
        if kind is Kind.MINUS:
            assert closed.m11 == closed.m22
        product = chain_matrix(realize(params), E)
        if product.max_abs_entry() <= 1e8:
            assert closed.max_abs_diff(product) <= 1e-9 * (1.0 + growth)


def cell(params, E):
    """The cell entries (A, B, C, D) of params at energy E, as floats."""
    h, l, d, r = bw_geometry(params)
    wp, wq = np.float64(E - params.alpha * h), np.float64(E + params.alpha * d)
    return tuple(float(z) for z in _cell(wp, wq, l, r))


class TestCell:
    def test_cell_gives_the_paper_residuals(self):
        # r8 = tr H, r9 = -C and r10 = -q*A: r8 and r9 are real at every
        # E > 0, r10 is purely imaginary where q^2 < 0
        rng = np.random.default_rng(8910)
        signs = set()
        for _ in range(300):
            params = rand_params(rng)
            E = rng.uniform(0.05, 6.0) ** 2
            A, B, C, D = cell(params, E)
            r8, r9, r10 = finite_eps_residuals(params, E)
            q = wave_numbers(params, E).q
            tol = 1e-14 * (1.0 + slab_growth(params, E))
            assert abs(r8 - (A + D)) <= tol
            assert abs(r9 + C) <= tol
            assert abs(r10 + q * A) <= tol * (1.0 + abs(q))
            signs.add(params.alpha > 0)
        assert signs == {False, True}

    @pytest.mark.parametrize("kind", [Kind.PLUS, Kind.MINUS])
    @pytest.mark.parametrize("alpha", [10.0, -7.3, 26.8672])
    @pytest.mark.parametrize("eps", [0.1, 1e-3])
    def test_uv_factorizations_match_a_60_digit_slab_product(self, kind, alpha, eps):
        # PLUS: u = (A - D)(A + D), v = (A + D)(kB + C/k);
        # MINUS: u = 0, v = 2(k^2 BD + AC)/k
        mp = pytest.importorskip("mpmath").mp
        params, k = BWParams(kind, alpha, eps, 3.0, 1.0, 1.0), 1.0
        A, B, C, D = cell(params, k * k)
        if kind is Kind.PLUS:
            u, v = (A - D) * (A + D), (A + D) * (k * B + C / k)
        else:
            u, v = 0.0, 2.0 * (k * k * B * D + A * C) / k
        tol = 1e-15 * (1.0 + slab_growth(params, k * k))
        with mp.workdps(60):
            want_u, want_v = mp_slab_uv(mp, realize(params), k)
            assert abs(u - want_u) <= tol and abs(v - want_v) <= tol

    @pytest.mark.parametrize("guess, root", [(2.2819, 2.2819118347), (35.0916, 35.0915686029),
                                             (-2.7028, -2.7027549094)])
    def test_zero_trace_transmits_fully(self, guess, root):
        # PLUS: M = H*H, so tr H = 0 makes u = v = 0 and T = 1
        def trace(alpha):
            A, _, _, D = cell(BWParams(Kind.PLUS, alpha, 0.01, 3.0, 1.0, 1.0), 1.0)
            return A + D

        lo, hi = guess - 1e-3, guess + 1e-3
        f_lo = trace(lo)
        assert f_lo * trace(hi) < 0
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            f_mid = trace(mid)
            if f_lo * f_mid > 0:
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        assert lo == pytest.approx(root, abs=1e-9)
        assert transmissivity(BWParams(Kind.PLUS, lo, 0.01, 3.0, 1.0, 1.0), 1.0) >= 1.0 - 1e-13


def two_branch_slab_terms(w, width):
    """The slab terms with both branches taken at every point and np.where picking one."""
    kap = np.sqrt(np.abs(w))
    x = kap * width
    osc = w >= 0
    c = np.where(osc, np.cos(x), np.cosh(x))
    s = np.where(osc, np.sin(x), np.sinh(x))
    return c, np.where(kap == 0, width, s / kap), np.copysign(kap, w) * s


def same_bits(got, want):
    """Equal shapes and equal float64 bytes, NaN payload and signed zero included."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype == np.float64 \
        and got.tobytes() == want.tobytes()


# oscillating, evanescent and zero squared wave numbers, cosh past its
# overflow (1e300), and the non-finite ones
SPECIAL_W = [3.7, 1e-300, 0.0, -0.0, -2.5, -1e-300, 1e300, -1e300, math.nan, math.inf, -math.inf]


class TestSlabTerms:
    """_slab_terms takes each point's own trig pair, bit for bit the two-branch form."""

    @pytest.mark.parametrize("width", [0.3, 2.0, 1e-8])
    def test_special_values_match_the_two_branch_form(self, width):
        w = np.array(SPECIAL_W)
        with np.errstate(all="ignore"):
            got, want = _slab_terms(w, width), two_branch_slab_terms(w, width)
        for g, v in zip(got, want):
            assert same_bits(g, v)
        # w = 0 takes S = width, and 1e300 overflows cosh/sinh to inf
        assert got[1][2] == got[1][3] == width
        assert np.isinf(got[0][7]) and np.isinf(got[1][7])

    @pytest.mark.parametrize("w", SPECIAL_W)
    def test_zero_dimensional_input(self, w):
        with np.errstate(all="ignore"):
            got = _slab_terms(np.float64(w), 0.7)
            want = two_branch_slab_terms(np.float64(w), 0.7)
        for g, v in zip(got, want):
            assert np.ndim(g) == 0
            assert same_bits(g, v)

    def test_broadcast_rows_and_wave_numbers(self):
        # (rows, 1) widths against (rows, k) squared wave numbers, as the kernel
        # broadcasts a block's strengths against its energies
        rng = np.random.default_rng(4417)
        w = rng.choice([-1.0, 1.0], (37, 53)) * 10.0 ** rng.uniform(-4, 4, (37, 53))
        w[::5, ::7] = 0.0
        width = rng.uniform(0.01, 3.0, (37, 1))
        with np.errstate(all="ignore"):
            got, want = _slab_terms(w, width), two_branch_slab_terms(w, width)
        assert 0.3 < np.mean(w >= 0) < 0.7
        for g, v in zip(got, want):
            assert g.shape == (37, 53)
            assert same_bits(g, v)


def kernel_draws(rng, n):
    """Seeded strengths (|alpha| from 1e-3 to 1e6, both signs), wave numbers and squeezings."""
    alphas = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3, 6, n)
    ks = 10.0 ** rng.uniform(-2, 1, n)
    eps = 10.0 ** rng.uniform(-7, -0.5, n)
    return alphas, ks, eps


class TestMaskedKernel:
    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_entries_match_the_two_branch_kernel(self, kind, sigma):
        alphas, ks, eps = kernel_draws(np.random.default_rng(9021), 20000)
        got = closed_form_arrays(kind, alphas, ks * ks, eps, 3.0, 1.0, sigma)
        with mock.patch.object(transfer, "_slab_terms", two_branch_slab_terms):
            want = closed_form_arrays(kind, alphas, ks * ks, eps, 3.0, 1.0, sigma)
        for g, v in zip(got, want):
            assert same_bits(g, v)
        # the draws cross the overflow band: finite and non-finite entries both occur
        finite = np.isfinite(got[1])
        assert finite.any() and not finite.all()

    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_kernel_leaks_no_floating_point_warning(self, kind, sigma):
        alphas, ks, eps = kernel_draws(np.random.default_rng(9022), 5000)
        alphas[:4] = [math.nan, 0.0, -0.0, 1e6]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = closed_form_arrays(kind, alphas, ks * ks, eps, 3.0, 1.0, sigma)
            # the exact p = 0 and q = 0 points, where the slab terms take their limits
            closed_form_arrays(kind, [1.0, -1.0], [4.0, 4.0], 0.5, 1.0, 1.0, sigma)
        assert np.isnan(m[0][0]) and not np.isfinite(m[1]).all()
