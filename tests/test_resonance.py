import cmath
import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from bwtunnel.potential import BWParams, Kind, bw_geometry, sigma_split
from bwtunnel.resonance import (
    NoPeakError,
    PoleError,
    SetLabel,
    WindowTooCoarseError,
    db_resonance_residual,
    f_minus,
    f_plus,
    f_prime,
    find_roots,
    finite_eps_residuals,
    peak_refine,
    resonance_sets,
    theta_factor,
)
from bwtunnel.scattering import transmissivity, uv
from bwtunnel.transfer import closed_form_minus, wave_numbers

from conftest import (
    EXTRA_SIGMA_MINUS_ROOT,
    KNOWN_SIGMA_MINUS,
    KNOWN_SIGMA_PLUS,
    KNOWN_SIGMA_PRIME,
)


# The limiting equations by analytic continuation: negative strengths are
# reached through principal complex square roots, and each result is
# purely real or purely imaginary. This is the oracle for the real bodies
# in bwtunnel.resonance.

def _collapse(w: complex) -> float:
    """The nonzero component of a purely real or purely imaginary residual."""
    if min(abs(w.real), abs(w.imag)) > 1e-9 * (1.0 + abs(w)):
        raise ValueError(f"residual is neither purely real nor purely imaginary: {w!r}")
    return w.real + w.imag


def _tanhc(z: complex) -> complex:
    if abs(z) < 1e-6:
        z2 = z * z
        return 1.0 - z2 / 3.0 + 2.0 * z2 * z2 / 15.0
    return cmath.tanh(z) / z


def _tanc(z: complex) -> complex:
    if abs(z) < 1e-6:
        z2 = z * z
        return 1.0 + z2 / 3.0 + 2.0 * z2 * z2 / 15.0
    return cmath.tan(z) / z


def _sqrt_args(alpha, b, sp, sm):
    A = cmath.sqrt(complex(2.0 * alpha * sp / (1.0 + 1.0 / b), 0.0))
    B = cmath.sqrt(complex(2.0 * alpha * sm / (1.0 + b), 0.0))
    return A, B


def f_plus_continued(alpha, b, sigma):
    sp, sm = sigma_split(alpha, sigma)
    A, B = _sqrt_args(alpha, b, sp, sm)
    term1 = cmath.sqrt(complex(2.0 * alpha * b * sm / (1.0 + 1.0 / b), 0.0)) \
        * _tanhc(A) * cmath.tan(B)
    term2 = cmath.sqrt(complex(2.0 * alpha * sp / (b * (1.0 + b)), 0.0)) \
        * _tanc(B) * cmath.tanh(A)
    return _collapse(term1 - term2 - 2.0)


def f_minus_continued(alpha, b, sigma):
    sp, sm = sigma_split(alpha, sigma)
    A, B = _sqrt_args(alpha, b, sp, sm)
    if sm == 0.0 and alpha > 0:
        return _collapse(cmath.tanh(A)) * math.sqrt(2.0 * alpha / (1.0 + b)) \
            + math.sqrt(b / sp)
    if sp == 0.0 and alpha < 0:
        return 1.0
    return _collapse(cmath.tanh(A) * cmath.tan(B) + math.sqrt(b * sm / sp))


def f_prime_continued(alpha, b, sigma):
    sp, sm = sigma_split(alpha, sigma)
    A, B = _sqrt_args(alpha, b, sp, sm)
    if sm == 0.0 and alpha > 0:
        return _collapse(cmath.tanh(A))
    if sp == 0.0 and alpha < 0:
        return _collapse(-cmath.tan(B))
    return _collapse(cmath.tanh(A) - math.sqrt(b * sm / sp) * cmath.tan(B))


def theta_continued(alpha_prime, b, sigma_plus, sigma_minus):
    A, B = _sqrt_args(alpha_prime, b, sigma_plus, sigma_minus)
    return _collapse(cmath.cosh(A) / cmath.cos(B))


def db_continued(k, alpha, eps, c1, c2):
    h = 2.0 / (c1 * (c1 + c2)) / (eps * eps)
    l, r = c1 * eps, c2 * eps
    p = cmath.sqrt(complex(k * k - alpha * h, 0.0))
    cot = math.cos(2.0 * k * r) / math.sin(2.0 * k * r)
    return _collapse((p / k + k / p) * cmath.tan(p * l) - 2.0 * cot)


class TestResidualFunctions:
    def test_f_plus_at_zero(self):
        assert f_plus(0.0, 3.0, 1.0) == pytest.approx(-2.0, abs=1e-14)

    def test_f_minus_at_zero(self):
        assert f_minus(0.0, 3.0, 1.0) == pytest.approx(math.sqrt(3.0), abs=1e-14)

    def test_f_prime_at_zero(self):
        assert f_prime(0.0, 3.0, 1.0) == 0.0

    @pytest.mark.parametrize("alpha", KNOWN_SIGMA_PLUS)
    def test_f_plus_small_at_known_roots(self, alpha):
        assert abs(f_plus(alpha, 3.0, 1.0)) < 0.05

    @pytest.mark.parametrize("alpha", KNOWN_SIGMA_MINUS)
    def test_f_minus_small_at_known_roots(self, alpha):
        assert abs(f_minus(alpha, 3.0, 1.0)) < 0.05

    @pytest.mark.parametrize("alpha", KNOWN_SIGMA_PRIME)
    def test_f_prime_small_at_known_roots(self, alpha):
        assert abs(f_prime(alpha, 3.0, 1.0)) < 0.05

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            f_plus(1.0, -3.0, 1.0)
        with pytest.raises(ValueError):
            f_minus(1.0, 3.0, -1.0)

    @pytest.mark.parametrize("f, args", [
        (f_plus, (math.nan, 3.0, 1.0)),
        (f_minus, (math.nan, 3.0, 1.0)),
        (f_prime, (math.nan, 3.0, 1.0)),
        (theta_factor, (math.nan, 3.0, 1.0, 1.0)),
        (db_resonance_residual, (1.0, math.nan, 0.1, 3.0, 1.0)),
        (db_resonance_residual, (1.0, 30.0, math.nan, 3.0, 1.0)),
        (f_plus, (1.0, math.inf, 1.0)),
        (f_plus, (1.0, 3.0, math.inf)),
    ], ids=["f_plus-nan_alpha", "f_minus-nan_alpha", "f_prime-nan_alpha", "theta_factor-nan_alpha",
            "db_residual-nan_alpha", "db_residual-nan_eps", "f_plus-inf_b", "f_plus-inf_sigma"])
    def test_non_finite_input_rejected(self, f, args):
        # each of these returned nan instead of raising
        with pytest.raises(ValueError, match="finite"):
            f(*args)

    def test_pole_signal_on_tan_singularity(self):
        # tan argument hits pi/2 when alpha = 2*(pi/2)^2 at b = 3, sigma = 1
        with pytest.raises(PoleError):
            f_plus(2.0 * (math.pi / 2.0) ** 2, 3.0, 1.0)

    @pytest.mark.parametrize("f, f_continued", [
        (f_plus, f_plus_continued), (f_minus, f_minus_continued),
        (f_prime, f_prime_continued)])
    def test_continuation_matches_explicit_real_form(self, f, f_continued):
        for alpha in np.linspace(-39.7, 39.7, 311):
            try:
                got = f(float(alpha), 3.0, 1.0)
            except PoleError:
                continue
            want = f_continued(float(alpha), 3.0, 1.0)
            assert got == pytest.approx(want, abs=1e-10 * (1.0 + abs(want)))

    def test_sigma_zero_residuals_have_no_roots(self):
        # well-free structures: every residual keeps one sign on each half axis
        for alpha in np.linspace(0.3, 60.0, 97):
            assert f_plus(float(alpha), 3.0, 0.0) < 0
            assert f_minus(float(alpha), 3.0, 0.0) > 0
            assert f_prime(float(alpha), 3.0, 0.0) > 0
        for alpha in np.linspace(-60.0, -0.3, 97):
            assert f_plus(float(alpha), 3.0, 0.0) < 0
            assert f_minus(float(alpha), 3.0, 0.0) > 0
            assert f_prime(float(alpha), 3.0, 0.0) < 0

    @settings(max_examples=400, deadline=None)
    @given(alpha=st.floats(-60.0, 60.0), b=st.floats(0.2, 8.0),
           sigma=st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
    def test_real_bodies_match_continued_forms(self, alpha, b, sigma):
        sp, sm = sigma_split(alpha, sigma)
        try:
            pairs = [(f(alpha, b, sigma), f_c(alpha, b, sigma)) for f, f_c in (
                (f_plus, f_plus_continued), (f_minus, f_minus_continued),
                (f_prime, f_prime_continued))]
            pairs.append((theta_factor(alpha, b, sp, sm), theta_continued(alpha, b, sp, sm)))
        except PoleError:
            reject()
        # Both forms take tan of the same phase; their terms grow like it
        # and are rounded in a different order, so the tolerance does too.
        A, B = _sqrt_args(alpha, b, sp, sm)
        scale = 1.0 + max(abs(cmath.tanh(A)), abs(cmath.tan(B)))
        for got, want in pairs:
            if math.isfinite(want):
                assert abs(got - want) <= 1e-11 * (1.0 + abs(want)) * scale, (got, want)
            elif math.isnan(want):
                # sqrt(b/sigma) overflows at subnormal-scale sigma, and the
                # oracle's complex product turns inf * 0 into nan
                assert math.isinf(got), (got, want)
            else:
                assert got == want


class TestFindRoots:
    def test_linear_function(self):
        roots = find_roots(lambda a: a - 5.0, (0.0, 10.0), grid_steps=100, tol=1e-12)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(5.0, abs=1e-10)

    def test_exact_grid_zero(self):
        roots = find_roots(lambda a: a, (-1.0, 1.0), grid_steps=100, tol=1e-12)
        assert roots == [0.0]

    def test_pole_crossing_discarded(self):
        # tan jumps sign across its pole without a root in between
        roots = find_roots(math.tan, (1.0, 2.0), grid_steps=100, tol=1e-10)
        assert roots == []

    def test_window_too_coarse_signal(self):
        def f(x):
            return (x - 0.9999) * (x - 1.0001) * (x + 5.0)

        with pytest.raises(WindowTooCoarseError):
            find_roots(f, (0.0, 2.0), grid_steps=100, tol=1e-12)
        fine = find_roots(f, (0.0, 2.0), grid_steps=100000, tol=1e-12)
        assert len(fine) == 2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            find_roots(lambda a: a, (1.0, 0.0))
        with pytest.raises(ValueError):
            find_roots(lambda a: a, (0.0, 1.0), grid_steps=10)
        with pytest.raises(ValueError):
            find_roots(lambda a: a, (0.0, 1.0), tol=0.0)
        for window in ((0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                find_roots(lambda a: a - 1.0, window, 100)
        with pytest.raises(ValueError, match="finite"):
            resonance_sets(Kind.PLUS, 3.0, 1.0, (-math.inf, 40.0))

    def test_f_plus_window(self):
        roots = find_roots(lambda a: f_plus(a, 3.0, 1.0), (-40.0, 40.0))
        assert len(roots) == 4
        for got, want in zip(roots, KNOWN_SIGMA_PLUS):
            assert got == pytest.approx(want, abs=6e-3)
        for r in roots:
            assert abs(f_plus(r, 3.0, 1.0)) <= 1e-9

    def test_f_prime_window(self):
        roots = [r for r in find_roots(lambda a: f_prime(a, 3.0, 1.0), (-40.0, 40.0))
                 if abs(r) > 1e-6]
        assert len(roots) == 3
        for got, want in zip(roots, KNOWN_SIGMA_PRIME):
            assert got == pytest.approx(want, abs=6e-3)


class TestResonanceSets:
    def test_plus_sets(self):
        model, prime = resonance_sets(Kind.PLUS, 3.0, 1.0, (-40.0, 40.0))
        assert [r.set_label for r in model.roots] == [SetLabel.SIGMA_PLUS] * 5
        assert [r.index for r in model.roots] == [-2, -1, 0, 1, 2]
        for root, want in zip(model.roots, (-18.26, -2.70, 0.0, 2.28, 35.09)):
            assert root.alpha == pytest.approx(want, abs=6e-3)
            assert root.residual <= 1e-9
        assert [r.index for r in prime.roots] == [-2, -1, 1]
        for root in prime.roots:
            assert root.theta is not None and root.theta != 1.0

    def test_minus_sets_include_near_degenerate_root(self):
        model, prime = resonance_sets(Kind.MINUS, 3.0, 1.0, (-40.0, 40.0))
        alphas = model.alphas()
        assert len(alphas) == 5  # trivial 0 plus four nonzero roots
        assert alphas[0] == pytest.approx(EXTRA_SIGMA_MINUS_ROOT, abs=6e-3)
        for got, want in zip(alphas[1:], (-11.74, -1.01, 0.0, 8.77)):
            assert got == pytest.approx(want, abs=6e-3)
        assert [r.index for r in model.roots] == [-3, -2, -1, 0, 1]
        # shared set identical to the one the repeated arrangement sees
        _, prime_plus = resonance_sets(Kind.PLUS, 3.0, 1.0, (-40.0, 40.0))
        assert prime.alphas() == pytest.approx(prime_plus.alphas(), abs=1e-12)

    def test_trivial_root_has_zero_residual_and_index(self):
        model, _ = resonance_sets(Kind.MINUS, 3.0, 1.0, (-2.0, 2.0))
        zero = [r for r in model.roots if r.alpha == 0.0]
        assert len(zero) == 1 and zero[0].index == 0 and zero[0].residual == 0.0

    def test_sets_disjoint_at_reference_configuration(self):
        model, prime = resonance_sets(Kind.MINUS, 3.0, 1.0, (-40.0, 40.0))
        for rm in model.roots:
            for rp in prime.roots:
                assert abs(rm.alpha - rp.alpha) > 1e-6

    def test_sigma_zero_sets_empty_except_trivial(self):
        model, prime = resonance_sets(Kind.PLUS, 3.0, 0.0, (-40.0, 40.0))
        assert model.alphas() == [0.0]
        assert prime.alphas() == []
        model_m, prime_m = resonance_sets(Kind.MINUS, 3.0, 0.0, (-40.0, 40.0))
        assert model_m.alphas() == [0.0]
        assert prime_m.alphas() == []

    def test_window_doubling_strictly_grows_sets(self):
        p40 = resonance_sets(Kind.PLUS, 3.0, 1.0, (-40.0, 40.0))
        p80 = resonance_sets(Kind.PLUS, 3.0, 1.0, (-80.0, 80.0))
        assert len(p80[0].roots) > len(p40[0].roots)
        assert len(p80[1].roots) > len(p40[1].roots)
        m40 = resonance_sets(Kind.MINUS, 3.0, 1.0, (-40.0, 40.0))
        m80 = resonance_sets(Kind.MINUS, 3.0, 1.0, (-80.0, 80.0))
        assert len(m80[0].roots) > len(m40[0].roots)


class TestThetaFactor:
    def test_degenerate_origin(self):
        assert theta_factor(0.0, 3.0, 1.0, 1.0) == 1.0

    def test_continuation_matches_real_form(self):
        alpha = -11.6585
        a_ = math.sqrt(2.0 * abs(alpha) / (1.0 + 1.0 / 3.0))
        b_ = math.sqrt(2.0 * abs(alpha) / (1.0 + 3.0))
        want = math.cos(a_) / math.cosh(b_)
        assert theta_factor(alpha, 3.0, 1.0, 1.0) == pytest.approx(want, rel=1e-12)

    def test_pole_on_cos_zero(self):
        with pytest.raises(PoleError):
            theta_factor(2.0 * (math.pi / 2.0) ** 2, 3.0, 1.0, 1.0)

    @pytest.mark.parametrize("args", [
        (5.0, -3.0, 1.0, 1.0), (5.0, 0.0, 1.0, 1.0), (5.0, 3.0, -1.0, 1.0),
        (5.0, 3.0, 1.0, -1.0), (-5.0, 3.0, math.nan, 1.0)])
    def test_invalid_parameters_rejected(self, args):
        with pytest.raises(ValueError):
            theta_factor(*args)


class TestFiniteEpsResiduals:
    def test_alpha_zero_reduction(self):
        params = BWParams(Kind.PLUS, 0.0, 0.2, 3.0, 1.0, 1.0)
        _, l, _, r = bw_geometry(params)
        k = 1.3
        r8, r9, r10 = finite_eps_residuals(params, k * k)
        assert r8.real == pytest.approx(2.0 * math.cos(k * (l + r)), rel=1e-12)
        assert r9.real == pytest.approx(k * math.sin(k * (l + r)), rel=1e-12)
        assert r10.real == pytest.approx(-k * math.cos(k * (l + r)), rel=1e-12)

    def test_factorization_links_to_residuals(self):
        # lower-left entry factorizes through the cancellation residuals
        from bwtunnel.transfer import lambda21_factored

        rng = np.random.default_rng(5150)
        for _ in range(50):
            kind = Kind.PLUS if rng.random() < 0.5 else Kind.MINUS
            params = BWParams(kind, rng.uniform(-20, 20), rng.uniform(0.1, 0.6),
                              rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.uniform(0, 2))
            E = rng.uniform(0.3, 9.0)
            r8, r9, r10 = finite_eps_residuals(params, E)
            factored = lambda21_factored(kind, params, E)
            if kind is Kind.PLUS:
                expected = -r8 * r9
            else:
                expected = 2.0 * r10 * r9 / wave_numbers(params, E).q
            scale = 1.0 + abs(expected)
            assert abs(factored - expected) <= 1e-10 * scale

    def test_first_branch_residual_closes_along_squeeze(self):
        # at a root of the first limiting equation, r8 -> 0 as eps -> 0
        # while the other residuals stay bounded away from zero
        alpha = 2.282647521704435
        vals = []
        for eps in (0.1, 0.01, 0.001):
            params = BWParams(Kind.PLUS, alpha, eps, 3.0, 1.0, 1.0)
            r8, r9, r10 = finite_eps_residuals(params, 1.0)
            vals.append((abs(r8), abs(r9), abs(r10)))
        assert vals[0][0] > vals[1][0] > vals[2][0]
        assert vals[2][0] < 0.02
        assert all(v[1] > 0.1 and v[2] > 0.1 for v in vals)


class TestDoubleBarrierResonance:
    def test_roots_imply_perfect_transmission(self):
        alpha, eps, c1, c2 = 30.0, 0.1, 3.0, 1.0
        roots = find_roots(lambda k: db_resonance_residual(k, alpha, eps, c1, c2),
                           (0.5, 22.0), grid_steps=4000, tol=1e-12)
        assert len(roots) >= 1
        params = BWParams(Kind.MINUS, alpha, eps, c1, c2, 0.0)
        for k in roots:
            L = closed_form_minus(params, k * k)
            _, v = uv(L, k)
            assert abs(v) < 1e-4  # bisection-limited; the polish happens below
            assert transmissivity(params, k) > 0.999999

    def test_pole_at_tan_singularity(self):
        # overbarrier point engineered so the barrier phase is exactly pi/2
        k = math.sqrt(1.0 + (math.pi / 2.0) ** 2)
        with pytest.raises(PoleError):
            db_resonance_residual(k, 1.0, 1.0, 1.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            db_resonance_residual(0.0, 1.0, 0.1, 3.0, 1.0)
        with pytest.raises(ValueError):
            db_resonance_residual(1.0, -1.0, 0.1, 3.0, 1.0)
        for k in (math.inf, math.nan):
            with pytest.raises(ValueError):
                db_resonance_residual(k, 1.0, 0.1, 3.0, 1.0)

    def test_regular_at_barrier_top(self):
        # k^2 = alpha*h exactly (p = 0): the limit k*l - 2*cot(2*k*r)
        got = db_resonance_residual(1.0, 1.0, 1.0, 1.0, 1.0)
        assert got == pytest.approx(1.0 - 2.0 / math.tan(2.0), rel=1e-15)
        for k in (1.0 - 1e-9, 1.0 + 1e-9):
            assert db_resonance_residual(k, 1.0, 1.0, 1.0, 1.0) == pytest.approx(got, abs=1e-8)

    def test_matches_continued_form(self):
        # both sides of the barrier top k = sqrt(alpha*h) = 22.36
        for k in np.linspace(0.05, 40.0, 799):
            try:
                got = db_resonance_residual(float(k), 30.0, 0.1, 3.0, 1.0)
            except PoleError:
                continue
            want = db_continued(float(k), 30.0, 0.1, 3.0, 1.0)
            assert got == pytest.approx(want, abs=1e-10 * (1.0 + abs(want)))


class TestPeakRefine:
    def test_total_transmission_peak(self):
        template = BWParams(Kind.PLUS, 0.0, 0.1, 3.0, 1.0, 1.0)
        alpha_peak, t_peak = peak_refine(template, 1.0, 2.28, 0.5)
        assert t_peak >= 0.999
        assert abs(alpha_peak - 2.28) < 0.5

    def test_peak_position_converges_with_squeezing(self):
        root = 2.282647521704435
        drifts = []
        for eps in (0.1, 0.01):
            template = BWParams(Kind.PLUS, 0.0, eps, 3.0, 1.0, 1.0)
            alpha_peak, _ = peak_refine(template, 1.0, root, 0.5)
            drifts.append(abs(alpha_peak - root))
        assert drifts[1] < drifts[0]

    def test_off_resonance_guess(self):
        template = BWParams(Kind.PLUS, 0.0, 0.1, 3.0, 1.0, 1.0)
        try:
            _, t_peak = peak_refine(template, 1.0, 10.0, 0.5)
        except NoPeakError:
            return
        assert t_peak < 1e-3

    def test_radius_validation(self):
        template = BWParams(Kind.PLUS, 0.0, 0.1, 3.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            peak_refine(template, 1.0, 2.28, 0.0)

    def test_monotone_bracket_signals_no_peak(self):
        # transmission decays monotonically deep in the opaque region
        template = BWParams(Kind.PLUS, 0.0, 0.1, 3.0, 1.0, 1.0)
        with pytest.raises(NoPeakError):
            peak_refine(template, 1.0, 15.0, 0.05)
