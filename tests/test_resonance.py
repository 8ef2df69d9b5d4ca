import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from bwtunnel import resonance
from bwtunnel.potential import BWParams, Kind, bw_geometry, sigma_split
from bwtunnel.resonance import (
    _bracket_roots,
    _f_minus,
    _f_plus,
    _f_prime,
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
        (f_prime, (-1e308, 3.0, 1.0)),
        (theta_factor, (1e10, 3.0, 1.0, 1e300)),
    ], ids=["f_plus-nan_alpha", "f_minus-nan_alpha", "f_prime-nan_alpha", "theta_factor-nan_alpha",
            "db_residual-nan_alpha", "db_residual-nan_eps", "f_plus-inf_b", "f_plus-inf_sigma",
            "f_prime-phase_overflow", "theta_factor-phase_overflow"])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_input_rejected(self, f, args):
        # the first eight returned nan instead of raising; an overflowing
        # slab phase raised only a bare math domain error
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


RESIDUAL_BODIES = [(f_plus, _f_plus), (f_minus, _f_minus), (f_prime, _f_prime)]


class TestArrayBodies:
    """Each scalar residual is one point of its array body, bit for bit."""

    # the reference, the well-free case and a case with b*sigma = 1, where
    # the mirror ratio sqrt(b*sigma) is exactly 1 at positive strengths
    CONFIGS = [(3.0, 1.0), (3.0, 0.0), (2.5, 0.4)]

    @pytest.mark.parametrize("b, sigma", CONFIGS)
    @pytest.mark.parametrize("scalar, body", RESIDUAL_BODIES)
    def test_scalar_wrapper_equals_array_body(self, scalar, body, b, sigma):
        assert b * sigma in (0.0, 1.0, 3.0)  # exactly 1 in the third case
        # the 20001-point scan grid of resonance_sets, which holds 0.0, then
        # -0.0 and the first tan pole on each side (none when sigma = 0)
        poles = [(math.pi / 2) ** 2 * (1.0 + b) / (2.0 * sigma),
                 -(math.pi / 2) ** 2 * (1.0 + 1.0 / b) / (2.0 * sigma)] if sigma else []
        alphas = np.concatenate([np.linspace(-40.0, 40.0, 20001), [-0.0], poles])
        values, pole = body(alphas, b, sigma)
        assert values.dtype == np.float64 and pole.dtype == np.bool_
        got = np.empty_like(values)
        raised = np.zeros_like(pole)
        for i, alpha in enumerate(alphas.tolist()):
            try:
                got[i] = scalar(alpha, b, sigma)
            except PoleError:
                raised[i] = True
        assert np.array_equal(raised, pole)
        assert np.array_equal(got[~pole].view(np.int64), values[~pole].view(np.int64))
        assert pole.sum() == len(poles)

    @pytest.mark.parametrize("scalar, body", RESIDUAL_BODIES)
    @pytest.mark.parametrize("window", [(-40.0, 0.0), (0.0, 40.0), (-40.0, 40.0)])
    def test_scalar_finder_equals_array_finder(self, scalar, body, window):
        # find_roots lifts the scalar wrapper into the same core; edges at 0
        # put f_prime's exact zero on the first or last grid point
        want = _bracket_roots(lambda a: body(a, 3.0, 1.0), window, 2000, 1e-10)
        assert find_roots(lambda a: scalar(a, 3.0, 1.0), window, 2000, 1e-10) == want
        if body is _f_prime:
            assert 0.0 in want

    @pytest.mark.parametrize("kind", [Kind.PLUS, Kind.MINUS])
    @pytest.mark.parametrize("block", [1, 7])
    def test_roots_do_not_depend_on_the_scan_block(self, kind, block):
        # every cell, and the last grid point, must be seen across block edges
        want = resonance_sets(kind, 3.0, 1.0)
        with mock.patch.object(resonance, "BLOCK_POINTS", block):
            assert resonance_sets(kind, 3.0, 1.0) == want

    def test_array_input_checks(self):
        with pytest.raises(ValueError, match="finite"):
            _f_plus(np.array([1.0, math.nan, 2.0]), 3.0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            _f_minus(np.array([-math.inf]), 3.0, 1.0)
        with pytest.raises(ValueError):
            _f_prime(np.array([1.0]), 3.0, -1.0)


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

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_non_finite_tol_rejected(self, tol):
        # nan and inf returned the unbisected cell midpoint 5.15 as a root
        with pytest.raises(ValueError, match="tol"):
            find_roots(lambda a: a - 5.123456789, (0.0, 10.0), grid_steps=100, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            resonance_sets(Kind.PLUS, 3.0, 1.0, tol=tol)

    @pytest.mark.parametrize("grid_steps", [100.0, 20000.0, "100", True])
    def test_non_integral_grid_steps_rejected(self, grid_steps):
        with pytest.raises(ValueError, match="grid_steps"):
            find_roots(lambda a: a - 5.0, (0.0, 10.0), grid_steps=grid_steps)
        with pytest.raises(ValueError, match="grid_steps"):
            resonance_sets(Kind.PLUS, 3.0, 1.0, grid_steps=grid_steps)

    def test_numpy_integer_grid_steps_accepted(self):
        assert find_roots(lambda a: a - 5.0, (0.0, 10.0), np.int64(100)) == [5.0]

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


# The (b, sigma) pairs of the limits benchmark at seed 0: the reference
# configuration and its four seeded draws.
LIMITS_SEED0 = [(3.0, 1.0), (5.467228770723645, 1.95044942885702),
                (4.535018020282781, 1.010251047407532),
                (1.7474706239246895, 0.42669670101004903),
                (3.801744877455753, 1.8044357132060365)]
ORACLE_DPS = 50         # digits of the continued forms in the oracle
SCAN_ROOT_TOL = 1e-6    # |f| at a crossing bisected to float resolution: root below, pole above
CONTINUED = {SetLabel.SIGMA_PLUS: f_plus_continued, SetLabel.SIGMA_MINUS: f_minus_continued,
             SetLabel.SIGMA_PRIME: f_prime_continued}


def _mp_continued(mp, label, alpha, b, sigma):
    """A limiting residual's continued form at ORACLE_DPS digits, collapsed to its real or imaginary part."""
    with mp.workdps(ORACLE_DPS):
        a, b_, s = mp.mpf(alpha), mp.mpf(b), mp.mpf(sigma)
        sp, sm = (1, s) if alpha > 0 else (s, 1)
        A = mp.sqrt(2 * a * sp / (1 + 1 / b_))
        B = mp.sqrt(2 * a * sm / (1 + b_))
        if label is SetLabel.SIGMA_PLUS:
            w = (mp.sqrt(2 * a * b_ * sm / (1 + 1 / b_)) * mp.tanh(A) / A * mp.tan(B)
                 - mp.sqrt(2 * a * sp / (b_ * (1 + b_))) * mp.tan(B) / B * mp.tanh(A) - 2)
        elif label is SetLabel.SIGMA_MINUS:
            w = mp.tanh(A) * mp.tan(B) + mp.sqrt(b_ * sm / sp)
        else:
            w = mp.tanh(A) - mp.sqrt(b_ * sm / sp) * mp.tan(B)
        return w.real + w.imag


def _scan_count(label, b, sigma, window=(-40.0, 40.0), cells=20000):
    """Nonzero roots of a continued form: sign changes bisected to float resolution."""
    f = CONTINUED[label]
    xs = np.linspace(window[0], window[1], cells + 1).tolist()
    fs = [f(x, b, sigma) for x in xs]
    count = 0
    for a, c, fa, fc in zip(xs, xs[1:], fs, fs[1:]):
        if not fa * fc < 0:
            continue
        while a < 0.5 * (a + c) < c:
            m = 0.5 * (a + c)
            fm = f(m, b, sigma)
            if fa * fm <= 0:
                c = m
            else:
                a, fa = m, fm
        m = 0.5 * (a + c)
        count += abs(f(m, b, sigma)) < SCAN_ROOT_TOL and abs(m) > 1e-6
    return count


class TestRootsOracle:
    @pytest.mark.parametrize("b, sigma", LIMITS_SEED0)
    def test_every_root_brackets_a_50_digit_sign_change(self, b, sigma):
        mp = pytest.importorskip("mpmath").mp
        tol = 1e-10
        sets = {}
        for kind in (Kind.PLUS, Kind.MINUS):
            for rset in resonance_sets(kind, b, sigma, tol=tol):
                for root in rset.roots:
                    sets.setdefault(root.set_label, set()).add(root.alpha)
        for label, alphas in sets.items():
            nonzero = sorted(a for a in alphas if a != 0.0)
            for alpha in nonzero:
                lo = _mp_continued(mp, label, alpha - 2 * tol, b, sigma)
                hi = _mp_continued(mp, label, alpha + 2 * tol, b, sigma)
                assert lo * hi < 0, (label, alpha, lo, hi)
            assert len(nonzero) == _scan_count(label, b, sigma), label


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
