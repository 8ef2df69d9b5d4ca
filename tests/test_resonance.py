import cmath
import math
import random
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from bwtunnel import resonance
from bwtunnel.potential import BWParams, Kind, bw_geometry, sigma_split
from bwtunnel.resonance import (
    _bracket_roots,
    _minus,
    _plus,
    _prime,
    _residual_phases,
    _residual_rows,
    NoPeakError,
    PoleError,
    SetLabel,
    WindowTooCoarseError,
    db_resonance_residual,
    f_minus,
    f_plus,
    f_prime,
    find_roots,
    peak_refine,
    resonance_sets,
    theta_factor,
)
from bwtunnel.scattering import grid, transmissivity, uv
from bwtunnel.transfer import closed_form, finite_eps_residuals, wave_numbers

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


def theta_continued(alpha, b, sigma):
    A, B = _sqrt_args(alpha, b, *sigma_split(alpha, sigma))
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
        (theta_factor, (math.nan, 3.0, 1.0)),
        (db_resonance_residual, (1.0, math.nan, 0.1, 3.0, 1.0)),
        (db_resonance_residual, (1.0, 30.0, math.nan, 3.0, 1.0)),
        (f_plus, (1.0, math.inf, 1.0)),
        (f_plus, (1.0, 3.0, math.inf)),
        (f_prime, (-1e308, 3.0, 1.0)),
        (theta_factor, (1e10, 3.0, 1e300)),
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
            pairs = [(f(alpha, b, sigma), CONTINUED[label](alpha, b, sigma), label)
                     for f, label in ((f_plus, SetLabel.SIGMA_PLUS), (f_minus, SetLabel.SIGMA_MINUS),
                                      (f_prime, SetLabel.SIGMA_PRIME))]
            pairs.append((theta_factor(alpha, b, sigma), theta_continued(alpha, b, sigma), None))
        except PoleError:
            reject()
        # Both forms take tan of the same phase; their terms grow like it
        # and are rounded in a different order, so the tolerance does too.
        A, B = _sqrt_args(alpha, b, sp, sm)
        scale = 1.0 + max(abs(cmath.tanh(A)), abs(cmath.tan(B)))
        for got, want, label in pairs:
            if not math.isfinite(want) and sigma and label:
                # sqrt(b/sigma) overflows at subnormal-scale sigma in the
                # oracle's complex product (inf, or nan from inf * 0)
                want = float(_mp_continued(pytest.importorskip("mpmath").mp, label, alpha, b, sigma))
            if math.isfinite(want):
                assert abs(got - want) <= 1e-11 * (1.0 + abs(want)) * scale, (got, want)
            else:
                assert got == want


RESIDUAL_FORMULAS = [(f_plus, _plus), (f_minus, _minus), (f_prime, _prime)]


class TestArrayBodies:
    """Each scalar residual is one point of its formula's row of _residual_rows, bit for bit."""

    # the reference, the well-free case and a case with b*sigma = 1, where
    # the mirror ratio sqrt(b*sigma) is exactly 1 at positive strengths
    CONFIGS = [(3.0, 1.0), (3.0, 0.0), (2.5, 0.4)]

    @pytest.mark.parametrize("b, sigma", CONFIGS)
    @pytest.mark.parametrize("scalar, formula", RESIDUAL_FORMULAS)
    def test_scalar_wrapper_equals_array_body(self, scalar, formula, b, sigma):
        assert b * sigma in (0.0, 1.0, 3.0)  # exactly 1 in the third case
        # the 20001-point scan grid of resonance_sets, which holds 0.0, then
        # -0.0 and the first tan pole on each side (none when sigma = 0)
        poles = [(math.pi / 2) ** 2 * (1.0 + b) / (2.0 * sigma),
                 -(math.pi / 2) ** 2 * (1.0 + 1.0 / b) / (2.0 * sigma)] if sigma else []
        alphas = np.concatenate([np.linspace(-40.0, 40.0, 20001), [-0.0], poles])
        values, = _residual_rows((formula,), alphas, b, sigma)
        pole = _residual_phases(alphas, b, sigma)[-1]
        assert values.dtype == np.float64 and pole.dtype == np.bool_
        # the body stores its pole mask as NaN, and has no other NaN here
        assert np.array_equal(np.isnan(values), pole)
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

    @pytest.mark.parametrize("scalar, formula", RESIDUAL_FORMULAS)
    @pytest.mark.parametrize("window", [(-40.0, 0.0), (0.0, 40.0), (-40.0, 40.0)])
    def test_scalar_finder_equals_array_finder(self, scalar, formula, window):
        # find_roots lifts the scalar wrapper into the same core; edges at 0
        # put f_prime's exact zero on the first or last grid point
        want, = _bracket_roots(lambda a: _residual_rows((formula,), a, 3.0, 1.0),
                               window, 2000, 1e-10)
        assert find_roots(lambda a: scalar(a, 3.0, 1.0), window, 2000, 1e-10) == want
        if formula is _prime:
            assert 0.0 in want

    @pytest.mark.parametrize("kind", [Kind.PLUS, Kind.MINUS])
    @pytest.mark.parametrize("block", [1, 7])
    def test_roots_do_not_depend_on_the_scan_block(self, kind, block):
        # every cell, and the last grid point, must be seen across block edges
        want = resonance_sets(kind, 3.0, 1.0)
        with mock.patch.object(resonance, "BLOCK_POINTS", block):
            assert resonance_sets(kind, 3.0, 1.0) == want

    @pytest.mark.parametrize("sigma", [0.0, 5e-324, 1e-310, 1.0])
    @pytest.mark.parametrize("scalar, formula", RESIDUAL_FORMULAS)
    def test_subnormal_strengths_raise_no_warning(self, scalar, formula, sigma):
        # at alpha < 0 sqrt(b/sigma) overflows to inf while tanh of the
        # well phase underflows to 0; their product was computed (and, at
        # sigma = 0, discarded) with an "invalid value" RuntimeWarning
        alphas = [5e-324, -5e-324, 1e-310, -1e-310, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, = _residual_rows((formula,), np.array(alphas), 3.0, sigma)
            got = [scalar(alpha, 3.0, sigma) for alpha in alphas]
        assert not np.isnan(values).any()
        assert [v.hex() for v in got] == [v.hex() for v in values.tolist()]

    @pytest.mark.parametrize("kind", [Kind.PLUS, Kind.MINUS])
    def test_huge_phases_raise_no_warning(self, kind):
        # sigma = 1e300 puts barrier phases near 1e151 on the scan, whose z^4
        # in the series of tan(z)/z and tanh(z)/z overflowed with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(WindowTooCoarseError):
                resonance_sets(kind, 3.0, 1e300)

    @pytest.mark.parametrize("tanc, trig", [(resonance._tanc, np.tan), (resonance._tanhc, np.tanh)])
    def test_series_takes_the_small_lanes_alone(self, tanc, trig):
        z = np.array([0.0, 1e-7, -1e-7, 0.5, 1e151, -1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = tanc(z, trig(z))
            point = [float(tanc(v, float(trig(v)))) for v in z.tolist()]
        sign = 1.0 if trig is np.tan else -1.0
        series = 1.0 + sign * z[:3] ** 2 / 3.0 + 2.0 * z[:3] ** 4 / 15.0
        assert got[:3].tolist() == series.tolist()
        assert got[3:].tolist() == (trig(z[3:]) / z[3:]).tolist()
        assert point == got.tolist()

    def test_subnormal_sigma_residual_is_finite(self):
        # sqrt(b/sigma) overflows here; the residual ty - r*tx does not. Its
        # phase's argument 2|alpha|/(1+b) is subnormal and keeps about 13 digits.
        mp = pytest.importorskip("mpmath").mp
        want = float(_mp_continued(mp, SetLabel.SIGMA_PRIME, -1e-310, 3.0, 1e-310))
        assert f_prime(-1e-310, 3.0, 1e-310) == pytest.approx(want, rel=1e-13, abs=0.0)
        assert want == pytest.approx(-math.sqrt(1.5), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("label, scalar", [(SetLabel.SIGMA_MINUS, f_minus),
                                               (SetLabel.SIGMA_PRIME, f_prime)])
    def test_huge_b_times_sigma_keeps_r_finite(self, label, scalar):
        # b*sigma = 1e600 overflows, while r = sqrt(b*sigma) = 1e300 does not
        mp = pytest.importorskip("mpmath").mp
        want = float(_mp_continued(mp, label, 1e-300, 1e300, 1e300))
        assert scalar(1e-300, 1e300, 1e300) == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("scalar", [f_minus, f_prime])
    def test_r_past_the_float_range_is_a_value_error(self, scalar):
        # at alpha < 0, r = sqrt(b/sigma) = sqrt(2e623) is past the float
        # range; f_plus has no r and stays finite there
        with pytest.raises(ValueError, match=r"r = sqrt\(b / sigma\) is not finite"):
            scalar(-1e-310, 1e300, 5e-324)
        assert math.isfinite(f_plus(-1e-310, 1e300, 5e-324))

    def test_array_input_checks(self):
        with pytest.raises(ValueError, match="finite"):
            _residual_rows((_plus,), np.array([1.0, math.nan, 2.0]), 3.0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            _residual_rows((_minus,), np.array([-math.inf]), 3.0, 1.0)
        with pytest.raises(ValueError):
            _residual_rows((_prime,), np.array([1.0]), 3.0, -1.0)


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

    @pytest.mark.parametrize("f, want", [
        # a NaN band between grid points 3.0 and 3.2, and a NaN last grid point:
        # each was taken for a sign change and its bisection returned as a root
        (lambda a: math.nan if 3.05 < a < 3.15 else a - 7.0, [7.0]),
        (lambda a: math.nan if a > 9.95 else a - 7.0, [7.0]),
        # two such bogus roots in neighbouring cells raised WindowTooCoarseError
        (lambda a: math.nan if 3.05 < a < 3.15 else 1.0, []),
    ])
    def test_nan_sample_is_no_sign_change(self, f, want):
        assert find_roots(f, (0.0, 10.0), 100) == want

    def test_copies_of_one_root_are_merged(self):
        # both cells beside the grid point 5.0 change sign; their bisections
        # end at 4.999999999953434 and 5.000000000046566, within tol of each
        # other, so they are one root and not a pair closer than one cell
        assert find_roots(lambda a: 1.0 if a == 5.0 else -1.0, (0.0, 10.0), 100) == \
            [4.999999999953434]

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


def _bisect_one_step(f, brackets, tol):
    """The bisection stage at one step per call of f: the oracle of resonance._bisect.

    brackets are (row, a, b, f(a)) and each walks on its own row of f; one
    result per bracket, (root, f at the bracket's left end or 0 at an
    exact zero), or None where it met a NaN midpoint (a pole).
    """
    found = [None] * len(brackets)
    if not brackets:
        return found
    k = np.arange(len(brackets))
    row, a, b, fa = (np.array(v) for v in zip(*brackets))

    def record(where, points, values):
        for i, x, v in zip(k[where].tolist(), points[where].tolist(), values[where].tolist()):
            found[i] = (x, v)

    while True:
        m = 0.5 * (a + b)
        # stop at the requested width or at double-precision resolution
        go = (b - a >= tol) & (a < m) & (m < b)
        record(~go, m, fa)
        if not go.any():
            return found
        k, row, a, b, fa, m = k[go], row[go], a[go], b[go], fa[go], m[go]
        fm = f(m)[row, np.arange(row.size)]
        zero = fm == 0.0
        record(zero, m, fm)
        left = fa * fm < 0
        live = ~np.isnan(fm) & ~zero  # a bracket that meets a NaN is dropped
        k, row, a, b, fa = (k[live], row[live], np.where(left, a, m)[live],
                            np.where(left, m, b)[live], np.where(left, fa, fm)[live])


def _one_step_roots(finder, *args):
    """What finder returns with the bisection stage of one step per call."""
    with mock.patch.object(resonance, "_bisect", _bisect_one_step):
        return finder(*args)


def _pole_at_five(a):
    if a == 5.0:
        raise PoleError("a pole at 5")
    return a - 5.0


_RNG = random.Random(20130318)
# seeded (b, sigma) draws, plus well-free (sigma = 0) ones
SEEDED_BSIGMA = ([(_RNG.uniform(0.5, 8.0), _RNG.uniform(0.0, 3.0)) for _ in range(12)]
                 + [(_RNG.uniform(0.5, 8.0), 0.0) for _ in range(3)])


class TestTreeBisection:
    """Four bisection steps per residual call return the roots of one step per call."""

    @pytest.mark.parametrize("b, sigma", SEEDED_BSIGMA)
    @pytest.mark.parametrize("formula", [_plus, _minus, _prime])
    def test_array_roots_equal_one_step_bisection(self, formula, b, sigma):
        args = (lambda a: _residual_rows((formula,), a, b, sigma), (-40.0, 40.0), 20000, 1e-10)
        roots, = _bracket_roots(*args)
        assert [r.hex() for r in roots] == [r.hex() for r in _one_step_roots(_bracket_roots, *args)[0]]

    @pytest.mark.parametrize("b, sigma", SEEDED_BSIGMA)
    @pytest.mark.parametrize("formula", [_plus, _minus])
    def test_stacked_roots_equal_one_step_bisection(self, formula, b, sigma):
        args = (lambda a: _residual_rows((formula, _prime), a, b, sigma), (-40.0, 40.0), 20000, 1e-10)
        want = _one_step_roots(_bracket_roots, *args)
        assert [[r.hex() for r in row] for row in _bracket_roots(*args)] == \
            [[r.hex() for r in row] for row in want]

    @pytest.mark.parametrize("f, window, grid_steps, tol", [
        # tan's poles are dropped, its roots kept
        (math.tan, (1.0, 2.0), 100, 1e-10),
        (math.tan, (-10.0, 10.0), 100, 1e-12),
        # cells of 1/8 that put 5.0 on the third-level midpoint of its cell
        (lambda a: a - 5.0, (-1.2890625, 11.2109375), 100, 1e-12),
        # the same bracket meets a pole there instead, and is dropped
        (_pole_at_five, (-1.2890625, 11.2109375), 100, 1e-12),
        # and a NaN midpoint drops its bracket as a pole does
        (lambda a: math.nan if a == 5.0 else a - 5.0, (-1.2890625, 11.2109375), 100, 1e-12),
        # a tol below float resolution: bisection stops at adjacent floats
        (lambda a: a - 5.123456789, (0.0, 10.0), 100, 1e-300),
    ])
    def test_scalar_roots_equal_one_step_bisection(self, f, window, grid_steps, tol):
        roots = find_roots(f, window, grid_steps, tol)
        assert [r.hex() for r in roots] == [
            r.hex() for r in _one_step_roots(find_roots, f, window, grid_steps, tol)]

    def test_root_or_pole_on_a_tree_midpoint(self):
        assert find_roots(lambda a: a - 5.0, (-1.2890625, 11.2109375), 100, 1e-12) == [5.0]
        assert find_roots(_pole_at_five, (-1.2890625, 11.2109375), 100, 1e-12) == []

    def test_one_residual_call_per_four_steps(self):
        # each bracket takes 26 steps to 1e-10 and stops at the 27th; one
        # step per call takes 31 calls: 5 scan blocks + 26. The brackets go
        # from the scan to the bisection, so a pass between them fails this
        calls = []

        def body(a):
            calls.append(a.size)
            return _residual_rows((_plus,), a, 3.0, 1.0)

        _bracket_roots(body, (-40.0, 40.0), 20000, 1e-10)
        assert len(calls) <= 5 + math.ceil(27 / 4)

    @pytest.mark.parametrize("kind", [Kind.PLUS, Kind.MINUS])
    def test_both_sets_share_every_residual_call(self, kind):
        # the 5 scan blocks and the ceil(27/4) tree rounds serve both sets,
        # and one more call gives both sets' residual fields; a pass per set
        # took twice the finder's calls
        calls = []
        shared = resonance._residual_phases

        def spy(alpha, b, sigma):
            calls.append(np.size(alpha))
            return shared(alpha, b, sigma)

        with mock.patch.object(resonance, "_residual_phases", spy):
            model, prime = resonance_sets(kind, 3.0, 1.0)
        assert len(calls) <= 5 + math.ceil(27 / 4) + 1
        assert calls[-1] == len(model.roots) + len(prime.roots)
        assert (model, prime) == resonance_sets(kind, 3.0, 1.0)


def _outcome(run):
    """What run() returns, as hex strings, or the type and text of what it raises."""
    try:
        return [[r.hex() for r in row] for row in run()]
    except (ArithmeticError, ValueError, WindowTooCoarseError) as exc:
        return type(exc), str(exc)


def _row_by_row(formulas, b, sigma, window, grid_steps, tol):
    """One single-row _bracket_roots run per formula, in order: the stacked pass's oracle."""
    def body(formula):
        return lambda a: _residual_rows((formula,), a, b, sigma)

    return [_bracket_roots(body(formula), window, grid_steps, tol)[0] for formula in formulas]


class TestStackedRows:
    """The rows of one pass return the roots of one run per row, bit for bit."""

    # seeded draws, the well-free case, subnormal sigma, a b whose
    # r = sqrt(b / sigma) is past the float range at negative strengths,
    # and a sigma whose phases (near 1e51) change sign too fast for 100 cells
    CASES = SEEDED_BSIGMA + [(3.0, 0.0), (3.0, 5e-324), (3.0, 1e-310), (1e300, 5e-324),
                             (3.0, 1e100)]

    @pytest.mark.parametrize("b, sigma", CASES)
    @pytest.mark.parametrize("formulas", [(_plus, _prime), (_minus, _prime)])
    @pytest.mark.parametrize("window, grid_steps", [((-40.0, 40.0), 20000), ((-40.0, 40.0), 100),
                                                    ((0.0, 40.0), 400)])
    def test_stacked_rows_equal_one_run_per_row(self, formulas, b, sigma, window, grid_steps):
        def stacked():
            return _bracket_roots(lambda a: _residual_rows(formulas, a, b, sigma),
                                  window, grid_steps, 1e-10)

        assert _outcome(stacked) == _outcome(
            lambda: _row_by_row(formulas, b, sigma, window, grid_steps, 1e-10))

    def test_cases_reach_every_outcome(self):
        # the cases above hold roots, WindowTooCoarseError and ValueError
        outcomes = [_outcome(lambda: _row_by_row((formula, _prime), b, sigma, (-40.0, 40.0), 100, 1e-10))
                    for b, sigma in self.CASES for formula in (_plus, _minus)]
        kinds = {o[0] if isinstance(o, tuple) else list for o in outcomes}
        assert kinds == {list, WindowTooCoarseError, ValueError}

    @staticmethod
    def _two_rows(first, second):
        # rows with roots at the given points and no pole
        def f(x):
            return np.array([np.prod([x - r for r in roots], axis=0) for roots in (first, second)])
        return f

    def test_first_row_too_coarse_is_raised_first(self):
        f = self._two_rows([0.9999, 1.0001, 1.5], [0.4999, 0.5001, 1.5])
        with pytest.raises(WindowTooCoarseError, match="roots 0.9999"):
            _bracket_roots(f, (0.0, 2.0), 100, 1e-12)

    def test_second_row_too_coarse_is_raised_after_a_clean_first_row(self):
        f = self._two_rows([1.25, 1.5], [0.4999, 0.5001, 1.5])
        with pytest.raises(WindowTooCoarseError, match="roots 0.4999"):
            _bracket_roots(f, (0.0, 2.0), 100, 1e-12)
        roots = _bracket_roots(self._two_rows([1.25, 1.5], [0.25, 1.5]), (0.0, 2.0), 100, 1e-12)
        assert roots == [pytest.approx([1.25, 1.5], abs=1e-12), pytest.approx([0.25, 1.5], abs=1e-12)]


class TestResonanceSets:
    def test_a_bisection_that_ends_on_a_pole_is_no_root(self):
        # the cell [-0.128, -0.124] holds a tan pole at -0.12617 and ends
        # beside the root -0.12344 of the next cell; its bisection closes in
        # on the pole (f = -7.7e8), where |f| exceeds both ends of the cell,
        # so it is no root. Taken as one, it and the root raised
        # WindowTooCoarseError
        model, _ = resonance_sets(Kind.MINUS, 90.65087093655639, 9.885609104410841)
        assert [r.alpha for r in model.roots if -0.2 < r.alpha < -0.05] == [-0.1234386419355886]
        assert max(r.residual for r in model.roots) < 1e-6

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

    @pytest.mark.parametrize("b, sigma", SEEDED_BSIGMA)
    @pytest.mark.parametrize("kind, f_model", [(Kind.PLUS, f_plus), (Kind.MINUS, f_minus)])
    def test_residual_fields_equal_the_scalar_residuals(self, kind, f_model, b, sigma):
        # and each theta equals theta_factor's
        for rset in resonance_sets(kind, b, sigma):
            for root in rset.roots:
                f = f_prime if root.set_label is SetLabel.SIGMA_PRIME else f_model
                want = abs(f(root.alpha, b, sigma)) if root.alpha else 0.0
                assert root.residual.hex() == want.hex(), (root, want)
                if root.set_label is SetLabel.SIGMA_PRIME:
                    theta = theta_factor(root.alpha, b, sigma)
                    assert root.theta.hex() == theta.hex(), (root, theta)
                else:
                    assert root.theta is None

    @pytest.mark.parametrize("kind", [Kind.PLUS, Kind.MINUS])
    @pytest.mark.parametrize("coarse, want", [
        # as from one finder pass per set, then each set's residual fields:
        # either set's WindowTooCoarseError, the model set's first, comes
        # before a PoleError at a root of either set, the model set's first
        ({"shared"}, "shared too coarse"), ({"model", "shared"}, "model too coarse"),
        ({"model"}, "model too coarse"), (set(), "model poles"),
    ])
    def test_error_order_is_that_of_one_pass_per_set(self, kind, coarse, want):
        model, prime = resonance_sets(kind, 3.0, 1.0)
        model_alphas = [r.alpha for r in model.roots]
        model_nonzero = sorted(a for a in model_alphas if a)
        merged = resonance._merged

        def too_coarse(roots, tol, cell):
            # each row is told apart by its roots, not by the order of the calls
            out = merged(roots, tol, cell)
            row = "model" if [r for r in out if abs(r) > 1e-6] == model_nonzero else "shared"
            if row in coarse:
                raise WindowTooCoarseError(f"{row} too coarse")
            return out

        def at_a_pole(alphas, pole):
            raise PoleError("model poles" if alphas == model_alphas else "shared poles")

        with mock.patch.object(resonance, "_merged", too_coarse), \
                mock.patch.object(resonance, "_check_poles", at_a_pole), \
                pytest.raises((WindowTooCoarseError, PoleError)) as exc:
            resonance_sets(kind, 3.0, 1.0)
        assert str(exc.value) == want
        assert exc.type is (PoleError if want.endswith("poles") else WindowTooCoarseError)

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

    @pytest.mark.parametrize("kind", [Kind.PLUS, Kind.MINUS])
    @pytest.mark.parametrize("sigma", [1e-300, 1e-310, 5e-324])
    def test_subnormal_sigma_sets_as_tiny_sigma(self, kind, sigma):
        # the residuals reach about 1e162 at negative strengths, so the
        # scan's sign test multiplies two of them past the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model, prime = resonance_sets(kind, 3.0, sigma)
        assert model.alphas() == [0.0]
        assert prime.alphas() == []

    @pytest.mark.parametrize("kind", [Kind.PLUS, Kind.MINUS])
    def test_r_past_the_float_range_fails_the_sets(self, kind):
        # r = sqrt(b/sigma) overflows at the window's negative strengths;
        # the error comes before any floating-point warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"r = sqrt\(b / sigma\) is not finite"):
                resonance_sets(kind, 1e300, 5e-324)

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


def unfound_sign_changes(kind, b, sigma, window=(-40.0, 40.0), grid_steps=20000):
    """How many scan cells of resonance_sets' grid must hold a root, and which hold none.

    Such a cell is one where a row of _residual_rows changes sign (so
    neither end is a masked NaN) and both ends lie on one tan branch
    (equal floor(y/pi + 1/2) of the tan phase y): the residual is
    continuous across it. Cells within 1e-6 of strength 0, which the sets
    leave out as the trivial root, are not checked. An empty cell is given
    as (label, a, b); resonance_sets' errors propagate.
    """
    sets = resonance_sets(kind, b, sigma, window, grid_steps)
    xs = np.linspace(*window, grid_steps + 1)
    formula, label = resonance.MODEL_SETS[kind]
    values = _residual_rows((formula, _prime), xs, b, sigma)
    y = _residual_phases(xs, b, sigma)[4]
    branch = np.floor(y / math.pi + 0.5)
    with np.errstate(over="ignore"):
        change = values[:, :-1] * values[:, 1:] < 0
    clear = branch[:-1] == branch[1:]
    clear &= (xs[1:] < -1e-6) | (xs[:-1] > 1e-6)
    unfound = []
    cells = change & clear
    for row_label, rset, row in zip((label, SetLabel.SIGMA_PRIME), sets, cells):
        roots = np.array(rset.alphas())
        for i in np.flatnonzero(row).tolist():
            a, c = xs[i], xs[i + 1]
            if not ((roots >= a) & (roots <= c)).any():
                unfound.append((row_label, float(a), float(c)))
    return int(np.count_nonzero(cells)), unfound


def completeness_draws(rng, n):
    """n seeded (b, sigma) draws, b in [0.3, 100] and sigma in [0, 100], every tenth well-free."""
    return [(rng.uniform(0.3, 100.0), rng.uniform(0.0, 100.0) if i % 10 else 0.0) for i in range(n)]


def check_completeness(kind, b, sigma):
    """Assert that every tan-branch sign change of a draw holds a root.

    Returns the number of such cells, or None where resonance_sets fails.
    """
    try:
        checked, unfound = unfound_sign_changes(kind, b, sigma)
    except (ArithmeticError, ValueError, WindowTooCoarseError):
        return None
    assert not unfound, (kind, b, sigma, unfound[:3])
    return checked


# Sigma-plus roots inside the limits draw range (b in [1.5, 6], sigma in
# [0.3, 2]) that share a scan cell with a tan pole: the cell's ends keep one
# sign, so the 20000-cell scan of (-40, 40) never brackets them
MISSED_SIGMA_PLUS = [
    (1.9707395928661682, 1.988022834142239, -0.9320299435138651),
    (1.8501105721549729, 1.848342540052744, -9.255947260808945),
    (1.8501105721549729, 1.848342540052744, -1.0286649184703798),
]


class TestCompleteness:
    """Every sign change of a residual on one tan branch holds a root, whatever the residual's scale."""

    @pytest.mark.parametrize("kind", [Kind.PLUS, Kind.MINUS])
    def test_seeded_draws(self, kind):
        rng = random.Random(20261025 + (kind is Kind.MINUS))
        checked = [check_completeness(kind, *draw) for draw in completeness_draws(rng, 30)]
        assert checked.count(None) <= 3 and sum(filter(None, checked)) > 500, checked

    def test_steep_root_of_the_mirror_pair(self):
        # its cell [0.556, 0.560] reaches |f| >= 1.25 right of the root and
        # -2.09 left of it: steep enough to fall through a test of |f| <= 1
        b, sigma = 42.299768464923005, 97.05882328818129
        assert unfound_sign_changes(Kind.MINUS, b, sigma)[1] == []
        model, _ = resonance_sets(Kind.MINUS, b, sigma)
        assert 0.5589387262761603 in model.alphas()

    def test_residuals_of_scale_1e100(self):
        # f_prime = tanh x - 1e100 tan y crosses zero near (n pi)^2 / 2 at a slope near 1e100
        for kind in Kind:
            checked, unfound = unfound_sign_changes(kind, 1e100, 1e100, (0.0, 40.0))
            assert checked > 0 and unfound == []
        model, prime = resonance_sets(Kind.PLUS, 1e100, 1e100, (0.0, 40.0))
        _, prime_minus = resonance_sets(Kind.MINUS, 1e100, 1e100, (0.0, 40.0))
        want = [4.934802200525999, 19.739208802193403]
        assert model.alphas() == [0.0] + want
        assert prime.alphas() == prime_minus.alphas() == want

    @pytest.mark.parametrize("b, sigma, root", MISSED_SIGMA_PLUS)
    def test_missed_roots_are_50_digit_sign_changes(self, b, sigma, root):
        mp = pytest.importorskip("mpmath").mp
        lo = _mp_continued(mp, SetLabel.SIGMA_PLUS, root - 1e-9, b, sigma)
        hi = _mp_continued(mp, SetLabel.SIGMA_PLUS, root + 1e-9, b, sigma)
        assert lo * hi < 0, (lo, hi)

    @pytest.mark.xfail(strict=True, reason="a root that shares its scan cell with a tan pole is missed")
    @pytest.mark.parametrize("b, sigma, root", MISSED_SIGMA_PLUS)
    def test_root_beside_a_pole_in_its_cell_is_found(self, b, sigma, root):
        model, _ = resonance_sets(Kind.PLUS, b, sigma)
        assert any(abs(alpha - root) <= 1e-9 for alpha in model.alphas())

    def test_steep_roots_bracket_a_50_digit_sign_change(self):
        mp = pytest.importorskip("mpmath").mp
        tol = 1e-10
        model, _ = resonance_sets(Kind.PLUS, 1.0, 1e6, (0.0, 40.0))
        # 1874 roots past 0, most with slopes past 1e4; an absolute threshold
        # on |f| kept 124
        assert len(model.roots) == 1875
        cases = [(SetLabel.SIGMA_PLUS, r.alpha, 1.0, 1e6) for r in model.roots[1::60]]
        cases += [(SetLabel.SIGMA_MINUS, 0.5589387262761603, 42.299768464923005, 97.05882328818129),
                  (SetLabel.SIGMA_PRIME, 4.934802200525999, 1e100, 1e100),
                  (SetLabel.SIGMA_PRIME, 19.739208802193403, 1e100, 1e100),
                  (SetLabel.SIGMA_PLUS, 19.739208802193403, 1e100, 1e100)]
        for label, alpha, b, sigma in cases:
            lo = _mp_continued(mp, label, alpha - 2 * tol, b, sigma)
            hi = _mp_continued(mp, label, alpha + 2 * tol, b, sigma)
            assert lo * hi < 0, (label, alpha, b, sigma, lo, hi)


def _theta_from_slots(alpha, b, sp, sm):
    """theta at explicit sigma slots (sp, sm), written out in the math module.

    The checks of b and both slots, the two limiting slab phases and the
    1e-12 guard on the cos denominator, one float at a time.
    """
    if not (0.0 < b < math.inf and 0.0 <= sp < math.inf and 0.0 <= sm < math.inf):
        raise ValueError("b or a sigma slot is out of range")
    if not abs(alpha) < math.inf:
        raise ValueError("alpha must be finite")
    barrier = math.sqrt(2.0 * abs(alpha) * sp / (1.0 + 1.0 / b))
    well = math.sqrt(2.0 * abs(alpha) * sm / (1.0 + b))
    if not barrier + well < math.inf:
        raise ValueError("the slab phases are not finite")
    if alpha < 0:
        return math.cos(barrier) / math.cosh(well)
    if abs(math.cos(well)) < 1e-12:
        raise PoleError("cos denominator")
    return math.cosh(barrier) / math.cos(well)


def _theta_draws(rng, n):
    """(alpha, b, sigma) draws: moderate and extreme values, tan poles and invalid input."""
    draws = []
    for _ in range(n):
        b = rng.choice([10 ** rng.uniform(-3, 3)] * 8 + [0.0, -1.0, math.inf, math.nan])
        sigma = rng.choice([rng.uniform(0.0, 3.0)] * 6 + [0.0, 5e-324, 1e300, -1.0, math.nan, math.inf])
        magnitude = rng.choice([rng.uniform(0.0, 60.0)] * 4 + [10 ** rng.uniform(-320, 300)])
        alpha = rng.choice([magnitude, -magnitude, 0.0, -0.0, math.nan, math.inf])
        if rng.random() < 0.2 and b > 0.0 and sigma > 0.0:
            # where the cos denominator of a positive strength nears zero
            n_branch = rng.randrange(20)
            alpha = (math.pi / 2 + n_branch * math.pi) ** 2 * (1.0 + b) / (2.0 * sigma)
        draws.append((alpha, b, sigma))
    return draws


def _value_or_error(f, *args):
    try:
        return f(*args).hex()
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


class TestThetaFactor:
    def test_degenerate_origin(self):
        assert theta_factor(0.0, 3.0, 1.0) == 1.0

    def test_continuation_matches_real_form(self):
        alpha = -11.6585
        a_ = math.sqrt(2.0 * abs(alpha) / (1.0 + 1.0 / 3.0))
        b_ = math.sqrt(2.0 * abs(alpha) / (1.0 + 3.0))
        want = math.cos(a_) / math.cosh(b_)
        assert theta_factor(alpha, 3.0, 1.0) == pytest.approx(want, rel=1e-12)

    def test_pole_on_cos_zero(self):
        with pytest.raises(PoleError):
            theta_factor(2.0 * (math.pi / 2.0) ** 2, 3.0, 1.0)

    @pytest.mark.parametrize("args", [
        (5.0, -3.0, 1.0), (5.0, 0.0, 1.0), (5.0, 3.0, -1.0),
        (5.0, 3.0, math.inf), (-5.0, 3.0, math.nan)])
    def test_invalid_parameters_rejected(self, args):
        with pytest.raises(ValueError):
            theta_factor(*args)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_seeded_draws_equal_theta_at_the_split_slots(self):
        # theta_factor(alpha, b, sigma) reads the shared step; at the slots of
        # sigma_split it equals theta of the two slots, bit for bit, and raises
        # the same error type
        rng = random.Random(20261027)
        values = 0
        for alpha, b, sigma in _theta_draws(rng, 5000):
            got = _value_or_error(theta_factor, alpha, b, sigma)
            if alpha == 0.0 and not 0.0 <= sigma < math.inf:
                # sigma enters no phase at strength 0, but it is checked there
                # too, as in f_plus, f_minus and f_prime
                want = ValueError
            else:
                want = _value_or_error(
                    lambda: _theta_from_slots(alpha, b, *sigma_split(alpha, sigma)))
            assert got == want, (alpha, b, sigma)
            values += isinstance(got, str)
        assert 1000 < values < 5000


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
            factored = lambda21_factored(params, E)
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
            L = closed_form(params, k * k)
            _, v = uv(L, k)
            assert abs(v) < 1e-4  # bisection-limited; the polish happens below
            assert transmissivity(params, k) > 0.999999

    def test_transparent_barriers_transmit_fully_but_are_no_root(self):
        # sin(p*l) = 0: each barrier is transparent on its own, so T = 1 at k1;
        # the residual is far from zero there and find_roots does not return k1
        alpha, eps, c1, c2 = 10.0, 0.2, 3.0, 1.0
        params = BWParams(Kind.MINUS, alpha, eps, c1, c2, 0.0)
        h, l, _, _ = bw_geometry(params)
        k1 = math.sqrt(alpha * h + (math.pi / l) ** 2)
        assert k1 == pytest.approx(8.311572, abs=1e-6)
        assert transmissivity(params, k1) == pytest.approx(1.0, abs=1e-12)
        assert db_resonance_residual(k1, alpha, eps, c1, c2) == pytest.approx(-10.80, abs=0.01)
        roots = find_roots(lambda k: db_resonance_residual(k, alpha, eps, c1, c2), (0.01, 10.0))
        assert roots == pytest.approx([4.2542, 7.2020, 9.3756], abs=1e-4)

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

    @pytest.mark.parametrize("kind, guess, eps", [
        (Kind.PLUS, 2.282647521704435, 0.1), (Kind.PLUS, 26.867217553883783, 0.01),
        (Kind.MINUS, 26.867217553883783, 1e-4)])
    def test_peak_is_a_kernel_point(self, kind, guess, eps):
        # T_peak is the one-point kernel T at alpha_peak, bit for bit, and the
        # slab product agrees with it; the last case is a crest narrower than
        # PEAK_RESOLUTION
        template = BWParams(kind, 0.0, eps, 3.0, 1.0, 1.0)
        alpha_peak, t_peak = peak_refine(template, 1.0, guess, 0.5)
        one = grid(template, (alpha_peak, alpha_peak), (1.0, 1.0), 1, 1).values[0, 0]
        assert t_peak == one
        assert t_peak == pytest.approx(transmissivity(replace(template, alpha=alpha_peak), 1.0),
                                       rel=1e-9)

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

    def test_crest_at_the_bracket_edge_signals_no_peak(self):
        # T falls from 13 to a trough near 22.2 and rises to a lower crest
        # near 26.8: not monotone, but its highest sample is the left end
        template = BWParams(Kind.PLUS, 0.0, 0.1, 3.0, 1.0, 1.0)
        with pytest.raises(NoPeakError, match="no interior crest"):
            peak_refine(template, 1.0, 20.0, 7.0)

    def test_nan_zoom_is_rejected(self):
        # as a NaN in the pre-scan is: argmax picked the NaN zoom sample, and
        # the search returned T_peak = NaN with no error
        template = BWParams(Kind.PLUS, 0.0, 0.1, 3.0, 1.0, 1.0)
        calls = []

        def nan_zooms(*args):
            g = grid(*args)
            calls.append(args[1])
            return g if len(calls) == 1 else replace(g, values=np.full_like(g.values, np.nan))

        with mock.patch.object(resonance, "grid", nan_zooms), \
                pytest.raises(ValueError, match="transmission is not finite"):
            peak_refine(template, 1.0, 2.28, 0.5)
        assert len(calls) == 2

    def test_sharp_zooms_stop_at_float_resolution(self):
        # a highest sample whose neighbours are never within 1e-9 of it keeps
        # the zoom going, so the search stops where the window no longer
        # shrinks, not zooming forever
        template = BWParams(Kind.PLUS, 0.0, 0.1, 3.0, 1.0, 1.0)
        calls = []

        def spikes(*args):
            g = grid(*args)
            calls.append(args[1])
            values = np.zeros_like(g.values)
            values[resonance.PEAK_PRESCAN_STEPS // 2] = 1.0
            return replace(g, values=values)

        with mock.patch.object(resonance, "grid", spikes):
            alpha_peak, t_peak = peak_refine(template, 1.0, 2.28, 0.5)
        a, b = calls[-1]
        assert a == b == alpha_peak == pytest.approx(2.28, abs=1e-12)
        assert t_peak == 1.0 and len(calls) < 12

    def test_non_finite_prescan_is_rejected(self):
        # the entries overflow at alpha = 1e5, so T is NaN on the whole bracket;
        # argmax would land on the NaN at its left end and report no interior crest
        template = BWParams(Kind.PLUS, 0.0, 0.1, 3.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="transmission is not finite"):
            peak_refine(template, 1.0, 1e5, 0.5)
