import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwtunnel.potential import (
    BWParams,
    Kind,
    Segment,
    SegmentChain,
    bw_geometry,
    concat,
    realize,
    sigma_split,
)


class TestSigmaSplit:
    def test_positive_alpha_assigns_to_second_slot(self):
        assert sigma_split(2.28, 1.0) == (1.0, 1.0)
        assert sigma_split(5.0, 0.25) == (1.0, 0.25)

    def test_zero_alpha_gives_ones(self):
        assert sigma_split(0.0, 7.0) == (1.0, 1.0)

    def test_negative_alpha_assigns_to_first_slot(self):
        assert sigma_split(-5.0, 0.5) == (0.5, 1.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            sigma_split(1.0, -0.1)

    @pytest.mark.parametrize("sigma", [0.0, 0.25, 1.0, 3.0])
    def test_arrays_split_elementwise_like_points(self, sigma):
        alphas = np.array([-2.0, -0.0, 0.0, 5e-324, 3.0, math.nan])
        sp, sm = sigma_split(alphas, sigma)
        assert sp.dtype == sm.dtype == np.float64 and sp.shape == sm.shape == alphas.shape
        assert list(zip(sp.tolist(), sm.tolist())) == [sigma_split(a, sigma) for a in alphas.tolist()]

    def test_one_strength_gives_python_floats(self):
        for alpha in (-1.0, 0.0, 2.0, np.float64(2.0), np.array(-1.0)):
            assert all(type(slot) is float for slot in sigma_split(alpha, 0.5))


class TestRealize:
    def test_unit_constants_plus(self):
        chain = realize(BWParams(Kind.PLUS, 1.0, 1.0, 1.0, 1.0, 1.0))
        assert [(s.value, s.width) for s in chain.segments] == [
            (1.0, 1.0), (-1.0, 1.0), (1.0, 1.0), (-1.0, 1.0)]
        assert chain.x_left == -2.0
        assert chain.x_right == 2.0

    def test_unit_constants_minus_is_mirror(self):
        chain = realize(BWParams(Kind.MINUS, 1.0, 1.0, 1.0, 1.0, 1.0))
        assert [(s.value, s.width) for s in chain.segments] == [
            (1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), (1.0, 1.0)]
        assert chain.is_palindromic()

    def test_sigma_zero_double_barrier(self):
        # wells vanish but their slots stay as explicit zero segments
        params = BWParams(Kind.PLUS, 1.0, 0.1, 3.0, 1.0, 0.0)
        h, l, d, r = bw_geometry(params)
        assert h == pytest.approx(50.0 / 3.0, rel=1e-14)
        assert d == 0.0
        assert (l, r) == (pytest.approx(0.3), pytest.approx(0.1))
        # barrier area stays 2*sigma_plus/((c1+c2)*eps) independent of c1
        assert l * h == pytest.approx(2.0 / (4.0 * 0.1), rel=1e-14)
        chain = realize(params)
        assert chain.segments[1].value == 0.0
        assert chain.segments[3].value == 0.0
        assert chain.segments[0].value == pytest.approx(50.0 / 3.0, rel=1e-14)

    def test_alpha_zero_gives_flat_chain(self):
        chain = realize(BWParams(Kind.PLUS, 0.0, 0.3, 2.0, 1.0, 5.0))
        assert all(s.value == 0.0 for s in chain.segments)

    @pytest.mark.parametrize("bad", [
        dict(eps=0.0), dict(eps=-1.0), dict(c1=0.0), dict(c2=-2.0), dict(sigma=-0.5),
        dict(eps=math.inf), dict(eps=math.nan), dict(c1=math.inf), dict(c2=math.nan),
        dict(sigma=math.inf), dict(sigma=math.nan),
    ])
    def test_invalid_params_rejected(self, bad):
        kwargs = dict(kind=Kind.PLUS, alpha=1.0, eps=0.5, c1=1.0, c2=1.0, sigma=1.0)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            BWParams(**kwargs)

    @pytest.mark.parametrize("bad", [
        dict(eps=1e-200),               # eps^2 underflows: h would divide by zero
        dict(eps=1e-160),               # h and d overflow
        dict(c1=1e-200, c2=1e-200),     # c1*(c1 + c2) underflows
        dict(eps=1e300, c1=1e10),       # the barrier width overflows
        dict(sigma=1e308),              # 2*sigma overflows, on either slot by alpha's sign
    ])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -1.0])
    def test_non_finite_geometry_rejected(self, bad, alpha):
        kwargs = dict(kind=Kind.MINUS, alpha=alpha, eps=0.5, c1=1.0, c2=1.0, sigma=1.0)
        kwargs.update(bad)
        with pytest.raises(ValueError, match="slab geometry"):
            BWParams(**kwargs)

    def test_extreme_but_finite_geometry_accepted(self):
        params = BWParams(Kind.PLUS, 1.0, 1e-150, 1.0, 1.0, 1e8)
        assert all(math.isfinite(x) for x in bw_geometry(params))

    def test_segment_validation(self):
        with pytest.raises(ValueError):
            Segment(width=0.0, value=1.0)
        with pytest.raises(ValueError):
            Segment(width=1.0, value=math.inf)
        with pytest.raises(ValueError):
            SegmentChain(())


@settings(max_examples=100)
@given(
    alpha=st.floats(-40, 40),
    eps=st.floats(1e-3, 1.0),
    c1=st.floats(0.1, 5.0),
    c2=st.floats(0.1, 5.0),
)
def test_unit_sigma_has_zero_net_area(alpha, eps, c1, c2):
    # sigma = 1 makes barrier area and well area cancel exactly
    h, l, d, r = bw_geometry(BWParams(Kind.PLUS, alpha, eps, c1, c2, 1.0))
    assert l * h == pytest.approx(r * d, rel=1e-12)


@settings(max_examples=100)
@given(
    kind=st.sampled_from(list(Kind)),
    alpha=st.floats(-40, 40),
    eps=st.floats(1e-3, 1.0),
    c1=st.floats(0.1, 5.0),
    c2=st.floats(0.1, 5.0),
    sigma=st.floats(0.0, 3.0),
)
def test_chain_width_and_contiguity(kind, alpha, eps, c1, c2, sigma):
    chain = realize(BWParams(kind, alpha, eps, c1, c2, sigma))
    assert chain.total_width == pytest.approx(2.0 * (c1 + c2) * eps, rel=1e-12)
    assert chain.x_left == pytest.approx(-(c1 + c2) * eps, rel=1e-12)


@settings(max_examples=50)
@given(
    alpha=st.floats(-40, 40).filter(lambda a: a != 0),
    eps=st.floats(1e-3, 1.0),
    c1=st.floats(0.1, 5.0),
    c2=st.floats(0.1, 5.0),
    sigma=st.floats(0.0, 3.0),
)
def test_minus_chain_palindromic(alpha, eps, c1, c2, sigma):
    assert realize(BWParams(Kind.MINUS, alpha, eps, c1, c2, sigma)).is_palindromic()


def test_sigma_zero_positive_alpha_wells_exactly_zero():
    chain = realize(BWParams(Kind.PLUS, 7.5, 0.2, 2.0, 3.0, 0.0))
    assert chain.segments[1].value == 0.0
    assert chain.segments[3].value == 0.0


def test_translation_and_concat():
    a = SegmentChain((Segment(1.0, 2.0),), x_left=0.0)
    b = SegmentChain((Segment(0.5, -1.0),), x_left=99.0)
    both = concat(a, b)
    assert both.x_left == 0.0
    assert both.total_width == 1.5
    shifted = both.translated(-3.0)
    assert shifted.x_left == -3.0
    assert shifted.segments == both.segments
