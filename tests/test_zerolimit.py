import math
import random
from dataclasses import replace

import numpy as np
import pytest

from bwtunnel.potential import Kind
from bwtunnel.resonance import PoleError, WindowTooCoarseError, resonance_sets, resonance_sets_near
from bwtunnel.transfer import TransferMatrix
from bwtunnel.zerolimit import (
    ConvergenceRow,
    Transparency,
    boundary_map,
    boundary_values,
    classify,
    converge_study,
    partial_transmission_limit,
    theta,
)

B, SIGMA = 3.0, 1.0
PRIME_ROOT = 26.867217553883783  # first positive root of the shared equation
PRIME_ROOT_NEG = -11.658509779125449


@pytest.fixture(scope="module")
def sets():
    return resonance_sets(Kind.PLUS, B, SIGMA, (-40.0, 40.0))


@pytest.fixture(scope="module")
def sets_minus():
    return resonance_sets(Kind.MINUS, B, SIGMA, (-40.0, 40.0))


class TestTheta:
    def test_degenerate_origin_is_one(self):
        assert theta(0.0, B, 1.0) == 1.0

    def test_first_positive_root_value(self):
        th = theta(PRIME_ROOT, B, 1.0)
        assert th != 1.0
        # direct evaluation of the cosh/cos ratio
        want = math.cosh(math.sqrt(2 * PRIME_ROOT / (1 + 1 / B))) \
            / math.cos(math.sqrt(2 * PRIME_ROOT / (1 + B)))
        assert th == pytest.approx(want, rel=1e-12)
        limit = partial_transmission_limit(th)
        assert 0.0 < limit < 1.0

    def test_negative_root_continuation(self):
        th = theta(PRIME_ROOT_NEG, B, 1.0)
        want = math.cos(math.sqrt(2 * abs(PRIME_ROOT_NEG) / (1 + 1 / B))) \
            / math.cosh(math.sqrt(2 * abs(PRIME_ROOT_NEG) / (1 + B)))
        assert th == pytest.approx(want, rel=1e-12)

    def test_pole_signal(self):
        with pytest.raises(PoleError):
            theta(2.0 * (math.pi / 2.0) ** 2, B, 1.0)


class TestBoundaryMap:
    def test_identity_at_theta_one(self):
        m = boundary_map(1.0)
        assert m.max_abs_diff(TransferMatrix.identity()) == 0.0

    def test_jump_relation(self):
        psi_plus, dpsi_minus = boundary_values(2.0, psi_minus=1.0, dpsi_plus=0.5)
        assert psi_plus == 2.0
        assert dpsi_minus == 1.0

    def test_unimodular_for_any_theta(self):
        for th in (2.0, -3.5, 0.01):
            assert boundary_map(th).det() == pytest.approx(1.0, rel=1e-15)

    def test_compose_with_inverse_is_identity(self):
        th = 7.25
        prod = boundary_map(th) @ boundary_map(1.0 / th)
        assert prod.max_abs_diff(TransferMatrix.identity()) < 1e-14

    def test_zero_theta_rejected(self):
        with pytest.raises(ValueError):
            boundary_map(0.0)
        with pytest.raises(ValueError):
            boundary_values(0.0, 1.0, 1.0)


class TestClassify:
    def test_plus_on_shared_set_is_partial(self, sets):
        c = classify(Kind.PLUS, PRIME_ROOT, sets)
        assert c.label is Transparency.PARTIAL
        assert c.theta is not None and c.t_limit is not None
        assert 0.0 < c.t_limit < 1.0

    def test_minus_on_shared_set_is_total(self, sets_minus):
        c = classify(Kind.MINUS, PRIME_ROOT, sets_minus)
        assert c.label is Transparency.TOTAL
        assert c.theta is None and c.t_limit is None

    def test_unmatched_strength_is_opaque(self, sets):
        c = classify(Kind.PLUS, 10.0, sets)
        assert c.label is Transparency.OPAQUE

    def test_zero_strength_total_for_both(self, sets, sets_minus):
        assert classify(Kind.PLUS, 0.0, sets).label is Transparency.TOTAL
        assert classify(Kind.MINUS, 0.0, sets_minus).label is Transparency.TOTAL

    def test_minus_never_partial(self, sets_minus):
        model, prime = sets_minus
        for root in list(model.roots) + list(prime.roots):
            c = classify(Kind.MINUS, root.alpha, sets_minus)
            assert c.label is Transparency.TOTAL

    def test_outside_window_rejected(self, sets):
        with pytest.raises(ValueError):
            classify(Kind.PLUS, 55.0, sets)

    def test_match_tolerance(self, sets):
        near = PRIME_ROOT + 5e-7
        assert classify(Kind.PLUS, near, sets).label is Transparency.PARTIAL
        off = PRIME_ROOT + 5e-3
        assert classify(Kind.PLUS, off, sets).label is Transparency.OPAQUE

    @pytest.mark.parametrize("match_tol", [math.nan, -1.0, -math.inf])
    def test_match_tol_must_be_a_number_at_least_zero(self, sets, match_tol):
        # a NaN or negative tolerance matched nothing, so every strength read Opaque
        with pytest.raises(ValueError, match="match_tol must be >= 0"):
            classify(Kind.PLUS, 2.282647521704435, sets, match_tol=match_tol)
        assert classify(Kind.PLUS, 2.282647521704435, sets).label is Transparency.TOTAL

    def test_model_set_of_the_other_kind_rejected(self, sets, sets_minus):
        # matched against the other arrangement's roots, a strength reads TOTAL
        with pytest.raises(ValueError, match="needs a SigmaPlus model set"):
            classify(Kind.PLUS, -35.82479268333316, sets_minus)
        with pytest.raises(ValueError, match="needs a SigmaMinus model set"):
            classify(Kind.MINUS, 0.0, sets)
        assert classify(Kind.MINUS, -35.82479268333316, sets_minus).label is Transparency.TOTAL

    def test_theta_is_the_matched_roots(self, sets):
        # classify reads theta from the shared-set root that resonance_sets built
        model, prime = sets
        root = min(prime.roots, key=lambda r: abs(r.alpha - PRIME_ROOT))
        doctored = (model, replace(prime, roots=(replace(root, theta=0.5),)))
        c = classify(Kind.PLUS, root.alpha, doctored)
        assert c.theta == 0.5 and c.t_limit == partial_transmission_limit(0.5)


WINDOW = (-40.0, 40.0)
# 0.013 spans four cells of the default grid (0.004)
MATCH_TOLS = (0.0, 1e-6, 0.013)


def classify_draws(rng, kind, n):
    """n seeded (kind, b, sigma) draws, every fifth well-free (sigma = 0)."""
    return [(kind, rng.uniform(0.5, 50.0), rng.uniform(0.0, 10.0) if i % 5 else 0.0)
            for i in range(n)]


def classify_strengths(rng, b, sigma, sets):
    """The roots of both sets, up to three tan poles, 0, a grid point and the window's ends."""
    poles = []
    if sigma:  # the tan phase is the well's at positive strengths, the barrier's at negative ones
        for n in range(60):
            y2 = ((n + 0.5) * math.pi) ** 2
            poles += [y2 * (1.0 + b) / (2.0 * sigma), -y2 * (1.0 + 1.0 / b) / (2.0 * sigma)]
    poles = [a for a in poles if WINDOW[0] <= a <= WINDOW[1]]
    grid_point = float(np.linspace(*WINDOW, 20001)[rng.randrange(20001)])
    return ([r.alpha for s in sets for r in s.roots] + rng.sample(poles, min(3, len(poles)))
            + [0.0, grid_point, *WINDOW])


def check_local_classify(rng, kind, b, sigma):
    """classify on resonance_sets_near equals classify on resonance_sets at each strength and match_tol.

    Returns the number of classifications compared, 0 where resonance_sets fails.
    """
    try:
        full = resonance_sets(kind, b, sigma, WINDOW)
    except (ArithmeticError, ValueError, WindowTooCoarseError):
        return 0
    compared = 0
    for alpha in classify_strengths(rng, b, sigma, full):
        for tol in MATCH_TOLS:
            local = resonance_sets_near(kind, b, sigma, alpha, tol, WINDOW)
            assert repr(classify(kind, alpha, local, tol)) == repr(classify(kind, alpha, full, tol)), \
                (kind, b, sigma, alpha, tol)
            compared += 1
    return compared


class TestLocalClassify:
    """classify against the sets of the grid cells around a strength, as against the whole window's."""

    def test_local_sets_classify_as_the_full_sets(self):
        rng = random.Random(20261022)
        draws = classify_draws(rng, Kind.PLUS, 12) + classify_draws(rng, Kind.MINUS, 12)
        compared = [check_local_classify(rng, *draw) for draw in draws]
        assert sum(compared) > 1000 and compared.count(0) < 4

    def test_local_sets_hold_the_full_roots_without_outward_index(self):
        model, prime = resonance_sets(Kind.PLUS, B, SIGMA)
        near = resonance_sets_near(Kind.PLUS, B, SIGMA, PRIME_ROOT, 1e-6)
        assert near[1].roots == tuple(replace(r, index=None) for r in prime.roots
                                      if abs(r.alpha - PRIME_ROOT) < 0.01)
        # the trivial strength keeps its index; the window is the whole window's
        assert near[0].roots == tuple(r for r in model.roots if r.alpha == 0.0)
        assert near[0].window == near[1].window == model.window
        # every cell is solved where a root's copies may chain across cells
        assert resonance_sets_near(Kind.PLUS, B, SIGMA, 0.0, 0.0, tol=0.002)[1].roots == \
            tuple(replace(r, index=None) for r in resonance_sets(Kind.PLUS, B, SIGMA, tol=0.002)[1].roots)


    @pytest.mark.parametrize("alpha, reach", [
        (math.nan, 1e-6), (math.inf, 1e-6), (-math.inf, 1e-6),
        (PRIME_ROOT, -1.0), (PRIME_ROOT, math.nan), (PRIME_ROOT, -math.inf)])
    def test_local_sets_reject_a_non_finite_strength_or_a_negative_reach(self, alpha, reach):
        # no cells lie around a NaN strength or within a negative reach; the
        # sets returned would hold only strength 0
        with pytest.raises(ValueError, match="alpha must be finite and reach >= 0"):
            resonance_sets_near(Kind.PLUS, B, SIGMA, alpha, reach)
        # the root the finder returns, 7.5e-12 from PRIME_ROOT
        assert resonance_sets_near(Kind.PLUS, B, SIGMA, PRIME_ROOT, 0.0)[1].alphas() == [26.86721755389124]


class TestConvergeStudy:
    def test_total_root_drift_decreases(self):
        root = 2.282647521704435
        rows = converge_study(Kind.PLUS, root, B, SIGMA, 1.0, [0.2, 0.1, 0.05, 0.02])
        assert [r.eps for r in rows] == [0.2, 0.1, 0.05, 0.02]
        for r in rows:
            assert r.t_peak >= 0.999
        drifts = [r.alpha_drift for r in rows]
        # observed monotone approach at this configuration
        assert all(a > b for a, b in zip(drifts, drifts[1:]))

    def test_partial_root_converges_to_limit_value(self):
        th = theta(PRIME_ROOT, B, 1.0)
        limit = partial_transmission_limit(th)
        rows = converge_study(Kind.PLUS, PRIME_ROOT, B, SIGMA, 1.0, [0.02, 0.01])
        assert rows[-1].t_peak == pytest.approx(limit, rel=0.02)
        assert rows[-1].t_peak < 0.999
        # two-point linear extrapolation to eps = 0 should do even better
        e1, e2 = rows[0].eps, rows[1].eps
        extrap = (e1 * rows[1].t_peak - e2 * rows[0].t_peak) / (e1 - e2)
        assert extrap == pytest.approx(limit, rel=0.02)

    def test_narrow_crest_reports_its_peak(self):
        # At small eps the crest of the shared-set root is narrower than
        # the default strength resolution (half-width 5.6e-9 at 1e-4);
        # the reported T must be the crest's, not a point on its flank.
        rows = converge_study(Kind.MINUS, PRIME_ROOT, B, SIGMA, 1.0, [1e-3, 3e-4, 1e-4])
        for r in rows:
            assert r.t_peak >= 0.999

    def test_single_entry_study(self):
        rows = converge_study(Kind.PLUS, 2.282647521704435, B, SIGMA, 1.0, [0.1])
        assert len(rows) == 1
        assert isinstance(rows[0], ConvergenceRow)

    def test_validation(self):
        with pytest.raises(ValueError):
            converge_study(Kind.PLUS, 2.28, B, SIGMA, 1.0, [])
        with pytest.raises(ValueError):
            converge_study(Kind.PLUS, 2.28, B, SIGMA, 1.0, [0.1, 0.1])
        with pytest.raises(ValueError):
            converge_study(Kind.PLUS, 2.28, B, SIGMA, 1.0, [0.1, -0.2])
