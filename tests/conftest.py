import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from bwtunnel.cli import main as cli_main

# Two-decimal reference roots of the limiting equations for b = 3,
# sigma = 1 on the window [-40, 40] (the well-known test configuration).
KNOWN_SIGMA_PLUS = (-18.26, -2.70, 2.28, 35.09)
KNOWN_SIGMA_MINUS = (-11.74, -1.01, 8.77)
KNOWN_SIGMA_PRIME = (-35.82, -11.66, 26.87)
# The mirror arrangement has a fourth nonzero root almost on top of the
# shared-set root near -35.82 (separation ~ 4e-3); on coarse plots the
# two ridges are indistinguishable.
EXTRA_SIGMA_MINUS_ROOT = -35.8248


@pytest.fixture
def run_cli():
    def _run(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(list(argv))
        return code, out.getvalue(), err.getvalue()

    return _run


def mp_slab_product(mp, chain, E):
    """The slab product of the chain's own f64 slabs at energy E, in mpf at the caller's precision.

    A slab at kappa = 0 exactly takes its limit [[1, width], [0, 1]].
    """
    m = mp.eye(2)
    for seg in chain.segments:
        kap2 = mp.mpf(E) - mp.mpf(seg.value)
        kap, w = mp.sqrt(abs(kap2)), mp.mpf(seg.width)
        if kap2 > 0:
            c, s = mp.cos(kap * w), mp.sin(kap * w)
            m = mp.matrix([[c, s / kap], [-kap * s, c]]) * m
        elif kap2 < 0:
            c, s = mp.cosh(kap * w), mp.sinh(kap * w)
            m = mp.matrix([[c, s / kap], [kap * s, c]]) * m
        else:
            m = mp.matrix([[1, w], [0, 1]]) * m
    return m


def mp_slab_uv(mp, chain, k):
    """u, v of the chain's own f64 slabs, by a 60-digit slab product (mpf at 60 digits)."""
    with mp.workdps(60):
        kk = mp.mpf(k)
        m = mp_slab_product(mp, chain, kk * kk)
        return m[0, 0] - m[1, 1], kk * m[0, 1] + m[1, 0] / kk
