"""The local NLS residual of the leading-order wave forms.

Each region's wave form should satisfy the equation the solver integrates,
i eps psi_t + (eps^2/2) psi_xx + |psi|^2 psi = 0, up to a residual that
shrinks with eps. The check needs no reference solver.
"""

import pytest

from sqnls.field import Region, classify, psi_asymptotic
from sqnls.genus0 import omega_phase, psi_asy_g0
from sqnls.scattering import BarrierParams

EPS = (0.05, 0.025, 0.0125)
# the stencil's step in units of eps: the fast wavelength is ~eps, 2 pi eps/q^2
# in t and ~2 pi eps/q in x, so k h <= 0.02 q^2 and (k h)^4 / 30 <= 6e-9 q^8
H_PER_EPS = 0.02


def nls_residual(psi, x: float, t: float, eps: float) -> complex:
    """i eps psi_t + (eps^2/2) psi_xx + |psi|^2 psi at (x, t), psi a function of (x, t).

    Five-point central differences at h = 0.02 eps, with the centre value
    shared by psi_xx and the cubic term: nine evaluations of psi. An error
    delta in psi grows by (eps^2/2) (64/12) / h^2 + eps (18/12) / h, that is
    by about 6,750: a 1e-10 quadrature error to ~7e-7, and rounding of a
    wave form of modulus q, ~1e-14 q, to ~1e-10 q.
    """
    h = H_PER_EPS * eps
    c = psi(x, t)
    xm2, xm1, xp1, xp2 = (psi(x + k * h, t) for k in (-2, -1, 1, 2))
    tm2, tm1, tp1, tp2 = (psi(x, t + k * h) for k in (-2, -1, 1, 2))
    psi_t = (tm2 - 8.0 * tm1 + 8.0 * tp1 - tp2) / (12.0 * h)
    psi_xx = (-xm2 + 16.0 * xm1 - 30.0 * c + 16.0 * xp1 - xp2) / (12.0 * h * h)
    return 1j * eps * psi_t + 0.5 * eps * eps * psi_xx + abs(c) ** 2 * c


@pytest.mark.parametrize("q, L", [(1.0, 1.0), (2.0, 1.0)])
@pytest.mark.parametrize("fx, ft", [(0.3, 0.1), (-0.5, 0.05), (0.0, 0.3)])
def test_s1_residual_over_eps_agrees_across_eps(q, L, fx, ft):
    # psi = q exp(i (q^2 t / eps + omega)) gives r / eps = psi (-omega_t + eps b)
    # with b = (i omega_xx - omega_x^2) / 2 exactly, so by the reverse triangle
    # inequality |r| / eps moves by at most |b| (eps_max - eps_min) q over EPS,
    # and tends to q |omega_t|. The stencil adds to r / eps at most h^4 / 30 of
    # psi's fifth t-derivative, q (q^2/eps + |omega_t|)^5, and the rounding
    # floor of nls_residual, 1e-10 q, over eps; the x stencil's h^4 / 90 of
    # psi's slow sixth x-derivative stays below 1e-14 q.
    x, t = fx * L, ft * L / q
    p = BarrierParams(q, L, 0.1)
    d = 1e-4 * L
    w = [omega_phase(x + k * d, t, p) for k in (-1, 0, 1)]
    w_t = (omega_phase(x, t + d / q, p) - omega_phase(x, t - d / q, p)) / (2.0 * d / q)
    w_x, w_xx = (w[2] - w[0]) / (2.0 * d), (w[2] - 2.0 * w[1] + w[0]) / (d * d)
    b = abs(1j * w_xx - w_x * w_x) / 2.0

    def stencil_error(eps: float) -> float:
        h, k = H_PER_EPS * eps, q * q / eps + abs(w_t)
        return h ** 4 / 30.0 * q * k ** 5 + 1e-10 * q / eps

    scaled = []
    for eps in EPS:
        pe = BarrierParams(q, L, eps)
        scaled.append(abs(nls_residual(lambda xx, tt: psi_asy_g0(xx, tt, pe), x, t, eps)) / eps)
    # each stencil error grows as eps falls, so 2 stencil_error(eps_min) bounds any two
    assert max(scaled) - min(scaled) <= q * b * (EPS[0] - EPS[-1]) + 2.0 * stencil_error(EPS[-1])
    assert abs(scaled[-1] - q * abs(w_t)) <= q * b * EPS[-1] + stencil_error(EPS[-1])


S2 = Region("S2")
S2_PATCHES = {"early": ((0.70, 0.75, 0.80), (0.16, 0.17, 0.18)),
              "late": ((0.30, 0.35, 0.40, 0.45), (0.33, 0.36))}


@pytest.mark.parametrize("patch", S2_PATCHES)
def test_s2_residual_falls_with_eps(patch):
    # without the carrier -exp(i eta / eps) the residual is O(1) and does not shrink
    xs, ts = S2_PATCHES[patch]
    q = 1.0
    assert all(classify(x, t, BarrierParams(q, 1.0, 0.05)).label == "S2" for x in xs for t in ts)
    worst = []
    for eps in EPS:
        p = BarrierParams(q, 1.0, eps)
        psi = lambda xx, tt: psi_asymptotic(xx, tt, p, S2)
        worst.append(max(abs(nls_residual(psi, x, t, eps)) for x in xs for t in ts) / q ** 3)
    assert worst[0] > worst[1] > worst[2], worst
