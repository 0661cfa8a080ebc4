"""The breaking curves of the modified phases and the band endpoint.

The first breaking time is closed form. The second comes from a double-root
condition on the derivative density rho1 of the second modified phase. The
band endpoint sits beside the T2 searches: its cut [iq, alpha], its closed
form in m and the endpoint solver that inverts it in mu.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .specfun import QuadratureSpec, brentq, complete_elliptic_m1, cut_sqrt, quad_path

__all__ = ["PinchPointError", "EndpointRangeError", "EndpointState", "rho1_real_roots",
           "rho1_value", "rho1_slope", "rho1_bump_max",
           "first_breaking_time", "second_breaking_time", "ray_breaking_time",
           "endpoint_ray_breaking_time", "band_cut", "big_s", "big_r", "elliptic_parameter",
           "alpha_from_m", "mu_from_m", "endpoint_mu_floor", "solve_endpoint", "endpoint_residuals"]


class PinchPointError(RuntimeError):
    """The double-root search gives up without a second breaking time at this x.

    Two exits raise it. At x = 0 the two breaking curves pinch together
    (T2(x) -> T1(0)), so rho1 has no root pair just past T1 and no T2
    exists. Close to |x| = L the search window ends before the bump maximum
    turns negative. The window ends at the endpoint solver's floor
    m = 1 - 1e-14, where mu = (L - |x|)/(2t) is ~1.85e-6 q; as T2 -> L/q at
    the edge, mu at T2 falls below that floor for |x| > (1 - 3.7e-6) L. That
    exit is a limit of the endpoint solver, not a proof that T2 is absent.
    """


class EndpointRangeError(ValueError):
    """mu lies outside [endpoint_mu_floor(q), sqrt2 q), where solve_endpoint inverts it."""


# ---------------------------------------------------------------------------
# the second-phase density rho1 and the two breaking curves
# ---------------------------------------------------------------------------

def big_s(z, alpha: complex, q: float):
    """S(z) = sqrt((z - alpha)(z - alpha*) / (z^2 + q^2)) -> 1 at infinity.

    Branched on the straight segments [iq, alpha] and [alpha*, -iq]; on the
    real axis S is positive. z is a point or an array of points.
    """
    return big_r(z, alpha, q) / (z * z + q * q)


def band_cut(alpha: complex, q: float) -> tuple[complex, complex]:
    """(c1, d1): the cut [iq, alpha] is c1 + s d1, from s = -1 at iq to s = 1 at alpha."""
    return 0.5 * (1j * q + alpha), 0.5 * (alpha - 1j * q)


def big_r(z, alpha: complex, q: float):
    """R(z) = sqrt((z-iq)(z-alpha)(z+iq)(z-alpha*)) ~ z^2 at infinity.

    Cut along [iq, alpha] and [alpha*, -iq]: the product of the two cut_sqrt
    factors whose cuts are exactly those segments. z is a point or an array.
    """
    c1, d1 = band_cut(alpha, q)
    return cut_sqrt(z, c1, d1) * cut_sqrt(z, c1.conjugate(), d1.conjugate())


def rho1_value(lam: float, alpha: complex, xi0: float, t: float, L: float, q: float) -> float:
    """rho1 on the negative real axis with the real-axis branch values.

    rho1 = 4 t S(lam)(lam - xi0) + 4 L lam / nu(lam). On the real axis
    S = |lam - alpha| / sqrt(lam^2 + q^2) > 0 and nu = sign(lam) sqrt(lam^2 + q^2),
    so both terms share the denominator sqrt(lam^2 + q^2).
    """
    return (4.0 * t * abs(lam - alpha) * (lam - xi0) + 4.0 * L * abs(lam)) / math.hypot(lam, q)


def rho1_slope(lam: float, alpha: complex, xi0: float, t: float, L: float, q: float) -> float:
    """d rho1 / d lam on the real axis, from the same branch values as rho1_value.

    With D = sqrt(lam^2 + q^2) and N = 4 t |lam - alpha| (lam - xi0) + 4 L |lam|,
    rho1 = N / D and rho1' = (N' - N lam / D^2) / D.
    """
    dist = abs(lam - alpha)
    d2 = lam * lam + q * q
    num = 4.0 * t * dist * (lam - xi0) + 4.0 * L * abs(lam)
    dnum = (4.0 * t * ((lam - alpha.real) * (lam - xi0) / dist + dist)
            + math.copysign(4.0 * L, lam))
    return (dnum - num * lam / d2) / math.sqrt(d2)


def _rho1_window(xi0: float, t: float, L: float, q: float) -> tuple[float, float]:
    # the stretch of lam < 0 that holds both negative roots of rho1
    return -(2.0 * L / t + 10.0 * q + 2.0 * abs(xi0)), -1e-9 * q


def rho1_bump_max(alpha: complex, xi0: float, t: float, L: float, q: float
                  ) -> tuple[float, float]:
    """(value, lam_star): the maximum of rho1 over its negative-axis window.

    rho1 is negative at both window ends with at most one interior bump, so
    the sign of the value counts the negative roots: two, one double, none.
    lam_star is the root of rho1_slope when the slope falls from positive to
    negative across the window, else the window end that the slope's one
    sign points to.
    """
    lam_lo, lam_hi = _rho1_window(xi0, t, L, q)

    def slope(lam: float) -> float:
        return rho1_slope(lam, alpha, xi0, t, L, q)

    slope_lo, slope_hi = slope(lam_lo), slope(lam_hi)
    if slope_lo > 0 > slope_hi:
        lam_star = brentq(slope, lam_lo, lam_hi, xtol=1e-13 * q)
    else:
        lam_star = lam_hi if slope_hi >= 0 else lam_lo
    return rho1_value(lam_star, alpha, xi0, t, L, q), lam_star


def rho1_real_roots(alpha: complex, xi0: float, t: float, L: float, q: float,
                    right: bool = True) -> list[float]:
    """Real zeros of rho1 on lambda < 0: two simple roots, one double, or none.

    The root count follows the sign of rho1_bump_max. A double root
    (|max| < 1e-9 L) is reported twice. With right=False the right
    simple root is not solved for, and two simple roots come back as the
    left one alone.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    lam_lo, lam_hi = _rho1_window(xi0, t, L, q)
    f = lambda lam: rho1_value(lam, alpha, xi0, t, L, q)
    f_star, lam_star = rho1_bump_max(alpha, xi0, t, L, q)
    if abs(f_star) < 1e-9 * L:
        return [lam_star, lam_star]
    if f_star < 0:
        return []
    left = brentq(f, lam_lo, lam_star, xtol=1e-14 * q)
    if not right:
        return [left]
    return [left, brentq(f, lam_star, lam_hi, xtol=1e-14 * q)]


def first_breaking_time(x, p):
    """T1(x) = (L - |x|) / (2 sqrt2 q) for |x| < L, at a point or at every point of an array."""
    ax = abs(x)
    if not ((ax < p.L).all() if isinstance(ax, np.ndarray) else ax < p.L):
        raise ValueError("first breaking time is defined only inside the support |x| < L")
    return (p.L - ax) / (2.0 * math.sqrt(2.0) * p.q)


# Taylor coefficients of A(m) = ((2-m)E - 2(1-m)K)/(m^2 E) at m = 0, from the
# hypergeometric series of K and E; the terms left out add < 1e-17 at m = 0.03
_A_TAYLOR = (3 / 8, 3 / 16, 111 / 1024, 141 / 2048, 1533 / 32768, 2193 / 65536,
             836103 / 33554432, 1286193 / 67108864, 16254219 / 1073741824,
             26249379 / 2147483648)


def _endpoint(m1: float, q: float) -> tuple[complex, float]:
    """(alpha, mu) at the complementary parameter m1 = 1 - m, without cancellation.

    alpha = q (sqrt(4A - (1+mA)^2) + i m A) with A = ((2-m)E - 2(1-m)K)/(m^2 E),
    and mu = (2 a^2 - b^2 + q^2) / (2 a) from the moment relation, alpha = a + ib.
    Near m = 1 the radicand and q^2 - b^2 both vanish like m1; they are
    written as m1 times factors that do not cancel, through
    D = (A - 1)/m1 = ((3 - m1)E - 2K)/(m^2 E):
      4A - (1+mA)^2 = m1 (A - m1 D^2/(1 + sqrt A)^2)(2 sqrt A + 1 + mA),
      q^2 - b^2     = q^2 m1 (1 - D + m1 D)(1 + mA).
    """
    m = 1.0 - m1
    if m < 0.03:
        # near its removable singularity at m = 0 A's closed form cancels like 1e-16 / m^2
        A = 0.0
        for c in reversed(_A_TAYLOR):
            A = A * m + c
        D = (A - 1.0) / m1
    else:
        K, E = complete_elliptic_m1(m1)
        D = ((3.0 - m1) * E - 2.0 * K) / (m * m * E)
        A = 1.0 + m1 * D
    s_a = math.sqrt(A)
    rad = m1 * (A - m1 * D * D / (1.0 + s_a) ** 2) * (2.0 * s_a + 1.0 + m * A)
    if rad < -1e-12:
        raise ValueError(f"negative radicand {rad} in the endpoint formula")
    a = q * math.sqrt(max(rad, 0.0))
    b2_gap = q * q * m1 * (1.0 - D + m1 * D) * (1.0 + m * A)
    return complex(a, q * m * A), (2.0 * a * a + b2_gap) / (2.0 * a)


# the m bracket that _v_from_mu inverts mu on, in v = -log(1 - m); mu falls with m
_M_BRACKET = (1e-14, 1.0 - 1e-14)


def _v_from_mu(mu: float, q: float) -> float:
    """v = -log(1 - m) at mu by brentq on _endpoint(exp(-v)): v resolves m near 1."""
    if not (0 < mu < math.sqrt(2.0) * q):
        raise EndpointRangeError(f"mu = {mu} outside the oscillatory window (0, sqrt2 q)")
    v_lo, v_hi = (-math.log1p(-m) for m in _M_BRACKET)
    f = lambda v: _endpoint(math.exp(-v), q)[1] - mu
    f_lo, f_hi = f(v_lo), f(v_hi)
    if f_lo * f_hi > 0:
        raise EndpointRangeError(f"no sign change for mu = {mu}: [{f_lo}, {f_hi}]")
    return brentq(f, v_lo, v_hi, xtol=1e-15, rtol=8.9e-16)


@dataclass(frozen=True)
class EndpointState:
    """Solved band endpoint at one value of the self-similar variable.

    The residuals |F_M| and |F_G| of the endpoint system are lazy: they are
    evaluated at the reference point t = 1 on the ray of constant mu (so
    x - L = -2 mu) the first time either is read, once per state.
    """

    mu: float
    m: float
    alpha: complex
    q: float

    @functools.cached_property
    def _residuals(self) -> tuple[float, float]:
        f_m, f_g = endpoint_residuals(self.alpha, -2.0 * self.mu, 1.0, self.q)
        return abs(f_m), abs(f_g)

    @property
    def res_moment(self) -> float:
        """|F_M|, the moment residual at t = 1."""
        return self._residuals[0]

    @property
    def res_gap(self) -> float:
        """|F_G|, the gap residual at t = 1."""
        return self._residuals[1]


def elliptic_parameter(alpha: complex, q: float) -> float:
    """m = 1 - |alpha - iq|^2 / |alpha + iq|^2, in [0, 1] for alpha in C+."""
    return 1.0 - abs(alpha - 1j * q) ** 2 / abs(alpha + 1j * q) ** 2


def alpha_from_m(m: float, q: float) -> complex:
    """Band endpoint alpha = q (sqrt(4A - (1+mA)^2) + i m A) from the parameter m."""
    if not (0 < m < 1):
        raise ValueError("m must lie in (0, 1)")
    return _endpoint(1.0 - m, q)[0]


def mu_from_m(m: float, q: float) -> float:
    """Self-similar variable produced by the endpoint at parameter m.

    From the moment relation: mu = (2 a^2 - b^2 + q^2) / (2 a) with
    alpha = a + ib.
    """
    if not (0 < m < 1):
        raise ValueError("m must lie in (0, 1)")
    return _endpoint(1.0 - m, q)[1]


def endpoint_mu_floor(q: float) -> float:
    """Smallest mu that solve_endpoint inverts, mu(1 - 1e-14) ~ 1.85e-6 q.

    Below it the root m lies past the top of the m bracket, and
    solve_endpoint raises EndpointRangeError.
    """
    return mu_from_m(_M_BRACKET[1], q)


def solve_endpoint(mu: float, q: float) -> EndpointState:
    """Invert mu in v = -log(1 - m) and package the endpoint alpha(m).

    No quadrature runs here: the residuals of the moment and gap functions
    at the reference point t = 1 are computed when the returned state's
    res_moment or res_gap is first read.
    """
    m1 = math.exp(-_v_from_mu(mu, q))
    return EndpointState(mu=mu, m=1.0 - m1, alpha=_endpoint(m1, q)[0], q=q)


def endpoint_residuals(alpha: complex, x_minus_l: float, t: float, q: float
                       ) -> tuple[complex, complex]:
    """Moment and gap functions (F_M, F_G) at a trial endpoint.

    F_M is the closed quadratic form; F_G integrates S(lam) times the linear
    factor along the straight segment from alpha* to alpha.
    """
    a = complex(alpha)
    ac = a.conjugate()
    f_m = t / 4.0 * (3 * a * a + 2 * a * ac + 3 * ac * ac + 4 * q * q) \
        + x_minus_l / 2.0 * (a + ac)
    if abs(a.imag) < 1e-14 * q:
        # degenerate real endpoint: S integrand collapses, integral vanishes
        return f_m, 0.0 + 0.0j

    def integrand(lam: np.ndarray) -> np.ndarray:
        return big_s(lam, a, q) * (t * (2 * lam + a + ac) + x_minus_l)

    f_g = quad_path(integrand, [ac, a], QuadratureSpec(target_abs_tol=1e-12))
    return f_m, f_g


def _double_root(bump_max, lo: float, hi: float, xtol: float, L: float, q: float,
                 tol: float, where: str) -> float:
    """t of rho1's double root: brentq drives bump_max(s)[0] to zero on [lo, hi].

    bump_max(s) is (value, lam_star, alpha, xi0, t). RuntimeError unless
    |rho1| <= tol L and |rho1'| <= tol L/q at the double root.
    """
    def gap(s: float) -> float:
        # rho1's terms are O(4L): a bump maximum within a few ulps of them is
        # a root, and brentq stops there instead of stepping to confirm it
        g = bump_max(s)[0]
        return 0.0 if abs(g) <= 4e-15 * L else g

    _, lam_star, alpha, xi0, t = bump_max(brentq(gap, lo, hi, xtol=xtol, rtol=8.9e-16))
    g_res = rho1_value(lam_star, alpha, xi0, t, L, q)
    dres = rho1_slope(lam_star, alpha, xi0, t, L, q)
    if abs(g_res) > tol * L or abs(dres) > tol * L / q:
        raise RuntimeError(
            f"double-root residuals too large at {where}: |rho1| = {abs(g_res):.2e}, "
            f"|rho1'| = {abs(dres):.2e}")
    return t


# w = (log m1)^2 of the search's start t = 1.0001 T1(x), where mu = (L - |x|)/(2t)
# is sqrt2 q / 1.0001 for every x, and m depends on mu/q only (mpmath, 50 digits)
_W_START = 0.001422189960133937


def second_breaking_time(x: float, p, tol: float = 1e-8) -> float:
    """The time at which the two negative roots of rho1 coalesce.

    The search runs in the complementary elliptic parameter m1 = 1 - m of
    the endpoint, through w = (log m1)^2. A trial w gives alpha and
    mu = (L - |x|)/(2t) in closed form, hence t, and then the bump maximum
    of rho1, which brentq drives to zero in w. The search starts at
    t = 1.0001 T1(x), whose w is the same for every x and q (_W_START), so
    no mu is inverted. The bump maximum is close to linear in w: near the
    pinch both w and T2 - T1 go like m^2. Returns
    T2(x) > T1(x); at the reported double root |rho1| <= tol L and
    |rho1'| <= tol L/q. Raises PinchPointError at x = 0, where no bracket
    for T2 exists, and when the bump maximum is still positive where the
    window ends: the bracket grows in steps of 10, 20, 40, ... in w up to
    the endpoint solver's floor m = 1 - 1e-14.
    """
    x = abs(x)
    first_breaking_time(x, p)  # rejects |x| >= L
    q, L = p.q, p.L

    @functools.cache
    def bump_max(w: float):
        # (value, lam_star, alpha, xi0, t) at w = (log m1)^2; brentq
        # re-evaluates the bracket ends, and the closing call repeats its last point
        alpha, mu = _endpoint(math.exp(-math.sqrt(w)), q)
        t = (L - x) / (2.0 * mu)
        xi0 = mu - alpha.real
        return (*rho1_bump_max(alpha, xi0, t, L, q), alpha, xi0, t)

    g_lo = bump_max(_W_START)[0]
    if g_lo <= 0:
        raise PinchPointError(f"no root pair just past T1(x) at x = {x}; bump max {g_lo}")
    w_floor = math.log(1.0 - _M_BRACKET[1]) ** 2
    w_hi, step = _W_START, 10.0
    while True:
        w_prev, w_hi = w_hi, min(w_hi + step, w_floor)
        step *= 2.0
        if bump_max(w_hi)[0] < 0:
            break
        if w_hi >= w_floor:
            raise PinchPointError(f"double-root search window exhausted at x = {x}")
    return _double_root(bump_max, w_prev, w_hi, 1e-12, L, q, tol, f"x = {x}")


def ray_breaking_time(mu: float, p) -> float:
    """T2 on the ray of constant mu = (L - |x|) / (2t) through (L, 0).

    The endpoint depends only on mu, so along the ray only t moves in rho1.
    The search in t runs on [1e-3 L/q, min(L/q, L/(2 mu))]: the ray is below
    T2 at its lower end, and past it at the upper, since T2 < L/q and the
    ray meets x = 0, where T2(0) = T1(0) < L/(2 mu), at t = L/(2 mu).
    """
    return endpoint_ray_breaking_time(solve_endpoint(mu, p.q), p.L)


def endpoint_ray_breaking_time(state: EndpointState, L: float) -> float:
    """ray_breaking_time on the ray of a solved endpoint's mu, with no mu inverted."""
    mu, alpha, q = state.mu, state.alpha, state.q
    xi0 = mu - alpha.real
    bump_max = functools.cache(lambda t: (*rho1_bump_max(alpha, xi0, t, L, q), alpha, xi0, t))
    t_unit = L / q
    return _double_root(bump_max, 1e-3 * t_unit, min(t_unit, L / (2.0 * mu)), 1e-14 * t_unit,
                        L, q, 1e-8, f"mu = {mu}")
