"""Post-break (oscillatory) asymptotics: periods, modulation constants, theta form.

The band endpoint alpha, a function of mu = -(x-L)/(2t) alone, comes from
phase_geometry's endpoint solver, whose names this module re-exports. Every
modulation constant is an Abelian integral over the band cut [iq, alpha]
(closed-form boundary values), the segment alpha* -> alpha or the ray
iq -> i inf, and each contour takes one pass.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .phase_geometry import (EndpointState, alpha_from_m, band_cut, big_r, elliptic_parameter,
                             endpoint_mu_floor, endpoint_residuals, mu_from_m, rho1_real_roots,
                             solve_endpoint)
from .scattering import BarrierParams, chi_batch
from .specfun import (QuadratureSpec, complete_elliptic, cut_sqrt, cut_sqrt_boundary, quad_path,
                      quad_ray_to_inf, segment_distance, theta_sum)

__all__ = ["RealityError", "EndpointState", "ModulationParams", "elliptic_parameter",
           "alpha_from_m", "mu_from_m", "endpoint_mu_floor", "solve_endpoint",
           "endpoint_residuals", "char_speed", "period_integrals", "abel_map",
           "modulation_constants", "psi_asy_g1", "envelope_defect"]

class RealityError(RuntimeError):
    """A period or modulation constant that must be real came out complex.

    Raised when the imaginary part exceeds the relative tolerance of its
    check, which points at a broken branch or path convention upstream.
    `value` is the offending complex number.
    """

    def __init__(self, message: str, value: complex):
        super().__init__(message)
        self.value = value


@dataclass(frozen=True)
class ModulationParams:
    """Slowly varying constants entering the theta-function wave form."""

    Omega: float
    eta: float
    H: float
    A_inf: complex
    T0: float
    Y0: float
    c_nu: complex
    c_tau: complex
    tau1_b_period: float
    reality_defect: float = 0.0  # worst |Im| discarded when storing the reals

    def __post_init__(self):
        if self.H >= 0:
            raise ValueError("the b-period H must be negative")


def char_speed(alpha: complex, q: float) -> complex:
    """Characteristic speed of the moving Riemann invariant pair (alpha, iq)."""
    a = complex(alpha)
    ac = a.conjugate()
    if abs(a - 1j * q) < 1e-12 * q:
        raise ZeroDivisionError("speed degenerates at alpha = iq (K(1) diverges)")
    m = elliptic_parameter(a, q)
    if a.imag == 0:
        return -a  # m = 0: the elliptic term carries the factor alpha - alpha* = 0
    K, E = complete_elliptic(m)
    denom = (a - 1j * q) * K + (1j * q - ac) * E
    if abs(denom) < 1e-14 * q:
        raise ZeroDivisionError("vanishing denominator in the speed formula")
    return -0.5 * (a + ac) - (a - ac) * (a - 1j * q) * K / denom


# ---------------------------------------------------------------------------
# cut geometry and boundary-value integrals
# ---------------------------------------------------------------------------

def _cut_integral(g, alpha: complex, q: float, quad: QuadratureSpec) -> np.ndarray:
    """integral over s in (-1, 1) of g(z, R_side) dz along band 1, z = c1 + s d1.

    R_side is the boundary value of R on the plus side, the left of the
    overall -iq -> +iq orientation of the cut system and the right of d1;
    band 2's factor is single-valued there. g takes arrays of n points z and
    boundary values R_side and returns shape (n,) or (n, k); the integral
    then has shape () or (k,), each component to the tolerance of quad.
    Orientation is increasing s (iq -> alpha). Integrands with 1/R blow up
    like an inverse square root at both ends, which the endpoint
    substitution absorbs.
    """
    c1, d1 = band_cut(alpha, q)

    def param_integrand(s: np.ndarray) -> np.ndarray:
        s = s.real
        z = c1 + s * d1
        r_side = cut_sqrt_boundary(s, d1) * cut_sqrt(z, c1.conjugate(), d1.conjugate())
        return g(z, r_side) * d1

    return quad_path(param_integrand, [-1.0, 1.0], quad)


def _b_cycle(num, alpha: complex, q: float, quad: QuadratureSpec) -> complex:
    """b-period of num(z)/R(z) dz as a collapsed two-sided integral over [iq, alpha].

    A loop winding once around the cut equals the jump integral
    2 * int_{iq->alpha} num / R_side with _cut_integral's boundary value.
    """
    return 2.0 * _cut_integral(lambda z, r: num(z) / r, alpha, q, quad)


def seg_integral_inv_r(alpha: complex, q: float, quad: QuadratureSpec) -> complex:
    """integral_{alpha*}^{alpha} dz / R(z) along the straight segment.

    Matches 2i K(m) / |alpha + iq| (elliptic reduction of the endpoint
    Jacobian); period_integrals takes its a-period from it.
    """
    return quad_path(lambda z: 1.0 / big_r(z, alpha, q), [alpha.conjugate(), alpha], quad)


def _normalize(seg_inv_r: complex, b_inv_r: complex) -> tuple[complex, complex, complex]:
    """(H, a_period, c_nu) from int_{alpha*}^{alpha} dz/R and the b-period of dz/R.

    H is returned complex: callers store its real part and report the imaginary one.
    """
    a_period = -2.0 * seg_inv_r  # alpha -> alpha* orientation
    c_nu = 2j * math.pi / a_period
    H_val = c_nu * b_inv_r
    if abs(H_val.imag) > 1e-8 * max(1.0, abs(H_val)):
        raise RealityError(f"b-period came out non-real: {H_val}", H_val)
    if H_val.real > 0:
        raise RuntimeError(f"b-period positive ({H_val.real}); orientation conventions broken")
    return H_val, a_period, c_nu


def period_integrals(alpha: complex, q: float, quad: QuadratureSpec | None = None
                     ) -> tuple[float, complex, complex, complex]:
    """(H, a_period, A_inf, c_nu) of the normalized holomorphic differential.

    a_period is realized as twice the straight segment alpha -> alpha*;
    c_nu = 2 pi i / a_period; H = c_nu * b-cycle; A_inf integrates the
    normalized differential from iq to infinity up the imaginary axis.
    """
    if quad is None:
        quad = QuadratureSpec(target_abs_tol=1e-11)
    if abs(alpha - 1j * q) < 1e-12 * q:
        raise ValueError("alpha = iq: the surface degenerates")
    H_val, a_period, c_nu = _normalize(seg_integral_inv_r(alpha, q, quad),
                                       _b_cycle(lambda z: 1.0 + 0j, alpha, q, quad))
    a_inf = c_nu * quad_ray_to_inf(lambda z: 1.0 / big_r(z, alpha, q), 1j * q, 1j, quad)
    return H_val.real, a_period, a_inf, c_nu


def abel_map(z: complex, alpha: complex, c_nu: complex, q: float,
             quad: QuadratureSpec) -> complex:
    """A(z) = int_{iq}^{z} c_nu / R on a cut-avoiding path.

    Straight segment when it clears both cuts; otherwise a detour through a
    waypoint with large positive real part (the cuts live in Re <= Re alpha).
    Every segment takes the square-root substitution at both ends, so z may
    be a branch point.
    """
    z = complex(z)
    start = 1j * q
    path = [start, z]
    if not _path_clears_cuts(path, alpha, q):
        w = max(alpha.real, z.real) + 2.0 * (q + abs(alpha)) + 0.5j * (q + z.imag)
        path = [start, w, z]
        if not _path_clears_cuts(path, alpha, q):
            raise ValueError(f"no cut-avoiding two-leg path from iq to {z}")
    return c_nu * quad_path(lambda lam: 1.0 / big_r(lam, alpha, q), path, quad)


def _path_clears_cuts(path: list[complex], alpha: complex, q: float) -> bool:
    cuts = [(1j * q, alpha), (alpha.conjugate(), -1j * q)]
    for a0, a1 in zip(path[:-1], path[1:]):
        for b0, b1 in cuts:
            # a leg may start or end on a cut's endpoint (iq, alpha*): the 15 %
            # of the leg next to a shared endpoint is not held to the clearance
            lo, hi = (0.15 if min(abs(p - b0), abs(p - b1)) < 1e-12 else 0.0 for p in (a0, a1))
            if segment_distance(a0 + lo * (a1 - a0), a1 - hi * (a1 - a0), b0, b1) < 0.02 * q:
                return False
    return True


# ---------------------------------------------------------------------------
# the full set of modulation constants
# ---------------------------------------------------------------------------

def _band_pass(a: complex, x_minus_l: float, t: float, xi0: float, xi1: float, q: float,
               quad: QuadratureSpec, chi_quad: QuadratureSpec) -> np.ndarray:
    """Every band integral of modulation_constants, in one pass over band 1.

    The five columns are _cut_integral's, oriented iq -> alpha: the Omega
    loop (R/(z^2+q^2)) (t (2z + a + a*) + x - L), 1/R, num2/R with
    num2 = z (z - Re alpha), and the slope and moment integrals of the p0
    weight j = log(2 (z + iq)/q) - 2 (chi(z, xi1) + chi(z, xi0)), that is
    j / R and (z - Re alpha) j / R along alpha -> iq.
    Band 2, [alpha*, -iq], is band 1's mirror image: at conj z, R and chi
    are conj R(z) and -conj chi(z) (kappa is real on the ray), and its log
    term log(q / (2 (conj z - iq))) is -conj of band 1's. So band 2's p0
    integrals, oriented -iq -> alpha*, are the conjugates of band 1's, and
    each two-band sum is 2 Re of a p0 column.
    """
    ac = a.conjugate()

    def terms(z: np.ndarray, r: np.ndarray) -> np.ndarray:
        loop = (r / (z * z + q * q)) * (t * (2 * z + a + ac) + x_minus_l)
        chi = chi_batch(z, xi1, q, chi_quad) + chi_batch(z, xi0, q, chi_quad)
        j_over_r = (np.log(2.0 * (z + 1j * q) / q) - 2.0 * chi) / r
        z_rel = z - a.real
        # the p0 columns run against increasing s
        return np.stack((loop, 1.0 / r, z * z_rel / r, -j_over_r, -z_rel * j_over_r), axis=1)

    return _cut_integral(terms, a, q, quad)


def modulation_constants(alpha: complex, x: float, t: float, p: BarrierParams) -> ModulationParams:
    """All slow constants of the oscillatory wave form at one (x, t).

    Assumes alpha solves the endpoint system at mu = -(x-L)/(2t). Reality of
    Omega, eta, T0, Y0 and H is enforced to 1e-8 (the p0 slope and Y0 to
    1e-7) and violations raise RealityError, since they indicate a broken
    branch or path convention upstream. The worst imaginary part discarded
    is reported as reality_defect.
    """
    quad = QuadratureSpec(target_abs_tol=1e-10)
    chi_quad = QuadratureSpec(target_abs_tol=1e-11)
    q, L = p.q, p.L
    a = complex(alpha)
    ac = a.conjugate()
    mu = -(x - L) / (2.0 * t)
    xi0 = mu - a.real
    # only the left root is read: the right one is not solved for
    roots = rho1_real_roots(a, xi0, t, L, q, right=False)
    if not roots:
        raise ValueError("rho1 has no real roots here: (x, t) is past the second breaking time")
    xi1 = roots[0]
    defect = 0.0

    def real(name: str, v: complex, tol: float = 1e-8) -> float:
        # the real part of v, once its imaginary part is checked and recorded
        nonlocal defect
        if abs(v.imag) > tol * max(1.0, abs(v)):
            raise RealityError(f"{name} not real: {v}", v)
        defect = max(defect, float(abs(v.imag)))
        return float(v.real)

    # one adaptive pass per contour, each integrand a column; (num2 + c_tau)/R
    # with num2 = z^2 - Re(alpha) z has a zero a-period. The band pass carries
    # band 1's Omega loop, b-periods of 1/R and num2/R, and p0 weights
    band = _band_pass(a, x - L, t, xi0, xi1, q, quad, chi_quad)
    # Omega: real part of the collapsed loop integral around the upper band
    omega = real("gap-jump constant", -2.0 * band[0])

    # the ray iq -> i inf carries rho (eta), 1/R (A_inf) and num2/R - 1 (Y0)
    def ray_terms(z: np.ndarray) -> np.ndarray:
        # rho = (2tz + x - L) - S (t (2z + a + a*) + x - L), 1 - S as (1 - S^2)/(1 + S):
        # the direct form cancels terms of size 2t|z| to O(1/|z|^2), and the ray map amplifies it
        zq = z * z + q * q
        r_val = big_r(z, a, q)
        s_val = r_val / zq
        one_minus_s = (2.0 * a.real * z + q * q - abs(a) ** 2) / (zq * (1.0 + s_val))
        rho = (2.0 * t * z + (x - L)) * one_minus_s - s_val * t * (a + ac)
        inv_r = 1.0 / r_val
        return np.stack((rho, inv_r, z * (z - a.real) * inv_r - 1.0), axis=1)

    ray = quad_ray_to_inf(ray_terms, 1j * q, 1j, quad)
    # eta = -theta0(iq) + 2 int_inf^iq rho, theta0(iq) = 2t (iq)^2 + 2 (x - L) iq
    eta = real("band-jump constant", 2 * t * q * q - 2j * (x - L) * q - 2.0 * ray[0])

    # the segment alpha* -> alpha carries 1/R, (z - Re alpha)/R and num2/R; it
    # and the gap path alpha* -> xi0 -> alpha enclose no cut, so they agree
    def seg_terms(z: np.ndarray) -> np.ndarray:
        z_rel = z - a.real
        return np.stack((np.ones_like(z), z_rel, z * z_rel), axis=1) / big_r(z, a, q)[:, None]

    gap_inv_r, gap_rel, seg_num2 = quad_path(seg_terms, [ac, a], quad)

    H_val, _, c_nu = _normalize(gap_inv_r, 2.0 * band[1])
    c_tau = -seg_num2 / gap_inv_r
    b_num = 2.0 * (band[2] + c_tau * band[1])

    # slopes of the real linear polynomials in the essential singularity of s;
    # expanding the Cauchy integrals of s0, s1 at infinity gives
    # p' = (1/2 pi i) * (oriented weight integral), real since the gap
    # integral of 1/R is imaginary and the band integrals pair up
    p1_slope = real("p1 slope", -1j * omega / (2 * math.pi) * gap_inv_r)
    tau1_b = real("tau1 b-period", p1_slope * b_num)

    # p0: band pieces with the j weight (over both bands, 2 Re of band 1's),
    # gap pieces with the constant -i pi/2
    p0_slope = real("p0 slope", (2.0 * band[3].real - 0.5j * math.pi * gap_inv_r) / (2 * math.pi),
                    1e-7)
    p0_const = (2.0 * band[4].real - 0.5j * math.pi * gap_rel) / (2 * math.pi) + math.pi / 4.0

    # Y0 = p0_const + p0' (iq - int_{iq}^{inf} ((num2 + c_tau)/R - 1)), up the
    # imaginary axis: no cut lies in Re z > 0, Im z > q, since Im alpha < q
    resid = ray[2] + c_tau * ray[1]
    y0 = real("Y0", p0_const + p0_slope * (1j * q - resid), 1e-7)
    # T0 and the tau1 consistency check against -Omega
    t0 = real("T0", p0_slope * b_num)
    return ModulationParams(Omega=omega, eta=eta, H=real("b-period", H_val), A_inf=c_nu * ray[1],
                            T0=t0, Y0=y0, c_nu=c_nu, c_tau=c_tau, tau1_b_period=tau1_b,
                            reality_defect=defect)


def _theta_ratio(two_a: complex, shift: complex, H: float) -> complex:
    """Theta(0) Theta(2A + iT) / (Theta(2A) Theta(iT)) with shift = iT."""
    th0, th_2a, th_num, th_shift = theta_sum(np.array([0.0, two_a, two_a + shift, shift]), H)
    for name, val in (("Theta(2A)", th_2a), ("Theta(iT)", th_shift)):
        if abs(val) < 1e-12:
            raise ZeroDivisionError(
                f"{name} vanished; upstream reality violation (zeros need complex T)")
    return (th0 / th_2a) * (th_num / th_shift)


def psi_asy_g1(x: float, t: float, p: BarrierParams, state: EndpointState,
               mods: ModulationParams) -> complex:
    """Leading-order one-phase wave form from solved endpoint and constants.

    The theta form carries the carrier -exp(i eta/eps) of the genus-1 model
    problem of arXiv:1106.1699, in the convention of Tovbis, Venakides and Zhou
    (CPAM 57, 2004); +exp(i eta/eps) would miss S1 at T1 by ~2q. ValueError
    unless x and t > 0 are finite and state.mu = (L - |x|)/(2t) to a few ulps.
    """
    if not (math.isfinite(x) and 0 < t < math.inf):
        raise ValueError(f"(x, t) = ({x}, {t}): x must be finite, and t finite and > 0")
    mu = (p.L - abs(x)) / (2.0 * t)
    if abs(state.mu - mu) > 4.0 * math.ulp(mu):
        raise ValueError(f"the state is solved at mu = {state.mu}, not at this point's mu = {mu}")
    fast = math.fmod(mods.Omega / p.eps, 2.0 * math.pi)
    ratio = _theta_ratio(2.0 * mods.A_inf, 1j * (mods.T0 - fast), mods.H)
    carrier = -cmath.exp(1j * (mods.eta / p.eps))
    return (p.q - state.alpha.imag) * ratio * cmath.exp(-2j * mods.Y0) * carrier


def envelope_defect(alpha: complex, mods: ModulationParams, q: float) -> float:
    """Relative miss of the largest modulus of psi_asy_g1 from q + Im alpha.

    Over the fast phase T the genus-1 modulus runs over [q - b, q + b],
    b = Im alpha (the trace formula for the branch points iq and alpha;
    Kamchatnov, Phys. Rep. 286 (1997)). The minimum, at T = 0, holds by
    construction; the maximum, at T = pi, only when alpha, H and A_inf agree:
    (q - b) |Theta(0) Theta(2A + i pi) / (Theta(2A) Theta(i pi))| = q + b.
    """
    b = alpha.imag
    ratio = _theta_ratio(2.0 * mods.A_inf, 1j * math.pi, mods.H)
    return abs((q - b) * abs(ratio) - (q + b)) / (q + b)
