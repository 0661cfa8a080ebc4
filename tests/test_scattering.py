import cmath
import math
import sys

import mpmath
import numpy as np
import pytest

from sqnls import scattering
from sqnls.scattering import (
    BarrierParams,
    BranchBoundaryError,
    BranchCut,
    ConnectionOverflowError,
    chi_batch,
    chi_integral,
    connection_coefficient,
    eigenvalue_phase,
    eigenvalues,
    kappa_weight,
    nu_branch,
    nu_imag_cut,
    scattering_data,
)
from sqnls.specfun import (QuadratureSpec, adaptive_gl, cut_sqrt, gl_panels, quad_path,
                           quad_ray_to_inf)

P = BarrierParams(1.0, 1.0, 0.2)


def _scaled_closed_form(y: float, p: BarrierParams) -> complex:
    # exp(-k y) c_k = i sin(k s) / (sin(Phi) Phi') at 50 digits, at the float y:
    # a(iy) = exp(-k y) (q / s) cos(Phi) and b(iy) = -q sin(k s) / s with
    # k = 2L/eps, s = sqrt(q^2 - y^2), Phi = k s - asin(y / q), Phi' = -(k y + 1) / s
    with mpmath.workdps(50):
        y, q, L, eps = (mpmath.mpf(v) for v in (y, p.q, p.L, p.eps))
        k = 2 * L / eps
        s = mpmath.sqrt(q * q - y * y)
        phase = k * s - mpmath.asin(y / q)
        return complex(1j * mpmath.sin(k * s) / (mpmath.sin(phase) * -(k * y + 1) / s))
IMAG_CUT = BranchCut("imaginary_segment")
# symmetric curved cut bulging to the right of the imaginary segment
CURVED = BranchCut("curved_polyline",
                   polyline=(-1j, 0.4 - 0.55j, 0.52 + 0j, 0.4 + 0.55j, 1j))


class TestBarrierParams:
    def test_positivity(self):
        for bad in ((0.0, 1, 0.1), (1, -2, 0.1), (1, 1, 0.0)):
            with pytest.raises(ValueError):
                BarrierParams(*bad)

    def test_birth_value_guard(self):
        eps0 = 4.0 / math.pi  # n = 0 birth value for q = L = 1
        with pytest.raises(ValueError):
            BarrierParams(1.0, 1.0, eps0)
        BarrierParams(1.0, 1.0, eps0 * (1 + 1e-6))  # outside the guard: fine


class TestNuBranch:
    def test_imag_axis_point(self):
        # |nu|^2 = |z^2 + q^2| and Im nu > 0 in C+ fix nu(2i) = i sqrt3
        assert abs(nu_branch(2j, IMAG_CUT, 1.0) - 1j * math.sqrt(3.0)) < 1e-14

    def test_real_axis_values(self):
        assert abs(nu_branch(3.0, IMAG_CUT, 1.0) - math.sqrt(10.0)) < 1e-14
        assert abs(nu_branch(-3.0, IMAG_CUT, 1.0) + math.sqrt(10.0)) < 1e-14

    def test_upper_half_plane_positivity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            z = complex(rng.uniform(-3, 3), rng.uniform(1e-3, 3))
            if abs(z.real) < 1e-2:
                continue
            assert nu_branch(z, IMAG_CUT, 1.0).imag > 0

    def test_cut_flip_region(self):
        # inside the lens between the straight and curved cuts the sign flips
        z = 0.25 + 0.1j
        assert abs(nu_branch(z, CURVED, 1.0) + nu_imag_cut(z, 1.0)) < 1e-14
        # far outside both cuts the branches agree
        z = 2.0 + 1.0j
        assert abs(nu_branch(z, CURVED, 1.0) - nu_imag_cut(z, 1.0)) < 1e-14

    def test_point_on_the_segment_cut_raises(self):
        with pytest.raises(BranchBoundaryError):
            nu_branch(0.5j, IMAG_CUT, 1.0)

    def test_point_on_the_curved_cut_raises(self):
        # a point on a curved cut segment has only one-sided limits
        a, b = 0.52 + 0j, 0.4 + 0.55j
        with pytest.raises(BranchBoundaryError):
            nu_branch(0.5 * (a + b), CURVED, 1.0)

    @pytest.mark.parametrize("y", [-0.3, 0.0, 0.5])
    def test_curved_cut_branch_on_the_imaginary_segment(self, y):
        # the open segment [-iq, iq] is off the curved cut, where the branch
        # is continuous: on the segment and within 1e-13 q of it on either
        # side it equals its limits from both sides
        left, right = (nu_branch(complex(x, y), CURVED, 1.0) for x in (-1e-9, 1e-9))
        assert abs(left - right) < 1e-8
        for x in (0.0, -5e-14, 5e-14):
            assert abs(nu_branch(complex(x, y), CURVED, 1.0) - left) < 1e-8

    def test_asymptotic_normalization(self):
        z = 1e6 * cmath.exp(0.7j)
        assert abs(nu_branch(z, CURVED, 1.0) / z - 1.0) < 1e-9


class TestScatteringData:
    def test_unimodularity_on_real_axis(self):
        rng = np.random.default_rng(0)
        for z in rng.uniform(-5, 5, 1000):
            a, b, _ = scattering_data(float(z), P)
            assert abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) < 1e-12

    def test_b_zeros_at_sine_nodes(self):
        # nu = n pi eps / (2L) makes sin(2 L nu / eps) vanish
        n = 3
        nu_node = n * math.pi * P.eps / (2 * P.L)
        z = cmath.sqrt(nu_node ** 2 - P.q ** 2)  # imaginary for nu < q
        _, b, _ = scattering_data(z, P)
        assert abs(b) < 1e-12

    def test_cut_independence(self):
        # r depends only on even combinations of nu; rebuild it with the
        # curved-cut branch and compare at a point where the branch flips
        z = 0.3 + 0.2j
        nu = nu_branch(z, CURVED, 1.0)
        assert abs(nu + nu_imag_cut(z, 1.0)) < 1e-14
        phi = 2 * P.L * nu / P.eps
        a_alt = (cmath.cos(phi) - 1j * z * cmath.sin(phi) / nu) * cmath.exp(2j * P.L * z / P.eps)
        b_alt = -P.q * cmath.sin(phi) / nu
        a, b, r = scattering_data(z, P)
        assert abs(a - a_alt) < 1e-13 * abs(a)
        assert abs(b_alt / a_alt - r) < 1e-13 * abs(r)

    def test_schwarz_reflection(self):
        # conj(a(conj z)) equals the reflected closed form
        # [nu cos + i z sin]/nu e^{-2iLz/eps}, the (2,2) scattering entry
        rng = np.random.default_rng(1)
        for _ in range(50):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2))
            a_star = scattering_data(z.conjugate(), P)[0].conjugate()
            nu = nu_imag_cut(z, P.q)
            phi = 2 * P.L * nu / P.eps
            direct = (cmath.cos(phi) + 1j * z * cmath.sin(phi) / nu) * cmath.exp(
                -2j * P.L * z / P.eps)
            assert abs(a_star - direct) < 1e-12 * abs(direct)

    def test_b_real_form_on_axis(self):
        for z in (-1.7, -0.4, 0.9, 2.8):
            _, b, _ = scattering_data(z, P)
            assert abs(b.imag) < 1e-14 * max(1.0, abs(b))

    def test_large_phase_form_continuity(self):
        # the trig and exponential-split evaluations agree near the switch
        p_small = BarrierParams(1.0, 1.0, 0.05)
        sides = []
        for im in (0.8, 0.9):  # Im phi = 2 L Im nu / eps straddles 30
            z = 2.0 + 1j * im
            a, b, r = scattering_data(z, p_small)
            nu = nu_imag_cut(z, 1.0)
            phi = 2 * p_small.L * nu / p_small.eps
            sides.append(abs(phi.imag) > 30.0)
            a_trig = (cmath.cos(phi) - 1j * z * cmath.sin(phi) / nu) * cmath.exp(
                2j * p_small.L * z / p_small.eps)
            assert abs(a - a_trig) < 1e-10 * abs(a)
        assert sides == [False, True]


    @pytest.mark.parametrize("delta", [4e-11, 6e-11])
    def test_small_phase_series(self, delta):
        # at z = iq (1 - delta) the phase 2 L nu / eps is 8.9e-5 and 1.1e-4,
        # either side of the switch to the sinc series at 1e-4; both forms
        # stay within 1.2e-12 of the nu -> 0 limit a(iq) = (1 + 2Lq/eps) e^(-2Lq/eps)
        q, L, eps = P.q, P.L, P.eps
        z = 1j * q * (1.0 - delta)
        phi = 2 * L * cmath.sqrt(z * z + q * q) / eps
        assert (abs(phi) < 1e-4) == (delta < 5e-11)
        a = scattering_data(z, P)[0]
        limit = (1.0 + 2 * L * q / eps) * math.exp(-2 * L * q / eps)
        assert abs(a - limit) < 1.2e-12


    @pytest.mark.parametrize("z", [0.3 + 0.2j, 1.5 - 0.4j, 0.2 + 3.0j, -2.0 + 1.5j])
    def test_a_matches_50_digits_in_both_forms(self, z):
        # the trig form at the first two z, where |Im phi| <= 30, the
        # exponential split at the other two
        p = BarrierParams(1.0, 1.0, 0.05)
        with mpmath.workdps(50):
            zz, q, L, eps = mpmath.mpc(z), mpmath.mpf(p.q), mpmath.mpf(p.L), mpmath.mpf(p.eps)
            nu = mpmath.sqrt(zz * zz + q * q)
            phi = 2 * L * nu / eps
            exact = complex((mpmath.cos(phi) - 1j * zz * mpmath.sin(phi) / nu)
                            * mpmath.exp(2j * L * zz / eps))
        assert (abs(complex(phi).imag) > 30.0) == (z.imag > 1.0)
        assert abs(scattering_data(z, p)[0] - exact) < 1e-13 * abs(exact)


class TestEigenvalues:
    def _brute_count(self, p):
        ys = np.linspace(1e-9, p.q * (1 - 1e-12), 400001)
        f = np.array([math.cos(eigenvalue_phase(float(y), p)) for y in ys])
        return int(np.sum(np.abs(np.diff(np.signbit(f)))))

    def test_single_eigenvalue_below_first_birth(self):
        p = BarrierParams(1.0, 1.0, 4.0 / math.pi * 0.999)
        evs = eigenvalues(p)
        assert len(evs) == 1
        assert self._brute_count(p) == 1

    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
    def test_count_matches_density(self, eps):
        p = BarrierParams(1.0, 1.0, eps)
        evs = eigenvalues(p)
        assert abs(len(evs) - 2 * p.L * p.q / (math.pi * eps)) <= 1
        assert len(evs) == self._brute_count(p)

    def test_confinement(self):
        evs = eigenvalues(BarrierParams(1.0, 1.0, 0.05))
        assert all(0.0 < y < 1.0 for y in evs)

    def test_roots_kill_a(self):
        p = BarrierParams(1.0, 1.0, 0.1)
        for y in eigenvalues(p):
            s = math.sqrt(1 - y * y)
            f = s * math.cos(2 * s / p.eps) + y * math.sin(2 * s / p.eps)
            assert abs(f) < 1e-12

    def test_density_ks_distance_decreases(self):
        # empirical CDF vs F(y) = 1 - sqrt(1 - y^2), the integrated density
        dists = []
        for eps in (0.2, 0.1, 0.05):
            evs = eigenvalues(BarrierParams(1.0, 1.0, eps))
            n = len(evs)
            ks = max(max(abs((i + 1) / n - (1 - math.sqrt(1 - y * y))),
                         abs(i / n - (1 - math.sqrt(1 - y * y))))
                     for i, y in enumerate(evs))
            dists.append(ks)
        assert dists[0] > dists[1] > dists[2]


class TestConnectionCoefficients:
    def test_residue_oracle(self):
        evs = eigenvalues(P)
        for y in evs:
            zk = 1j * y
            ck = connection_coefficient(zk, P)
            rad = 0.25 * min([abs(y - o) for o in evs if o != y] + [y, P.q - y])
            poly = [zk + rad * cmath.exp(2j * math.pi * k / 24) for k in range(25)]
            res = quad_path(lambda z: np.array([scattering_data(v, P)[2] for v in z]), poly,
                            QuadratureSpec(1e-11)) / (2j * math.pi)
            assert abs(ck - res) < 1e-8 * max(1.0, abs(ck))

    def test_finite_and_nonzero(self):
        for y in eigenvalues(P):
            ck = connection_coefficient(1j * y, P)
            assert 0 < abs(ck) < math.inf

    def test_step_refinement(self):
        zk = 1j * eigenvalues(P)[0]
        ck = connection_coefficient(zk, P)
        b_val = scattering_data(zk * (1 + 1e-15), P)[1]
        h = 0.5e-6
        a_prime = (scattering_data(zk + h, P)[0] - scattering_data(zk - h, P)[0]) / (2 * h)
        assert abs(b_val / a_prime - ck) < 1e-8 * abs(ck)

    def test_rejects_non_eigenvalue(self):
        with pytest.raises(ValueError):
            connection_coefficient(0.5j, P)

    @pytest.mark.parametrize("q, L, eps", [(1.0, 1.0, 0.05), (1.0, 1.0, 0.02), (2.0, 1.0, 0.05),
                                           (1.0, 2.0, 0.05), (0.5, 1.0, 0.03), (1.0, 1.0, 0.005)])
    def test_every_eigenvalue_matches_the_phase_form(self, q, L, eps):
        # at eps = 0.005 the roots near y = q are steep: |a| there reaches 2e-10
        # of a's terms, and each root must still pass the Newton-step test
        p = BarrierParams(q, L, eps)
        k = 2 * L / eps
        evs = eigenvalues(p)
        assert abs(len(evs) - 2 * q * L / (math.pi * eps)) <= 1
        for y in evs:
            ck = connection_coefficient(1j * y, p)
            assert math.isfinite(abs(ck))
            nu = math.sqrt((q - y) * (q + y))
            slope = -(k * y + 1.0) / nu  # Phi'(y)
            h = 1e-7 * nu
            fd = (eigenvalue_phase(y + h, p) - eigenvalue_phase(y - h, p)) / (2 * h)
            assert abs(fd - slope) < 1e-5 * abs(slope)
            closed = _scaled_closed_form(y, p)
            assert abs(ck * math.exp(-k * y) - closed) < 1e-12 * abs(closed)
            # and the residue of r = b/a, on a circle clear of the other zeros
            rad = 0.25 * min([abs(y - o) for o in evs if o != y] + [y, q - y])
            poly = [1j * y + rad * cmath.exp(2j * math.pi * j / 24) for j in range(25)]
            res = quad_path(lambda z: np.array([scattering_data(v, p)[2] for v in z]), poly,
                            QuadratureSpec(1e-11 * abs(ck))) / (2j * math.pi)
            assert abs(ck - res) < 1e-8 * abs(ck)

    def test_beyond_the_float_range_raises_the_scaled_coefficient(self):
        # at eps = 0.002, c_k = exp(k y) times the scaled closed form of the
        # test above passes the float range at 222 of the 318 eigenvalues; the
        # scaled value is checked at all of them. The closed form holds at the
        # exact zero, and a float y can miss it by half an ulp, which moves
        # Phi by |Phi'| ulp(y)/2: 3.5e-11 at the top eigenvalue, where k nu ~ pi
        q, L, eps = 1.0, 1.0, 0.002
        p = BarrierParams(q, L, eps)
        k = 2 * L / eps
        evs = eigenvalues(p)
        assert len(evs) == 318
        log_max = math.log(sys.float_info.max)
        raised = finite_past_exp = 0
        for y in evs:
            slope = -(k * y + 1.0) / math.sqrt((q - y) * (q + y))  # Phi'(y)
            closed = _scaled_closed_form(y, p)
            tol = 1e-12 + abs(slope) * math.ulp(y)
            if math.log(abs(closed)) + k * y > log_max:
                with pytest.raises(ConnectionOverflowError) as err:
                    connection_coefficient(1j * y, p)
                assert err.value.log_factor == k * y
                assert abs(err.value.scaled - closed) < tol * abs(closed)
                raised += 1
            else:
                ck = connection_coefficient(1j * y, p)
                grow = math.exp(0.5 * k * y)
                assert abs(ck - closed * grow * grow) < tol * abs(closed) * grow * grow
                finite_past_exp += k * y > log_max
        assert raised == 222
        # c_k is returned where exp(k y) alone would overflow
        assert finite_past_exp == 2

    def test_rejects_a_point_off_the_eigenvalue_segment(self):
        y = eigenvalues(P)[0]
        for z in (1e-9 + 1j * y, -1j * y, 1j * (P.q + y)):
            with pytest.raises(ValueError, match="off the eigenvalue segment"):
                connection_coefficient(z, P)


class TestSpectralWeights:
    def test_jump_relation_limit(self):
        z0, xi0 = -2.0, 1.2
        r0 = -1j / (nu_imag_cut(z0, 1.0) + z0)
        target = math.log(1 + abs(r0) ** 2)
        prev = None
        for h in (1e-2, 1e-3, 1e-4):
            jump = chi_integral(z0 + 1j * h, xi0, 1.0) - chi_integral(z0 - 1j * h, xi0, 1.0)
            err = abs(jump - target)
            if prev is not None:
                assert err < prev
            prev = err
        assert prev < 1e-3

    def test_kappa_nonpositive_on_axis(self):
        for s in np.linspace(-6, 6, 31):
            if s == 0:
                continue
            assert kappa_weight(s, P.q) <= 0

    def test_kappa_exactly_real_on_axis(self):
        # chi_batch's real Cauchy kernel drops kappa's imaginary part on the ray
        s = np.concatenate((-np.logspace(-6.0, 8.0, 29), [0.0], np.logspace(-6.0, 8.0, 29)))
        for q in (0.5, 1.0, 2.0):
            assert np.all(kappa_weight(s, q).imag == 0.0)

    def test_delta_bounded_near_xi0(self):
        xi0, xi1 = 1.2, -1.5
        vals = []
        quad = QuadratureSpec(1e-10)
        for s in (0.1, 0.01, 0.001):
            z = xi0 + s * cmath.exp(2.2j)
            delta = cmath.exp(chi_integral(z, xi0, P.q, quad) + chi_integral(z, xi1, P.q, quad))
            vals.append(abs(delta))
        assert max(vals) < 5.0


def _grid(q: float) -> np.ndarray:
    # an even count of real parts keeps every point off the cut [-iq, iq]
    return q * (np.linspace(-3.1, 3.1, 24)[:, None]
                + 1j * np.linspace(-2.9, 2.9, 23)[None, :]).ravel()


class TestImagCutForms:
    # the cmath forms these functions had before they shared specfun.cut_sqrt
    Q = 1.3

    @staticmethod
    def _nu_cmath(z: complex, q: float) -> complex:
        return z * cmath.sqrt(1.0 + (q / z) ** 2)

    def test_nu_matches_cmath_form(self):
        z = _grid(self.Q)
        arr = nu_imag_cut(z, self.Q)
        for zj, aj in zip(z, arr):
            ref = self._nu_cmath(complex(zj), self.Q)
            assert abs(aj - ref) <= 1e-15 * abs(ref)
            assert abs(nu_imag_cut(complex(zj), self.Q) - ref) <= 1e-15 * abs(ref)
        with pytest.raises(BranchBoundaryError):
            nu_imag_cut(np.array([1.0, 0.0]), self.Q)

    def test_kappa_matches_cmath_form(self):
        # on the real axis, where the tails are small, against log1p
        q = self.Q
        s = np.concatenate((np.linspace(-40.0, -0.1, 23), np.linspace(0.1, 40.0, 23)))
        for sj, kj in zip(s, kappa_weight(s, q)):
            ref = _kappa_real(sj, q)
            assert abs(kj.imag) == 0.0
            assert abs(kj.real - ref) <= 1e-15 * abs(ref)
        assert kappa_weight(0.0, q) == -math.log(2.0) / (2 * math.pi)

    def test_kappa_small_w_keeps_relative_precision(self):
        # far out on the ray w = q^2 / (nu + s)^2 is small, where log(1 + w)
        # loses w's relative precision if 1 + w is rounded first
        q = self.Q
        mod = 10.0 ** np.linspace(3.0, 8.0, 21)
        s = np.concatenate((-mod, mod))
        for sj, kj in zip(s, kappa_weight(s, q)):
            w = q * q / (self._nu_cmath(complex(sj), q) + sj) ** 2
            assert abs(w) <= 1e-6
            ref = -(w - w * w / 2 + w ** 3 / 3) / (2 * math.pi)
            assert abs(kj - ref) <= 1e-15 * abs(ref)


def _kappa_continuation(s, q: float):
    # kappa_weight's complex continuation on its own, as it was before real
    # input took the real form: cut_sqrt's nu, then log(1 + w) summed from w
    nu = cut_sqrt(s, 0.0, 1j * q)
    w = q * q / (nu + s) ** 2
    wr, wi = w.real, w.imag
    log_1pw = 0.5 * np.log1p(wr * (wr + 2.0) + wi * wi) + 1j * np.arctan2(wi, 1.0 + wr)
    return -log_1pw[()] / (2 * math.pi)


def _ray_nodes(a: float) -> np.ndarray:
    # the 15-point nodes of 64 equal panels of chi_batch's ray map
    # s = a - u / (1 - u), from s = a to s ~ -1e4
    lo = np.linspace(0.0, 1.0, 65)[:-1]
    u = gl_panels(lo, lo + 1.0 / 64)[0].ravel()
    return a - u / (1.0 - u)


class TestKappaRealPath:
    # (s, kappa(s)) at q = 2 from 40-digit arithmetic: a spread from -1e8 to
    # 0.45 with the kink at s = 0, and the four of 8,000 points on [-1e8, 3.2]
    # where the real form is furthest from the exact value (3.7-3.9 ulp)
    REF_Q2 = [
        (-100000000.0, -1.5915494309189529598e-17),
        (-150000.0, -7.0735530255205090314e-12),
        (-37.5, -0.00011297606388597955592),
        (-2.886, -0.014841716437642847371),
        (-1.755, -0.029696675853900189216),
        (-1.035, -0.050130931881835084992),
        (-0.3, -0.088303835987204214818),
        (-1e-06, -0.11031772049887414512),
        (-1.9724227361148536e-08, -0.11031779850672166284),
        (0.0, -0.1103178000763257967),
        (3.981071705534977e-07, -0.11031776839596691278),
        (0.45, -0.078733352217200110202),
    ]

    def test_real_input_gives_real_dtype(self):
        assert kappa_weight(np.array([-2.0, 0.0, 0.5]), 1.0).dtype == np.float64
        assert isinstance(kappa_weight(-0.7, 1.0), np.float64)
        assert isinstance(kappa_weight(0, 1.0), np.float64)
        with pytest.raises(TypeError):
            kappa_weight(np.array([-2.0, 0.5]) + 0j, 1.0)

    def test_real_form_is_the_continuation_on_the_ray(self):
        # both forms round several times; on these 6,882 nodes from -1e8 to
        # 0.45 they part by at most 7 ulp, and the real form is the closer
        # one to the exact values (at most 3.9 ulp from them, the
        # continuation 4.9)
        s = np.concatenate((-np.logspace(-12.0, 8.0, 4001), [0.0],
                            _ray_nodes(0.0), _ray_nodes(-3.0), _ray_nodes(0.4544)))
        for q in (0.5, 1.0, 2.0):
            real, cont = kappa_weight(s, q), _kappa_continuation(s + 0j, q)
            assert np.all(cont.imag == 0.0)
            assert np.all(np.abs(real - cont.real) <= 8 * np.spacing(np.abs(cont.real)))

    def test_real_form_against_40_digits(self):
        s, ref = np.array(self.REF_Q2).T
        got = kappa_weight(s, 2.0)
        assert np.all(np.abs(got - ref) <= 4 * np.spacing(np.abs(ref)))

    def test_kink_value_is_exact(self):
        for q in (0.5, 1.0, 1.3, 2.0):
            assert kappa_weight(0.0, q) == -math.log(2.0) / (2 * math.pi)
            assert kappa_weight(np.zeros(3), q).tolist() == [-math.log(2.0) / (2 * math.pi)] * 3

    def test_complex_input_raises(self):
        # kappa is taken on the real axis only: complex input, even a real
        # number in complex dtype, raises
        for z in (_grid(1.3), -2.5 + 0j, np.array([0.5, 1.0], dtype=complex)):
            with pytest.raises(TypeError):
                kappa_weight(z, 1.3)


def _kappa_real(s: float, q: float) -> float:
    # kappa on the real axis from |nu + s| = |s| + sqrt(s^2 + q^2)
    return -math.log1p(q * q / (abs(s) + math.hypot(s, q)) ** 2) / (2 * math.pi)


def _chi_reference(z: complex, a: float, q: float) -> complex:
    # i * int_{-inf}^{a} kappa(s) (s - conj z) / |s - z|^2 ds, real and
    # imaginary parts by scipy's adaptive quad
    from scipy.integrate import quad

    x, y = z.real, z.imag
    parts = []
    for num in (lambda s: s - x, lambda s: y):
        g = lambda s: _kappa_real(s, q) * num(s) / ((s - x) ** 2 + y * y)
        near = [x] if a - 1.0 < x < a else None
        parts.append(quad(g, -math.inf, a - 1.0, epsabs=1e-14, epsrel=1e-14, limit=500)[0]
                     + quad(g, a - 1.0, a, epsabs=1e-14, epsrel=1e-14, limit=500,
                            points=near)[0])
    return 1j * complex(*parts)


def _band_nodes(mu: float, q: float = 1.0) -> tuple[np.ndarray, float]:
    # band 1's nodes, then band 2's (their conjugates), clustered towards both
    # ends of each band as the outer rule's are; at mu = 1.41 the band end
    # alpha sits within 0.1 of xi0
    from sqnls.genus1 import solve_endpoint

    alpha = solve_endpoint(mu, q).alpha
    s = 0.5 * (1.0 - np.cos(np.pi * np.arange(1, 13) / 13))
    z1 = 1j * q + s * (alpha - 1j * q)
    return np.concatenate((z1, z1.conj())), mu - alpha.real


def _chi_node_rule(z: np.ndarray, a: float, q: float, spec: QuadratureSpec):
    # chi_batch's ray rule as a node integrand on its map s = a - u / (1 - u),
    # kappa / (s - z) by complex division at every ray node, and the number of
    # ray nodes it took
    nodes = []
    d = complex(-1.0)

    def f(u: np.ndarray) -> np.ndarray:
        nodes.append(u.size)
        s = a + d * (u / (1.0 - u))
        return kappa_weight(s.real, q)[:, None] / (s[:, None] - z) * (d / (1.0 - u) ** 2)[:, None]

    return (-1j * adaptive_gl(f, 0.0, 1.0, spec.target_abs_tol, spec.max_subdivisions),
            sum(nodes))


def _chi_batch_counted(monkeypatch, z: np.ndarray, a: float, q: float, spec: QuadratureSpec):
    # chi_batch and the number of ray nodes at which it evaluated kappa
    nodes = []

    def counting(s, q):
        nodes.append(np.size(s))
        return kappa_weight(s, q)

    with monkeypatch.context() as m:
        m.setattr(scattering, "kappa_weight", counting)
        return chi_batch(z, a, q, spec), sum(nodes)


class TestChiBatch:
    MU = [0.9, 1.3, 1.4, 1.41]

    @pytest.mark.parametrize("mu", MU)
    def test_band_nodes_match_scipy(self, mu):
        q = 1.0
        z, xi0 = _band_nodes(mu, q)
        for a in (xi0, xi0 - 1.5):
            got = chi_batch(z, a, q)
            ref = np.array([_chi_reference(zj, a, q) for zj in z])
            assert np.max(np.abs(got.real - ref.real)) <= 1e-10
            assert np.max(np.abs(got.imag - ref.imag)) <= 1e-10

    @pytest.mark.parametrize("mu", MU)
    def test_reflection_is_exact(self, mu):
        # kappa is real on the ray, so chi(conj z, a) = -conj chi(z, a) holds
        # to the bit; genus1's band pass takes band 2's chi from band 1's by it
        z, xi0 = _band_nodes(mu)
        z1 = z[:z.size // 2]
        for a in (xi0, xi0 - 1.5):
            assert np.array_equal(chi_batch(z1.conj(), a, 1.0), -chi_batch(z1, a, 1.0).conj())

    @pytest.mark.parametrize("mu", MU)
    def test_real_kernel_matches_node_rule(self, monkeypatch, mu):
        # the real Cauchy sums keep the node rule's panel tree: the same ray
        # nodes, and values within rounding
        z, xi0 = _band_nodes(mu)
        spec = QuadratureSpec(1e-11)
        for a in (xi0, xi0 - 1.5):
            ref, ref_nodes = _chi_node_rule(z, a, 1.0, spec)
            got, got_nodes = _chi_batch_counted(monkeypatch, z, a, 1.0, spec)
            assert np.max(np.abs(got - ref)) <= 1e-14
            assert got_nodes == ref_nodes

    @pytest.mark.parametrize("tol", [1e-11, 1e-14])
    def test_real_kernel_matches_node_rule_at_the_kink(self, monkeypatch, tol):
        # the kink case of test_ray_rule_misses_the_kink_at_zero refines most
        z, a, spec = np.array([0.38 + 0.81j]), 0.4544, QuadratureSpec(tol)
        ref, ref_nodes = _chi_node_rule(z, a, 1.0, spec)
        got, got_nodes = _chi_batch_counted(monkeypatch, z, a, 1.0, spec)
        assert abs(got[0] - ref[0]) <= 1e-14
        assert got_nodes == ref_nodes

    # chi_batch on band 1's nodes (_band_nodes) at two mu, at a = xi0 > 0 and
    # a = xi0 - 1.5 < 0: the number of panels of the ray rule and the values,
    # as they stood when the kernel was first pinned. The s2_field reference
    # figures of the benchmark carry the kink error of these panel trees, so
    # a change of tree must fail here.
    PINNED_TREES = [
        (0.9, 0.0, 13, [
            complex(0.09090564053363218, 0.020348077883350642),
            complex(0.0912133768445808, 0.021714389107713106),
            complex(0.09163999490743524, 0.02396182116638708),
            complex(0.09206595322090687, 0.02702961835781547),
            complex(0.09234734825065193, 0.030805109712550766),
            complex(0.09234504732234304, 0.03510783025698447),
            complex(0.09196291683180757, 0.039686006499956065),
            complex(0.09118546309581352, 0.0442335675706245),
            complex(0.0900992988705681, 0.04842774942390439),
            complex(0.08888476037692396, 0.051975586193290964),
            complex(0.08777567731241886, 0.054650581477351745),
            complex(0.08700003314122803, 0.05630590849465221),
        ]),
        (0.9, -1.5, 1, [
            complex(0.0062956632254282064, 0.010925237655023918),
            complex(0.0061743500517872285, 0.010935624829811492),
            complex(0.0059817073806468, 0.01094715197886342),
            complex(0.005731460084917947, 0.010953080752807383),
            complex(0.005441389267850162, 0.010947217102291192),
            complex(0.005131619797655121, 0.010925848874438392),
            complex(0.004822529004134353, 0.01088886624889886),
            complex(0.004532756642501441, 0.010839788839124693),
            complex(0.004277792132374188, 0.010784851108779357),
            complex(0.004069372439442911, 0.01073158332989834),
            complex(0.003915611555279986, 0.01068735730789749),
            complex(0.0038215730627562815, 0.010658208299428663),
        ]),
        (1.3, 0.0, 15, [
            complex(0.0974017127500834, 0.017190919384520307),
            complex(0.0988388988704431, 0.019521301153360107),
            complex(0.10106157142157372, 0.023563933747857785),
            complex(0.10377009148903037, 0.02951159574622921),
            complex(0.10648433760305942, 0.03752342290755944),
            complex(0.10854520153996146, 0.04758322674591906),
            complex(0.10921947797219436, 0.05932692686726135),
            complex(0.10794607825294134, 0.07193567946856225),
            complex(0.10464836833120743, 0.08422004777235698),
            complex(0.09992391434861164, 0.09491065590198745),
            complex(0.09496372605098415, 0.10300091628827808),
            complex(0.09119975238349344, 0.1079443715019255),
        ]),
        (1.3, -1.5, 1, [
            complex(0.008861257136000437, 0.013388405186830477),
            complex(0.008576677904779444, 0.01353152750666629),
            complex(0.008110505026505274, 0.01373369159405595),
            complex(0.007482668566466689, 0.013947726363292567),
            complex(0.00673126938717605, 0.01412337450111319),
            complex(0.005912424847219873, 0.014221771740647714),
            complex(0.005091714152608202, 0.01422700800220943),
            complex(0.004330788074994163, 0.01414889984218778),
            complex(0.0036763689192383367, 0.014016284390198395),
            complex(0.003156505284364974, 0.013865765641017607),
            complex(0.0027835891530342124, 0.013731770413294259),
            complex(0.002560480421259773, 0.0136406732038046),
        ]),
    ]

    @pytest.mark.parametrize("mu,shift,panels,ref", PINNED_TREES)
    def test_ray_tree_is_pinned(self, monkeypatch, mu, shift, panels, ref):
        # P panels take 45 + 60 (P - 1) ray nodes
        z, xi0 = _band_nodes(mu)
        got, nodes = _chi_batch_counted(monkeypatch, z[:z.size // 2], xi0 + shift, 1.0,
                                        QuadratureSpec(1e-11))
        assert nodes == 45 + 60 * (panels - 1)
        assert np.max(np.abs(got - np.array(ref))) <= 1e-15

    @pytest.mark.parametrize("tol", [1e-11, 1e-14])
    def test_ray_tree_is_pinned_at_the_kink(self, monkeypatch, tol):
        # the kink case of test_ray_rule_misses_the_kink_at_zero stops on 5
        # panels at either tolerance
        got, nodes = _chi_batch_counted(monkeypatch, np.array([0.38 + 0.81j]), 0.4544, 1.0,
                                        QuadratureSpec(tol))
        assert nodes == 45 + 60 * 4
        assert abs(got[0] - complex(0.08528165687441348, 0.05256240928229461)) <= 1e-15

    def test_chi_integral_is_one_element_batch(self):
        for z, a in ((0.3 + 0.5j, 1.2), (-2.0 - 0.1j, -0.5), (1.5 + 0j, 1.2)):
            assert chi_integral(z, a, 1.0) == chi_batch(np.array([z]), a, 1.0)[0]

    def test_real_point_below_a_rejected(self):
        with pytest.raises(BranchBoundaryError):
            chi_batch(np.array([0.3 + 0.5j, -2.0 + 0j]), 1.2, 1.0)

    def test_ray_rule_misses_the_kink_at_zero(self):
        # kappa depends on |s| on the real axis, so for a > 0 its kink at
        # s = 0 falls inside a ray panel, where the panel error estimate does
        # not see it: chi_batch stops ~4e-9 away at any tolerance. Splitting
        # the ray at s = 0 agrees with scipy's quad; moving chi_batch onto
        # the split changes |psi| of perfbench's s2_field points by up to
        # ~4e-9 relative, beyond its 1e-10 reference gate
        z, a, q = np.array([0.38 + 0.81j]), 0.4544, 1.0
        f = lambda s: kappa_weight(s.real, q)[:, None] / (s[:, None] - z)
        spec = QuadratureSpec(1e-13)
        split = -1j * (quad_path(f, [a, 0.0], spec) + quad_ray_to_inf(f, 0.0, -1.0, spec))
        assert abs(split[0] - _chi_reference(z[0], a, q)) < 1e-14
        for tol in (1e-11, 1e-14):
            miss = abs(chi_batch(z, a, q, QuadratureSpec(tol))[0] - split[0])
            assert 1e-9 < miss < 1e-8

