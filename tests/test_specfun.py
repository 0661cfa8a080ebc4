import cmath
import math
import re

import numpy as np
import pytest

from sqnls import specfun
from sqnls.specfun import (
    QuadratureConvergenceError,
    QuadratureSpec,
    adaptive_gl,
    brentq,
    complete_elliptic,
    complete_elliptic_m1,
    cut_sqrt,
    cut_sqrt_boundary,
    dilog,
    ellipe,
    ellipk,
    quad_path,
    quad_ray_to_inf,
    segment_distance,
    theta_sum,
)


class TestCompleteElliptic:
    def test_degenerate_circle(self):
        K, E = complete_elliptic(0.0)
        assert abs(K - math.pi / 2) < 1e-15
        assert abs(E - math.pi / 2) < 1e-15

    def test_complete_degeneration(self):
        assert ellipe(1.0) == 1.0
        with pytest.raises(ValueError):
            ellipk(1.0)

    def test_agm_vs_series_cross_check(self):
        # scipy's K and E come from Cephes' polynomial approximations, an
        # evaluation independent of the AGM
        from scipy.special import ellipe as scipy_ellipe, ellipk as scipy_ellipk

        K, E = complete_elliptic(0.5)
        Ks, Es = scipy_ellipk(0.5), scipy_ellipe(0.5)
        assert abs(K - Ks) < 1e-12
        assert abs(E - Es) < 1e-12

    @pytest.mark.parametrize("m", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_legendre_relation(self, m):
        K, E = complete_elliptic(m)
        K1, E1 = complete_elliptic(1.0 - m)
        assert abs(E * K1 + E1 * K - K * K1 - math.pi / 2) < 1e-11

    def test_monotonicity(self):
        ms = np.linspace(0.0, 0.95, 40)
        Ks = [ellipk(m) for m in ms]
        Es = [ellipe(m) for m in ms]
        assert all(b > a for a, b in zip(Ks[:-1], Ks[1:]))
        assert all(b < a for a, b in zip(Es[:-1], Es[1:]))

    def test_domain_errors(self):
        for bad in (-0.1, 1.5, math.inf, math.nan):
            with pytest.raises(ValueError):
                ellipk(bad)

    def test_wrappers_share_one_agm_pass(self):
        for m in (0.0, 0.3, 0.9, 1.0 - 1e-9):
            K, E = complete_elliptic_m1(1.0 - m)
            assert complete_elliptic(m) == (K, E)
            assert (ellipk(m), ellipe(m)) == (K, E)

    @pytest.mark.parametrize("m1,k_ref,e_ref", [
        # K(1 - m1) and E(1 - m1) from mpmath at 50 digits
        (1e-8, 10.59663475708766, 1.0000000504831738),
        (1e-14, 17.504390012078252, 1.000000000000085),
    ])
    def test_precision_near_m_one(self, m1, k_ref, e_ref):
        # the pass starts from sqrt(m1), so no digit of m1 is lost to 1 - m
        K, E = complete_elliptic_m1(m1)
        assert abs(K - k_ref) <= 2e-15 * k_ref
        assert abs(E - e_ref) <= 2e-15 * e_ref


class TestDilog:
    def test_empty_sum(self):
        assert dilog(0.0) == 0.0

    def test_basel_values(self):
        assert abs(dilog(1.0) - math.pi ** 2 / 6) < 1e-12
        assert abs(dilog(-1.0) + math.pi ** 2 / 12) < 1e-12

    @pytest.mark.parametrize("x", [0.05, 0.2, 0.37, 0.5, 0.64, 0.8, 0.95])
    def test_reflection_identity(self, x):
        lhs = dilog(x) + dilog(1.0 - x)
        rhs = math.pi ** 2 / 6 - math.log(x) * math.log(1.0 - x)
        assert abs(lhs - rhs) < 1e-11

    def test_inversion_branch_continuity(self):
        # values straddling x = -1 must join smoothly
        assert abs(dilog(-1.0 - 1e-9) - dilog(-1.0 + 1e-9)) < 1e-8

    def test_known_negative_value(self):
        # Li2(-3) from the inversion identity against the direct series at -1/3
        direct = -dilog(-1.0 / 3.0) - math.pi ** 2 / 6 - 0.5 * math.log(3.0) ** 2
        assert abs(dilog(-3.0) - direct) < 1e-14

    def test_domain_errors(self):
        for bad in (1.0 + 1e-12, math.inf, math.nan):
            with pytest.raises(ValueError):
                dilog(bad)


class TestThetaSum:
    @pytest.mark.parametrize("seed", range(5))
    def test_automorphic_relations(self, seed):
        rng = np.random.default_rng(seed)
        w = complex(rng.uniform(-2, 2), rng.uniform(-4, 4))
        H = -float(rng.uniform(0.5, 5.0))
        t0 = theta_sum(w, H)
        assert abs(theta_sum(w + 2j * math.pi, H) - t0) < 1e-12 * abs(t0)
        shifted = theta_sum(w + H, H)
        assert abs(shifted - cmath.exp(-H / 2 - w) * t0) < 1e-12 * max(abs(shifted), 1.0)

    def test_even(self):
        w, H = 0.7 - 1.1j, -2.3
        assert theta_sum(-w, H) == theta_sum(w, H)

    def test_truncation_doubling(self):
        w, H = 1.3 + 0.4j, -0.8
        base = theta_sum(w, H)
        big = max(abs(w.real), abs(H))
        n = int(math.ceil((big + math.sqrt(big * big + 2 * abs(H) * math.log(1e16))) / abs(H))) + 2
        k = np.arange(-2 * n, 2 * n + 1)
        doubled = complex(np.sum(np.exp(0.5 * H * k * k - k * w)))
        assert abs(doubled - base) < 1e-13 * abs(base)

    def test_array_matches_each_point(self):
        # one truncation index for all points, set by the largest |Re w|: the
        # terms it adds for the others lie below 1e-16 of the n = 0 term
        w = np.array([0.0, 1.3 + 0.4j, -2.5 + 3j, 0.7 - 1.1j, 2j * math.pi])
        H = -0.8
        together = theta_sum(w, H)
        assert together.shape == w.shape
        for wj, tj in zip(w, together):
            assert abs(tj - theta_sum(wj, H)) < 1e-15 * max(abs(tj), 1.0)

    def test_divergent_domain(self):
        with pytest.raises(ValueError):
            theta_sum(0.3, 0.0)
        with pytest.raises(ValueError):
            theta_sum(0.3, 1.0)

    def test_hard_cap(self):
        with pytest.raises(QuadratureConvergenceError):
            theta_sum(1e9, -1e-6)


class TestQuadPath:
    def test_inverse_sqrt_left(self):
        spec = QuadratureSpec(target_abs_tol=1e-12)
        val = quad_path(lambda z: 1.0 / np.sqrt(z), [0.0, 1.0], spec)
        assert abs(val - 2.0) < 1e-11

    def test_inverse_sqrt_at_interior_vertex(self):
        # every segment is substituted at both ends, so a singularity may sit
        # at a vertex between two segments
        spec = QuadratureSpec(target_abs_tol=1e-12)
        val = quad_path(lambda z: 1.0 / np.sqrt(np.abs(z - 1.0)), [0.0, 1.0, 2.0], spec)
        assert abs(val - 4.0) < 1e-11

    def test_unit_circle_residue(self):
        # any closed polyline winding once about 0 integrates dz/z to 2 pi i
        poly = [1, 1j, -1, -1j, 1]
        val = quad_path(lambda z: 1.0 / z, poly, QuadratureSpec(1e-12))
        assert abs(val - 2j * math.pi) < 1e-11

    def test_arctangent_tail(self):
        val = quad_ray_to_inf(lambda lam: 1.0 / (1.0 + lam ** 2), 0.0, 1.0, QuadratureSpec(1e-12))
        assert abs(val - math.pi / 2) < 1e-11

    def test_additive_over_concatenation(self):
        f = lambda z: np.exp(z) / (1 + z * z / 9)
        spec = QuadratureSpec(1e-12)
        whole = quad_path(f, [0.0, 1.0 + 1.0j], spec)
        part = quad_path(f, [0.0, 0.4 + 0.4j], spec) + quad_path(f, [0.4 + 0.4j, 1.0 + 1.0j], spec)
        assert abs(whole - part) < 1e-11

    def test_antisymmetric_under_reversal(self):
        f = lambda z: z * z - 1.0 / (z + 5)
        spec = QuadratureSpec(1e-12)
        fwd = quad_path(f, [-1.0, 2.0 + 1.0j], spec)
        bwd = quad_path(f, [2.0 + 1.0j, -1.0], spec)
        assert abs(fwd + bwd) < 1e-11

    def test_log_endpoint(self):
        spec = QuadratureSpec(target_abs_tol=1e-12)
        val = quad_path(np.log, [0.0, 1.0], spec)
        assert abs(val + 1.0) < 1e-10

    def test_convergence_error_carries_estimate(self):
        spec = QuadratureSpec(target_abs_tol=1e-13, max_subdivisions=2)
        with pytest.raises(QuadratureConvergenceError) as err:
            quad_path(lambda z: 1.0 / np.sqrt(np.abs(z.real) + 1e-30), [-1.0, 1.0], spec)
        assert err.value.error_bound > 0

    def test_both_ends_match_two_runs(self):
        # the halves of a segment run as two components of one pass; here the
        # left half carries a narrow peak and needs more panels than the
        # right, and the sum matches the two halves run one by one
        tol, w = 1e-11, 1e-2
        spec = QuadratureSpec(tol)
        calls = []

        def f(z):
            calls.append(z.size)
            return np.stack((1.0 / np.sqrt(z * (1.0 - z)),
                             w / (((z - 0.15) ** 2 + w * w) * np.sqrt(1.0 - z))), axis=1)

        joint = quad_path(f, [0.0, 1.0], spec)
        assert calls[0] == 90 and set(calls[1:]) == {120}
        calls.clear()
        # z = 0.5 u^2 and z = 1 - 0.5 u^2, each with |dz| = u du
        left = adaptive_gl(lambda u: f(0.5 * u * u) * u[:, None], 0.0, 1.0, 0.5 * tol, 400)
        n_left = len(calls)
        right = adaptive_gl(lambda u: f(1.0 - 0.5 * u * u) * u[:, None], 0.0, 1.0, 0.5 * tol, 400)
        assert n_left > len(calls) - n_left
        assert joint.shape == (2,)
        assert np.all(np.abs(joint - (left + right)) <= tol)
        assert abs(joint[0] - math.pi) <= tol

    def test_both_ends_convergence_error(self):
        # the error is raised once the halves' combined budget of
        # 2 max_subdivisions panels is spent, with the whole segment's
        # estimate and bound in the integrand's shape
        nodes = []

        def f(z):
            nodes.append(z.size)
            return np.stack((1.0 / np.sqrt(np.abs(z.real - 0.3) + 1e-30), np.ones(z.size)),
                            axis=1)

        spec = QuadratureSpec(target_abs_tol=1e-13, max_subdivisions=3)
        with pytest.raises(QuadratureConvergenceError) as err:
            quad_path(f, [0.0, 1.0], spec)
        assert nodes == [90] + [120] * 5
        assert err.value.estimate.shape == (2,) and err.value.error_bound.shape == (2,)
        assert abs(err.value.estimate[1] - 1.0) < 1e-13
        assert err.value.error_bound[0] > 1e-13
        with pytest.raises(QuadratureConvergenceError) as err:
            quad_path(lambda z: f(z)[:, 0], [0.0, 1.0], spec)
        assert isinstance(err.value.estimate, complex)
        assert isinstance(err.value.error_bound, float)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(target_abs_tol=-1.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)

    def test_tail_with_inverse_sqrt_start(self):
        # integral_0^inf lam^(-1/2) (1 + lam)^(-2) dlam = B(1/2, 3/2) = pi / 2
        val = quad_ray_to_inf(lambda lam: 1.0 / (np.sqrt(lam) * (1.0 + lam) ** 2), 0.0, 1.0,
                              QuadratureSpec(1e-12))
        assert abs(val - math.pi / 2) < 1e-11


class TestAdaptiveGL:
    def test_rule_literals_match_leggauss(self):
        # the written-out 15-point rule is numpy's, bit for bit
        nodes, weights = np.polynomial.legendre.leggauss(15)
        assert np.array_equal(specfun._GL_NODES, nodes)
        assert np.array_equal(specfun._GL_WEIGHTS, weights)

    def test_panel_nodes_are_the_half_width_form(self):
        # gl_panels scales the halved rule by the width; halving is exact, so
        # the nodes and weights are mid + half * node and half * weight to the bit
        rng = np.random.default_rng(7)
        for p in (1, 3, 4, 9):
            lo = rng.uniform(-2.0, 1.0, p)
            hi = lo + rng.uniform(1e-9, 2.0, p) * rng.choice([1e-6, 1.0], p)
            nodes, weights = specfun.gl_panels(lo, hi)
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            assert np.array_equal(nodes, mid[:, None] + half[:, None] * specfun._GL_NODES)
            assert np.array_equal(weights, half[:, None] * specfun._GL_WEIGHTS)

    def test_components_meet_tolerance_each(self):
        # a smooth component of size ~1e6 and a narrow peak of size ~1: one
        # error norm over both would let the peak stop short
        tol = 1e-8
        w2 = 1e-4

        def f(x):
            return np.stack((1e6 * np.exp(x), w2 / ((x - 0.3) ** 2 + w2)), axis=1)

        val = adaptive_gl(f, 0.0, 1.0, tol, 400)
        w = math.sqrt(w2)
        exact_peak = w * (math.atan(0.7 / w) + math.atan(0.3 / w))
        assert val.shape == (2,)
        assert abs(val[0] - 1e6 * (math.e - 1.0)) <= tol
        assert abs(val[1] - exact_peak) <= tol

    def test_no_node_evaluated_twice(self):
        seen = []

        def f(x):
            seen.append(x.copy())
            return 1.0 / (x * x + 1e-3)

        val = adaptive_gl(f, -1.0, 1.0, 1e-12, 400)
        nodes = np.concatenate(seen)
        panels = len(seen)
        assert panels > 3
        assert [x.size for x in seen] == [45] + [60] * (panels - 1)
        assert np.unique(nodes).size == nodes.size
        assert abs(val - 2.0 * math.atan(1.0 / math.sqrt(1e-3)) / math.sqrt(1e-3)) < 1e-11

    def test_kink_tree_is_pinned(self):
        # no panel bound meets the kink of |u - 0.3| e^u, so the panels around
        # it carry its error: the value, 1.2e-13 from the exact
        # 2 e^0.3 - 0.3 e - 1.3, and the 17 panels are pinned as they stood
        # when the loop was first pinned, like chi_batch's ray trees
        nodes = []

        def f(u):
            nodes.append(u.size)
            return np.abs(u - 0.3) * np.exp(u)

        val = adaptive_gl(f, 0.0, 1.0, 1e-12, 400)
        assert len(nodes) == 17
        assert abs(val - (2.0 * math.exp(0.3) - 0.3 * math.e - 1.3)) <= 1e-12
        assert abs(val - 0.584233066614168) <= 1e-15

    def test_convergence_error_at_panel_cap(self):
        nodes = []

        def f(z):
            nodes.append(z.size)
            return 1.0 / np.sqrt(np.abs(z.real) + 1e-30)

        spec = QuadratureSpec(target_abs_tol=1e-13, max_subdivisions=5)
        with pytest.raises(QuadratureConvergenceError) as err:
            quad_path(f, [-1.0, 1.0], spec)
        assert sum(nodes) == 90 + 120 * 9
        assert isinstance(err.value.estimate, complex)
        assert abs(err.value.estimate - 4.0) < 0.5
        assert err.value.error_bound > 1e-13

    def test_non_finite_panel_fails_fast(self):
        # the 15-point rule has a node at the midpoint of [0, 1], where the
        # integrand is infinite: the first panel is already non-finite
        nodes = []

        def f(u):
            nodes.append(u.size)
            with np.errstate(divide="ignore"):
                return 1.0 / (u - 0.5)

        with pytest.raises(QuadratureConvergenceError, match=r"panel \[0.0, 1.0\]") as err:
            adaptive_gl(f, 0.0, 1.0, 1e-10, 400)
        assert sum(nodes) <= 45
        assert np.isnan(err.value.estimate)
        assert err.value.error_bound == math.inf

    def test_non_finite_panel_carries_last_finite_estimate(self):
        # 0.3 is no node at first; bisection narrows a panel around it until
        # a node rounds onto it
        def f(u):
            with np.errstate(divide="ignore"):
                return np.stack((1.0 / (u - 0.3), np.ones(u.size)), axis=1)

        with pytest.raises(QuadratureConvergenceError) as err:
            adaptive_gl(f, 0.0, 1.0, 1e-10, 400)
        lo, hi = map(float, re.search(r"panel \[(.*), (.*)\]", str(err.value)).groups())
        assert lo < 0.3 < hi and hi - lo < 1e-12
        assert np.all(np.isfinite(err.value.estimate))
        assert np.all(np.isfinite(err.value.error_bound))
        assert err.value.estimate[1] == pytest.approx(1.0, abs=1e-13)
        assert err.value.error_bound[0] > 1e-10

    def test_vector_convergence_error_carries_components(self):
        f = lambda z: np.stack((1.0 / np.sqrt(np.abs(z.real) + 1e-30), np.ones(z.size)), axis=1)
        spec = QuadratureSpec(target_abs_tol=1e-13, max_subdivisions=3)
        with pytest.raises(QuadratureConvergenceError) as err:
            quad_path(f, [-1.0, 1.0], spec)
        assert err.value.estimate.shape == (2,)
        assert abs(err.value.estimate[1] - 2.0) < 1e-13
        assert err.value.error_bound[0] > 1e-13

    def test_vector_matches_scalar_path(self):
        f = lambda z: np.exp(z) / (1 + z * z / 9)
        spec = QuadratureSpec(1e-12)
        path = [0.0, 0.4 + 0.4j, 1.0 + 1.0j]
        vec = quad_path(lambda z: np.stack((f(z), 2.0 * f(z)), axis=1), path, spec)
        one = quad_path(f, path, spec)
        assert isinstance(one, complex)
        assert abs(vec[0] - one) < 1e-12
        assert abs(vec[1] - 2.0 * one) < 2e-12


class TestCutSqrt:
    C, D = 0.3 + 0.4j, 0.5 - 0.2j

    def test_square_and_infinity(self):
        z = np.array([2.0 + 1.0j, -1.0 - 3.0j, 0.1 + 0.9j, 5e7 - 2e7j])
        r = cut_sqrt(z, self.C, self.D)
        assert np.all(np.abs(r * r - ((z - self.C) ** 2 - self.D ** 2))
                      <= 1e-14 * np.abs(z - self.C) ** 2)
        assert abs(r[-1] / (z[-1] - self.C) - 1.0) < 1e-14

    def test_jump_only_across_the_segment(self):
        normal = 1j * self.D / abs(self.D)
        h = 1e-9
        on_cut = self.C + np.linspace(-0.95, 0.95, 13) * self.D
        above = cut_sqrt(on_cut + h * normal, self.C, self.D)
        below = cut_sqrt(on_cut - h * normal, self.C, self.D)
        # the two boundary values are opposite, each of size |d| sqrt(1 - s^2)
        assert np.all(np.abs(above + below) < 1e-6)
        assert np.all(np.abs(above - below) > 0.5 * abs(self.D))
        # across the line of the segment beyond its ends, and anywhere else,
        # the value is continuous
        off = np.concatenate((self.C + np.array([-3.0, -1.05, 1.05, 2.0]) * self.D,
                              self.C + np.array([0.7, -0.7]) * 1j * self.D))
        for direction in (normal, 1.0, 1j):
            step = cut_sqrt(off + h * direction, self.C, self.D) - \
                cut_sqrt(off - h * direction, self.C, self.D)
            assert np.all(np.abs(step) < 1e-7)

    def test_midpoint_value(self):
        assert cut_sqrt(self.C, self.C, self.D) == 1j * self.D
        vals = cut_sqrt(np.array([self.C, self.C + 1.0]), self.C, self.D)
        assert vals[0] == 1j * self.D

    def test_scalar_matches_array(self):
        z = (np.linspace(-2.0, 2.0, 9)[:, None] + 1j * np.linspace(-1.5, 1.5, 7)[None, :]).ravel()
        arr = cut_sqrt(z, self.C, self.D)
        for zj, aj in zip(z, arr):
            one = cut_sqrt(complex(zj), self.C, self.D)
            assert isinstance(one, complex)
            assert abs(one - aj) <= 1e-15 * abs(aj)

    def test_boundary_value_is_the_limit_from_each_side(self):
        # the boundary value is the limit from the right of the direction d,
        # where Im((z - c)/d) < 0: the side every caller reads
        s = np.linspace(-0.95, 0.95, 13)
        limit = cut_sqrt(self.C + s * self.D - 1e-9j * self.D, self.C, self.D)
        assert np.all(np.abs(cut_sqrt_boundary(s, self.D) - limit) < 1e-7)
        # the branch points, and parameters past them by rounding, give 0
        ends = cut_sqrt_boundary(np.array([-1.0, 1.0, 1.0 + 2e-16]), self.D)
        assert np.all(ends == 0)


class TestSegmentDistance:
    def test_crossing_and_touching(self):
        assert segment_distance(-1 - 1j, 1 + 1j, -1 + 1j, 1 - 1j) == 0.0
        assert segment_distance(0j, 1 + 0j, 1 + 0j, 1 + 1j) == 0.0
        # collinear: overlapping, then apart
        assert segment_distance(0j, 2 + 0j, 1 + 0j, 3 + 0j) == 0.0
        assert segment_distance(0j, 1 + 0j, 2 + 0j, 3 + 0j) == 1.0

    def test_apart(self):
        assert segment_distance(0j, 2 + 0j, 1 + 0.5j, 3 + 0.5j) == 0.5
        assert segment_distance(0j, 1 + 0j, 2 + 1j, 2 + 3j) == abs(1 + 1j)
        # a long segment passing 1e-3 from the end of a short one
        assert segment_distance(-3 + 1e-3j, 3 + 1e-3j, -0.1j, 0j) == pytest.approx(1e-3, rel=1e-12)

    def test_zero_length_segments(self):
        # a point's distance from a segment, given as either pair; two points
        assert segment_distance(0.5 + 2j, 0.5 + 2j, 0j, 1 + 0j) == 2.0
        assert segment_distance(0j, 1 + 0j, 0.5 + 2j, 0.5 + 2j) == 2.0
        assert segment_distance(0.25 + 0j, 0.25 + 0j, 0j, 1 + 0j) == 0.0
        assert segment_distance(3 + 4j, 3 + 4j, 0j, 0j) == 5.0
        assert segment_distance(1j, 1j, 1j, 1j) == 0.0

    def test_against_dense_sampling(self):
        # the exact distance is the least over the segments' points: never
        # above a dense sample's least distance, and within its spacing of it
        rng = np.random.default_rng(5)
        u = np.linspace(0.0, 1.0, 401)
        for _ in range(100):
            a0, a1, b0, b1 = rng.normal(size=4) + 1j * rng.normal(size=4)
            sampled = np.min(np.abs((a0 + u * (a1 - a0))[:, None] - (b0 + u * (b1 - b0))[None, :]))
            exact = segment_distance(a0, a1, b0, b1)
            assert exact <= sampled + 1e-15
            assert sampled - exact <= (abs(a1 - a0) + abs(b1 - b0)) / 400


# scipy is the reference for the three ports below; the library never imports it

ROOT_CASES = [
    # (f, a, b): smooth, flat, steep and odd-order roots, brackets either way round
    (lambda x: math.cos(x) - x, 0.0, 1.5),
    (lambda x: x ** 3 - 2.0 * x - 5.0, 1.0, 3.0),
    (lambda x: math.exp(x) - 3.7, 3.0, -2.0),
    (lambda x: 1e-6 * math.atan(x - 0.3), -5.0, 1.0),
    (lambda x: (x - 1.1) ** 3, 0.0, 4.0),  # a triple root: neither converges in 100 steps
    (lambda x: math.tanh(40.0 * (x - 0.123)), -1.0, 1.0),
]
# the tolerances the library passes, and scipy's defaults
ROOT_TOLS = [(2e-12, 4 * np.finfo(float).eps), (1e-15, 8.9e-16), (1e-13, 8.9e-16),
             (1e-13, 4 * np.finfo(float).eps), (1e-14, 4 * np.finfo(float).eps),
             (1e-10, 4 * np.finfo(float).eps)]


class TestBrentq:
    @pytest.mark.parametrize("xtol, rtol", ROOT_TOLS)
    def test_bit_identical_to_scipy(self, xtol, rtol):
        from scipy.optimize import brentq as scipy_brentq

        def outcome(solver, f, a, b):
            try:
                return solver(f, a, b, xtol=xtol, rtol=rtol)
            except RuntimeError as exc:
                return repr(exc)

        for f, a, b in ROOT_CASES:
            ref = outcome(scipy_brentq, f, a, b)
            got = outcome(brentq, f, a, b)
            assert type(got) is type(ref)
            assert got == ref, (f, a, b)

    def test_same_evaluation_points(self):
        from scipy.optimize import brentq as scipy_brentq
        seen = {"ref": [], "got": []}

        def rec(key):
            def f(x):
                seen[key].append(x)
                return x ** 3 - 2.0 * x - 5.0
            return f

        scipy_brentq(rec("ref"), 1.0, 3.0, xtol=1e-15, rtol=8.9e-16)
        brentq(rec("got"), 1.0, 3.0, xtol=1e-15, rtol=8.9e-16)
        assert seen["got"] == seen["ref"]

    def test_root_at_bracket_end(self):
        assert brentq(lambda x: x - 2.0, 2.0, 3.0) == 2.0
        assert brentq(lambda x: x - 3.0, 2.0, 3.0) == 3.0

    def test_same_sign_raises(self):
        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_nan_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            brentq(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0)

    def test_maxiter_raises(self):
        with pytest.raises(RuntimeError, match="Failed to converge after 100 iterations."):
            brentq(lambda x: (x - 1.1) ** 3, 0.0, 4.0)

    def test_tolerances_validated(self):
        with pytest.raises(ValueError):
            brentq(lambda x: x, -1.0, 1.0, xtol=0.0)
        with pytest.raises(ValueError):
            brentq(lambda x: x, -1.0, 1.0, rtol=1e-16)

