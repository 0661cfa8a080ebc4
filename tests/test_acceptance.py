"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
PASS/FAIL lines. The heavy direct-solver runs are shared through
module-scoped fixtures.

Criterion 7 includes the point x = 0, where the two breaking curves pinch
(T2(x) -> T1(0) as x -> 0 with zero-width window at x = 0 itself); the
double-root search there fails by construction and the sub-case is reported
as a genuine failure rather than weakened. See the x = 0 analysis in the
breaking-curve tests.
"""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from sqnls.genus0 import (
    _phi0_imagcut,
    build_band_g0,
    omega_phase,
    psi_asy_g0,
    wkb_laplace_residual,
)
from sqnls.genus1 import (
    _b_cycle,
    abel_map,
    alpha_from_m,
    char_speed,
    elliptic_parameter,
    modulation_constants,
    period_integrals,
    psi_asy_g1,
    seg_integral_inv_r,
    solve_endpoint,
)
from sqnls.nls_direct import default_config, evolve
from sqnls.phase_geometry import (
    first_breaking_time,
    ray_breaking_time,
    rho1_real_roots,
    second_breaking_time,
)
from sqnls.scattering import (
    BarrierParams,
    connection_coefficient,
    eigenvalues,
    nu_branch,
    scattering_data,
    BranchCut,
)
from sqnls.specfun import (
    QuadratureSpec,
    complete_elliptic,
    dilog,
    ellipe,
    quad_path,
    theta_sum,
)

SQRT2 = math.sqrt(2.0)


def _verdict(num: int, label: str, ok: bool, detail: str = ""):
    state = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{state}] {label}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {label} {detail}"


# ---------------------------------------------------------------------------
# shared heavy runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def validation_runs():
    """Direct-solver fields for eps in {0.05, 0.025} at t = 0.15 and 0.2."""
    out = {}
    for eps in (0.05, 0.025):
        p = BarrierParams(1.0, 1.0, eps)
        cfg = default_config(p, 0.2, [0.15, 0.2], refine=2, dt_divisor=32.0)
        out[eps] = (p, evolve(cfg))
    return out


@pytest.fixture(scope="module")
def s2_scan():
    """Amplitude trace of |psi_num| through the oscillatory window at x = 0.25."""
    p = BarrierParams(1.0, 1.0, 0.05)
    x = 0.25
    t1 = first_breaking_time(x, p)
    t2 = second_breaking_time(x, p)
    ts = np.linspace(1.05 * t1, 0.95 * t2, 241)
    cfg = default_config(p, float(ts[-1]), [float(t) for t in ts],
                         refine=2, dt_divisor=16.0)
    snaps = evolve(cfg)
    j = int(np.argmin(np.abs(snaps[0].x_nodes - x)))
    amp = np.array([abs(s.values[j]) for s in snaps])
    return p, x, ts, amp


def test_criterion_1_special_functions():
    K0, E0 = complete_elliptic(0.0)
    ok = abs(K0 - math.pi / 2) < 1e-13 and abs(E0 - math.pi / 2) < 1e-13
    ok &= abs(ellipe(1.0) - 1.0) < 1e-13
    for m in (0.1, 0.3, 0.5, 0.7, 0.9):
        K, E = complete_elliptic(m)
        K1, E1 = complete_elliptic(1 - m)
        ok &= abs(E * K1 + E1 * K - K * K1 - math.pi / 2) < 1e-11
    ok &= abs(dilog(1.0) - math.pi ** 2 / 6) < 1e-12
    ok &= abs(dilog(-1.0) + math.pi ** 2 / 12) < 1e-12
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10):
        w = complex(rng.uniform(-2, 2), rng.uniform(-4, 4))
        H = -float(rng.uniform(0.4, 4.0))
        t0 = theta_sum(w, H)
        worst = max(worst,
                    abs(theta_sum(w + 2j * math.pi, H) - t0) / abs(t0),
                    abs(theta_sum(w + H, H) - cmath.exp(-H / 2 - w) * t0) / abs(t0))
    ok &= worst < 1e-12
    _verdict(1, "special functions", ok, f"theta automorphic defect {worst:.1e}")


def test_criterion_2_scattering():
    p = BarrierParams(1.0, 1.0, 0.2)
    rng = np.random.default_rng(7)
    worst_uni = max(abs(abs(a) ** 2 + abs(b) ** 2 - 1.0)
                    for a, b, _ in (scattering_data(float(z), p)
                                    for z in rng.uniform(-6, 6, 1000)))
    ok = worst_uni < 1e-12
    # cut independence of r at a point where the curved branch flips the sign
    curved = BranchCut("curved_polyline", polyline=(-1j, 0.4 - 0.55j, 0.52 + 0j, 0.4 + 0.55j, 1j))
    z = 0.3 + 0.2j
    nu = nu_branch(z, curved, 1.0)
    phi = 2 * p.L * nu / p.eps
    r_curved = (-p.q * cmath.sin(phi) / nu) / (
        (cmath.cos(phi) - 1j * z * cmath.sin(phi) / nu) * cmath.exp(2j * p.L * z / p.eps))
    r = scattering_data(z, p)[2]
    cut_defect = abs(r_curved - r) / abs(r)
    ok &= cut_defect < 1e-13
    counts_ok = True
    for eps in (0.2, 0.1, 0.05):
        pe = BarrierParams(1.0, 1.0, eps)
        counts_ok &= abs(len(eigenvalues(pe)) - 2 / (math.pi * eps)) <= 1
    ok &= counts_ok
    worst_ck = 0.0
    evs = eigenvalues(p)
    for y in evs:
        zk = 1j * y
        ck = connection_coefficient(zk, p)
        rad = 0.25 * min([abs(y - o) for o in evs if o != y] + [y, p.q - y])
        poly = [zk + rad * cmath.exp(2j * math.pi * k / 24) for k in range(25)]
        res = quad_path(lambda zz: np.array([scattering_data(v, p)[2] for v in zz]), poly,
                        QuadratureSpec(1e-11)) / (2j * math.pi)
        worst_ck = max(worst_ck, abs(ck - res) / max(1.0, abs(ck)))
    ok &= worst_ck < 1e-8
    _verdict(2, "scattering data", ok,
             f"unimod {worst_uni:.1e}, cut {cut_defect:.1e}, residue {worst_ck:.1e}")


def test_criterion_3_genus0():
    p = BarrierParams(1.0, 1.0, 0.1)
    band = build_band_g0(0.0, 0.2, p)
    worst_band = max(abs(_phi0_imagcut(z, 0.0, 0.2, p).imag)
                     for z in band.points if abs(z.imag) < 0.999)
    ok = worst_band < 1e-9
    samples = [(0.0, 0.15), (0.2, 0.1), (0.5, 0.05), (-0.3, 0.2), (0.0, 0.3),
               (0.6, 0.08), (0.45, 0.12), (-0.7, 0.05), (0.1, 0.25), (0.35, 0.18)]
    worst_omega = max(abs(omega_phase(x, t, p, QuadratureSpec(1e-12), "integral")
                          - omega_phase(x, t, p, method="dilog")) for x, t in samples)
    ok &= worst_omega < 1e-8
    worst_xi = 0.0
    for x in (0.0, 0.3, 0.7):
        t1 = first_breaking_time(x, p)
        xi0 = -((x - 1.0) / (4 * t1))  # discriminant vanishes exactly at T1
        worst_xi = max(worst_xi, abs(xi0 - 1 / SQRT2))
    ok &= worst_xi < 1e-8
    r1 = wkb_laplace_residual(0.2, 0.15, p, 1e-3)
    r2 = wkb_laplace_residual(0.2, 0.15, p, 5e-4)
    ok &= abs(r1) > 0.1 and abs(r1 - r2) < 0.1 * abs(r1)
    surr = abs(wkb_laplace_residual(0.2, 0.15, p, 5e-4, surrogate=(0.3, 0.7)))
    ok &= surr < 1e-6
    _verdict(3, "plane-wave window", ok,
             f"band {worst_band:.1e}, omega {worst_omega:.1e}, laplace {r1:.3f}, surrogate {surr:.1e}")


def test_criterion_4_endpoint_solver():
    q = 1.0
    worst_res, worst_rt = 0.0, 0.0
    for mu in np.linspace(0.05, 1.4, 10):
        st = solve_endpoint(float(mu), q)
        worst_res = max(worst_res, st.res_moment, st.res_gap)  # reference scale t q^2 = 1
        worst_rt = max(worst_rt, abs(elliptic_parameter(alpha_from_m(st.m, q), q) - st.m))
    ok = worst_res < 1e-10 and worst_rt < 1e-10
    st_hi = solve_endpoint(0.999 * SQRT2, q)
    st_lo = solve_endpoint(0.01 * SQRT2, q)
    lim_hi = abs(st_hi.alpha - 1 / SQRT2)
    lim_lo = abs(st_lo.alpha - 1j)
    ok &= lim_hi < 0.05 and lim_lo < 0.05
    _verdict(4, "endpoint system", ok,
             f"residual {worst_res:.1e}, roundtrip {worst_rt:.1e}, limits {lim_hi:.3f}/{lim_lo:.3f}")


def test_criterion_5_periods_and_constants():
    q = 1.0
    quad = QuadratureSpec(1e-12)
    p = BarrierParams(1.0, 1.0, 0.05)
    worst_seg, worst_him, worst_tau, worst_real, worst_abel = 0.0, 0.0, 0.0, 0.0, 0.0
    for mu in np.linspace(0.25, 1.35, 10):
        st = solve_endpoint(float(mu), q)
        K, _ = complete_elliptic(st.m)
        seg = seg_integral_inv_r(st.alpha, q, quad)
        worst_seg = max(worst_seg, abs(seg - 2j * K / abs(st.alpha + 1j * q)))
        H, a_per, _, c_nu = period_integrals(st.alpha, q, quad)
        raw_h = c_nu * _b_cycle(lambda z: 1.0 + 0j, st.alpha, q, quad)
        worst_him = max(worst_him, abs(raw_h.imag))
        assert H < 0
        a_iq = abel_map(1j * q, st.alpha, c_nu, q, quad)
        a_ast = abel_map(st.alpha.conjugate(), st.alpha, c_nu, q, quad)
        worst_abel = max(worst_abel, abs(a_iq), abs(a_ast - (1j * math.pi + H / 2)))
        # modulation constants at the midpoint of the mu-ray window
        t_ref = 0.45 * ray_breaking_time(float(mu), p)
        x_ref = 1.0 - 2 * mu * t_ref
        mods = modulation_constants(st.alpha, x_ref, t_ref, p)
        worst_tau = max(worst_tau, abs(mods.tau1_b_period + mods.Omega))
        worst_real = max(worst_real, mods.reality_defect)
    ok = (worst_seg < 1e-8 and worst_him < 1e-9 and worst_tau < 1e-8
          and worst_real < 1e-8 and worst_abel < 1e-8)
    _verdict(5, "periods and constants", ok,
             f"elliptic {worst_seg:.1e}, Im H {worst_him:.1e}, tau1 {worst_tau:.1e}, "
             f"reality {worst_real:.1e}, abel {worst_abel:.1e}")


def test_criterion_6_whitham():
    p = BarrierParams(1.0, 1.0, 0.05)
    h = 1e-4

    def alpha_at(xx, tt):
        return solve_endpoint((p.L - xx) / (2 * tt), p.q).alpha

    worst = 0.0
    for (x, t) in ((0.3, 0.3), (0.2, 0.35), (0.4, 0.35), (0.5, 0.4), (0.35, 0.32)):
        a_t = (alpha_at(x, t + h) - alpha_at(x, t - h)) / (2 * h)
        a_x = (alpha_at(x + h, t) - alpha_at(x - h, t)) / (2 * h)
        c = char_speed(alpha_at(x, t), p.q)
        worst = max(worst, abs(a_t + c * a_x) / abs(a_x))
    _verdict(6, "Whitham evolution", worst < 1e-4, f"residual {worst:.1e}")


@pytest.mark.parametrize("x_frac", [0.0, 0.25, 0.5, 0.75])
def test_criterion_7_breaking_curves(x_frac):
    # the x = 0 sub-case is genuinely unattainable: the oscillatory window
    # pinches to zero width there (T2(x) -> T1(0) only as x -> 0); it is kept
    # as stated and reported honestly
    p = BarrierParams(1.0, 1.0, 0.1)
    x = x_frac * p.L
    try:
        t2 = second_breaking_time(x, p, tol=1e-8)
    except RuntimeError as exc:
        _verdict(7, f"breaking curves (x = {x})", False, str(exc))
        return
    ok = t2 > first_breaking_time(x, p)
    mu_lo = (p.L - x) / (2 * (t2 - 1e-3))
    mu_hi = (p.L - x) / (2 * (t2 + 1e-3))
    st_lo = solve_endpoint(mu_lo, p.q)
    st_hi = solve_endpoint(mu_hi, p.q)
    n_lo = len(rho1_real_roots(st_lo.alpha, mu_lo - st_lo.alpha.real, t2 - 1e-3, p.L, p.q))
    n_hi = len(rho1_real_roots(st_hi.alpha, mu_hi - st_hi.alpha.real, t2 + 1e-3, p.L, p.q))
    ok &= (n_lo, n_hi) == (2, 0)
    _verdict(7, f"breaking curves (x = {x})", ok, f"T2 = {t2:.6f}, flip {n_lo}->{n_hi}")


def test_criterion_8_pde_oracle():
    p = BarrierParams(1.0, 1.0, 0.1)
    cfg = default_config(p, 0.1, [0.1])
    n, dx = cfg.grid_points, cfg.dx
    x = -cfg.half_width + dx * np.arange(n)
    k = 2 * math.pi * np.fft.fftfreq(n, d=dx)
    psi = np.ones(n, dtype=complex)
    steps = math.ceil(0.1 / cfg.dt)
    dt = 0.1 / steps
    for _ in range(steps):
        psi *= np.exp(0.5j * dt / p.eps * np.abs(psi) ** 2)
        psi = np.fft.ifft(np.exp(-0.5j * p.eps * dt * k * k) * np.fft.fft(psi))
        psi *= np.exp(0.5j * dt / p.eps * np.abs(psi) ** 2)
    plane_err = float(np.max(np.abs(psi - np.exp(1j * 0.1 / p.eps))))
    snaps = evolve(default_config(p, 0.2, [0.0, 0.2]))
    norms = [math.sqrt(float(np.sum(np.abs(s.values) ** 2)) * dx) for s in snaps]
    drift = abs(norms[1] - norms[0]) / norms[0]
    v = snaps[1].values
    parity = float(np.max(np.abs(v - np.roll(v[::-1], 1))))
    ok = plane_err < 1e-10 and drift < 1e-10 and parity < 1e-10
    _verdict(8, "direct-solver oracle", ok,
             f"plane {plane_err:.1e}, drift {drift:.1e}, parity {parity:.1e}")


def test_criterion_9_s1_validation(validation_runs):
    errs = {}
    for eps, (p, snaps) in validation_runs.items():
        x = snaps[0].x_nodes
        mask = np.abs(x) <= 0.5
        asy = np.array([psi_asy_g0(float(xx), 0.15, p) for xx in x[mask]])
        errs[eps] = float(np.max(np.abs(snaps[0].values[mask] - asy)))
    ratio = errs[0.025] / errs[0.05]
    ok = errs[0.05] <= 0.2 and ratio <= 0.9
    _verdict(9, "plane-wave validation", ok,
             f"e(0.05) = {errs[0.05]:.4f}, ratio = {ratio:.3f}")


def test_criterion_10_s0_validation(validation_runs):
    tails = {}
    for eps, (p, snaps) in validation_runs.items():
        x = snaps[1].x_nodes
        tails[eps] = float(np.max(np.abs(snaps[1].values[(x >= 1.5) & (x <= 2.0)])))
    ok = tails[0.05] <= 0.15 and tails[0.025] < tails[0.05]
    _verdict(10, "quiescent-region validation", ok,
             f"tail(0.05) = {tails[0.05]:.4f}, tail(0.025) = {tails[0.025]:.4f}")


def test_criterion_11_s2_structure(s2_scan):
    p, x, ts, amp = s2_scan
    t_mid = float(ts[len(ts) // 2])
    mu = (p.L - x) / (2 * t_mid)
    st = solve_endpoint(mu, p.q)
    mods = modulation_constants(st.alpha, x, t_mid, p)
    base = psi_asy_g1(x, t_mid, p, st, mods)
    shifted = psi_asy_g1(x, t_mid, p, st,
                         replace(mods, Omega=mods.Omega + 2 * math.pi * p.eps))
    per_defect = abs(shifted - base)
    ok = per_defect < 1e-10
    amp_lim = solve_endpoint(0.999 * SQRT2 * p.q, p.q)
    ok &= p.q - amp_lim.alpha.imag > 0.95 * p.q

    def omega_at(t):
        m = (p.L - x) / (2 * t)
        s = solve_endpoint(m, p.q)
        return modulation_constants(s.alpha, x, float(t), p).Omega

    predicted = 2.0 * abs(omega_at(ts[-1]) - omega_at(ts[0])) / (2 * math.pi * p.eps)
    smooth = np.convolve(amp, np.ones(9) / 9, mode="valid")
    count = _macro_extrema(smooth, 0.15)
    dev = abs(count - predicted) / predicted
    ok &= dev <= 0.30
    _verdict(11, "oscillatory-region structure", ok,
             f"periodicity {per_defect:.1e}, extrema {count} vs predicted {predicted:.2f}")


def _turning_points(vals):
    pts = [vals[0]]
    for v in vals[1:]:
        if len(pts) == 1:
            if v != pts[-1]:
                pts.append(v)
        elif (pts[-1] - pts[-2]) * (v - pts[-1]) >= 0:
            pts[-1] = v
        else:
            pts.append(v)
    return pts


def _macro_extrema(arr, frac):
    """Interior extrema that survive persistence pruning at frac * range."""
    pts = _turning_points(list(arr))
    thresh = frac * (max(arr) - min(arr))
    while len(pts) > 2:
        diffs = [abs(b - a) for a, b in zip(pts, pts[1:])]
        k = int(np.argmin(diffs))
        if diffs[k] >= thresh:
            break
        if k == 0:
            del pts[0]
        elif k == len(diffs) - 1:
            del pts[-1]
        else:
            del pts[k:k + 2]
        pts = _turning_points(pts)
    return max(0, len(pts) - 2)
