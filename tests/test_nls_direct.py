import math

import numpy as np
import pytest

from sqnls.nls_direct import (
    InstabilityError,
    SolverConfig,
    _rotation_factor,
    barrier_initial_data,
    default_config,
    evolve,
)
from sqnls.scattering import BarrierParams

P = BarrierParams(1.0, 1.0, 0.1)


def _plane_wave_run(t_final):
    # constant field: both substeps are exact, so the integrator is too
    cfg = default_config(P, t_final, [t_final])
    n, dx = cfg.grid_points, cfg.dx
    x = -cfg.half_width + dx * np.arange(n)
    k = 2 * math.pi * np.fft.fftfreq(n, d=dx)
    psi = np.ones(n, dtype=complex)
    steps = max(1, math.ceil(t_final / cfg.dt))
    dt = t_final / steps
    for _ in range(steps):
        psi *= np.exp(0.5j * dt / P.eps * np.abs(psi) ** 2)
        psi = np.fft.ifft(np.exp(-0.5j * P.eps * dt * k * k) * np.fft.fft(psi))
        psi *= np.exp(0.5j * dt / P.eps * np.abs(psi) ** 2)
    return psi, np.exp(1j * P.q ** 2 * t_final / P.eps)


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            SolverConfig(P, 4.0, 1000, 1e-3, 0.1, (0.1,))  # not a power of two
        with pytest.raises(ValueError):
            SolverConfig(P, 1.0, 2048, 1e-3, 0.1, (0.1,))  # domain too small
        with pytest.raises(ValueError):
            SolverConfig(P, 4.0, 128, 1e-3, 0.1, (0.1,))   # dx too coarse
        with pytest.raises(ValueError):
            SolverConfig(P, 4.0, 2048, 1.0, 0.1, (0.1,))   # dt > dx

    def test_default_is_valid(self):
        cfg = default_config(P, 0.2, [0.1, 0.2])
        assert cfg.dx <= P.eps / (8 * P.q)
        assert cfg.half_width >= P.L + 4 * P.q * 0.2


class TestEvolve:
    def test_plane_wave_exact(self):
        psi, exact = _plane_wave_run(0.1)
        assert np.max(np.abs(psi - exact)) < 1e-10

    def test_zero_stays_zero(self):
        cfg = default_config(P, 0.05, [0.05])
        x = -cfg.half_width + cfg.dx * np.arange(cfg.grid_points)
        # zero initial data evolves trivially: check via the barrier run with q -> 0
        # by direct substep argument the phases are identity on zeros
        psi = np.zeros_like(x, dtype=complex)
        k = 2 * math.pi * np.fft.fftfreq(len(x), d=cfg.dx)
        psi *= np.exp(0.5j * cfg.dt / P.eps * np.abs(psi) ** 2)
        psi = np.fft.ifft(np.exp(-0.5j * P.eps * cfg.dt * k * k) * np.fft.fft(psi))
        assert np.all(psi == 0)

    def test_norm_conservation(self):
        cfg = default_config(P, 0.2, [0.0, 0.1, 0.2])
        snaps = evolve(cfg)
        norms = [math.sqrt(float(np.sum(np.abs(s.values) ** 2)) * cfg.dx) for s in snaps]
        assert abs(norms[-1] - norms[0]) < 1e-10 * norms[0]
        # the discrete norm approximates sqrt(2 L) q to grid accuracy
        assert abs(norms[0] - math.sqrt(2.0)) < 0.01

    def test_parity_preserved(self):
        cfg = default_config(P, 0.15, [0.15])
        v = evolve(cfg)[0].values
        mirrored = np.roll(v[::-1], 1)  # grid is symmetric up to the wrap node
        assert np.max(np.abs(v - mirrored)) < 1e-10

    def test_snapshots_land_exactly(self):
        times = [0.0, 0.0334, 0.1]
        snaps = evolve(default_config(P, 0.1, times))
        assert [s.t for s in snaps] == times

    def test_strang_order_on_smooth_data(self):
        # Gaussian data, fixed grid, halving dt: global error ~ dt^2
        p = P
        n, D, t_final = 2048, 4.0, 0.05
        dx = 2 * D / n
        x = -D + dx * np.arange(n)
        k = 2 * math.pi * np.fft.fftfreq(n, d=dx)

        def run(dt_steps):
            psi = np.exp(-x ** 2).astype(complex)
            dt = t_final / dt_steps
            for _ in range(dt_steps):
                psi *= np.exp(0.5j * dt / p.eps * np.abs(psi) ** 2)
                psi = np.fft.ifft(np.exp(-0.5j * p.eps * dt * k * k) * np.fft.fft(psi))
                psi *= np.exp(0.5j * dt / p.eps * np.abs(psi) ** 2)
            return psi

        ref = run(3200)
        e1 = np.max(np.abs(run(200) - ref))
        e2 = np.max(np.abs(run(400) - ref))
        order = math.log2(e1 / e2)
        assert 1.7 <= order <= 2.3

    def test_barrier_sampling_midpoint(self):
        cfg = default_config(P, 0.05, [0.05])
        x = -cfg.half_width + cfg.dx * np.arange(cfg.grid_points)
        psi0 = barrier_initial_data(x, P)
        at_edge = np.isclose(np.abs(x), P.L, rtol=0, atol=1e-12)
        assert np.all(psi0[at_edge] == 0.5 * P.q)
        assert np.all(psi0[np.abs(x) < P.L - 1e-9] == P.q)


def _unfused_strang(cfg):
    # the plain Strang loop: half rotation, linear step, half rotation, with
    # the step count and step size per interval that evolve uses
    n, dx, eps = cfg.grid_points, cfg.dx, cfg.params.eps
    x = -cfg.half_width + dx * np.arange(n)
    k = 2 * math.pi * np.fft.fftfreq(n, d=dx)
    psi = barrier_initial_data(x, cfg.params)
    out, t_now = [], 0.0
    for t_target in cfg.snapshot_times:
        span = t_target - t_now
        if span > 1e-15:
            n_steps = max(1, math.ceil(span / cfg.dt - 1e-12))
            dt_loc = span / n_steps
            lin_phase = np.exp(-0.5j * eps * dt_loc * k * k)
            for _ in range(n_steps):
                psi = psi * np.exp(0.5j * dt_loc / eps * np.abs(psi) ** 2)
                psi = np.fft.ifft(lin_phase * np.fft.fft(psi))
                psi = psi * np.exp(0.5j * dt_loc / eps * np.abs(psi) ** 2)
            t_now = t_target
        out.append(psi.copy())
    return out


class TestRotationFactor:
    ULP = np.finfo(float).eps  # the spacing of doubles at 1

    @staticmethod
    def _factor(theta):
        half = np.asarray(theta, dtype=float) / 2.0
        return _rotation_factor(half, np.empty_like(half), np.empty(half.shape, dtype=complex))

    def test_within_4_ulp_of_exp(self):
        # theta over [0, 1e3], and within 1e-6 of pi where tau = tan(theta/2)
        # passes 1e6 and 2/(1 + tau^2) - 1 nears -1
        theta = np.concatenate([np.linspace(0.0, 1e3, 1_000_001),
                                np.pi + np.linspace(-1e-6, 1e-6, 100_001), [np.pi]])
        rot = self._factor(theta)
        assert np.max(np.abs(rot - np.exp(1j * theta))) <= 4 * self.ULP
        assert np.max(np.abs(np.abs(rot) - 1.0)) <= 4 * self.ULP

    def test_exact_at_zero(self):
        assert self._factor([0.0])[0] == 1.0


class TestFusedStep:
    # a snapshot at t = 0, uneven intervals, and one interval of one step
    TIMES = (0.0, 0.0123, 0.0133, 0.03)

    def test_matches_unfused_strang(self):
        cfg = default_config(P, self.TIMES[-1], self.TIMES)
        spans = np.diff(self.TIMES)
        assert 0 < spans[1] <= cfg.dt < spans[0] < spans[2]
        snaps = evolve(cfg)
        ref = _unfused_strang(cfg)
        assert [s.t for s in snaps] == list(self.TIMES)
        for s, r in zip(snaps, ref):
            assert np.max(np.abs(s.values - r)) <= 1e-11
        # the field moved, so agreement is not trivial
        assert np.max(np.abs(snaps[-1].values - snaps[0].values)) > 0.1

    # the same schedule shape at the validate grids, N = 4096 and 8192
    VALIDATE_TIMES = (0.0, 1.23e-3, 1.25e-3, 3e-3)

    @pytest.mark.parametrize("eps", [0.05, 0.025])
    def test_matches_unfused_strang_at_the_validate_grids(self, eps):
        p = BarrierParams(1.0, 1.0, eps)
        cfg = default_config(p, self.VALIDATE_TIMES[-1], self.VALIDATE_TIMES, refine=2,
                             dt_divisor=32)
        assert cfg.grid_points == {0.05: 4096, 0.025: 8192}[eps]
        spans = np.diff(self.VALIDATE_TIMES)
        assert 0 < spans[1] <= cfg.dt < spans[0] < spans[2]
        snaps = evolve(cfg)
        ref = _unfused_strang(cfg)
        assert [s.t for s in snaps] == list(self.VALIDATE_TIMES)
        for s, r in zip(snaps, ref):
            assert np.max(np.abs(s.values - r)) <= 1e-11
        assert np.max(np.abs(snaps[-1].values - snaps[0].values)) > 0.1

    def test_snapshots_not_aliased(self):
        cfg = default_config(P, self.TIMES[-1], self.TIMES)
        snaps = evolve(cfg)
        x = snaps[0].x_nodes
        assert np.array_equal(snaps[0].values, barrier_initial_data(x, P))
        for i, a in enumerate(snaps):
            for b in snaps[i + 1:]:
                assert not np.shares_memory(a.values, b.values)
                assert not np.array_equal(a.values, b.values)


class TestInstability:
    TIMES = (0.0, 0.01, 0.02)

    def _assert_raised_at_first_step(self, monkeypatch, attr, corrupt, message):
        # evolve looks its transforms up on np.fft when it runs and keeps
        # what they return, so patching the module object reaches psi
        original = getattr(np.fft, attr)
        monkeypatch.setattr(np.fft, attr,
                            lambda *a, **kw: corrupt(original(*a, **kw)))
        cfg = default_config(P, self.TIMES[-1], self.TIMES)
        with pytest.raises(InstabilityError, match=message) as err:
            evolve(cfg)
        assert f"t = {self.TIMES[1]}" in str(err.value)
        (snap,) = err.value.snapshots
        assert snap.t == 0.0
        assert np.array_equal(snap.values, barrier_initial_data(snap.x_nodes, P))

    def test_norm_drift_raises(self, monkeypatch):
        self._assert_raised_at_first_step(monkeypatch, "ifft", lambda v: v * (1 + 1e-6),
                                          "L2 norm drifted")

    def test_nan_raises(self, monkeypatch):
        def poison(v):
            v[0] = np.nan
            return v
        self._assert_raised_at_first_step(monkeypatch, "fft", poison, "NaN detected")
