import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sqnls
from sqnls import phase_geometry
from sqnls.cli import load_config, main
from sqnls.field import breaking_curves, classify, endpoint_table, sample_grid
from sqnls.nls_direct import evolve, validation_config
from sqnls.phase_geometry import PinchPointError, first_breaking_time, second_breaking_time
from sqnls.scattering import BarrierParams
from sqnls.specfun import QuadratureConvergenceError

P = BarrierParams(1.0, 1.0, 0.1)


def _run_python(*args: str) -> subprocess.CompletedProcess:
    # a fresh interpreter with the package's source on its path
    src = str(Path(sqnls.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


class TestClassify:
    def test_exterior(self):
        assert classify(2.0, 0.5, P).label == "S0"
        assert classify(-1.5, 0.0, P).label == "S0"

    def test_plane_wave_window(self):
        reg = classify(0.0, 0.15, P)
        assert reg.label == "S1"
        assert abs(reg.T1 - 0.35355339059327373) < 1e-15

    def test_oscillatory_window(self):
        reg = classify(0.25, 0.3, P)
        assert reg.label == "S2"
        assert reg.T1 < 0.3 < reg.T2

    def test_boundaries_beyond_scope(self):
        assert classify(1.0, 0.2, P).label == "beyond_scope"
        t1 = first_breaking_time(0.3, P)
        assert classify(0.3, t1, P).label == "beyond_scope"
        t2 = second_breaking_time(0.3, P)
        assert classify(0.3, t2 + 0.01, P).label == "beyond_scope"

    def test_origin_pinch(self):
        # at x = 0 the window between the breaking curves has zero width
        assert classify(0.0, 0.5, P).label == "beyond_scope"

    @pytest.mark.parametrize("gap", [1e-6, 1e-9])
    def test_barrier_edge_without_t2(self, monkeypatch, gap):
        # within 3.7e-6 L of |x| = L the T2 search stops at the endpoint
        # solver's floor: T2 reads as empty and past T1 is beyond scope
        import sqnls.field

        monkeypatch.setattr(sqnls.field, "_T2_CACHE", {})
        x = (1.0 - gap) * P.L
        t1 = first_breaking_time(x, P)
        assert classify(x, 0.5 * t1, P).label == "S1"
        reg = classify(x, 0.5, P)
        assert (reg.label, reg.T2) == ("beyond_scope", None)
        row = breaking_curves(x, x, 1, P)[1]
        assert row.endswith(",") and float(row.split(",")[1]) == t1

    def test_only_a_pinch_point_leaves_t2_empty(self, monkeypatch):
        import sqnls.field

        def fail(x, p):
            raise RuntimeError("double-root residuals too large")

        monkeypatch.setattr(sqnls.field, "_T2_CACHE", {})
        monkeypatch.setattr(sqnls.field, "second_breaking_time", fail)
        with pytest.raises(RuntimeError, match="residuals too large"):
            classify(0.41, 0.4, P)
        assert sqnls.field._T2_CACHE == {}

        def pinch(x, p):
            raise PinchPointError("no root pair just past T1(x)")

        monkeypatch.setattr(sqnls.field, "second_breaking_time", pinch)
        reg = classify(0.41, 0.4, P)
        assert (reg.label, reg.T2) == ("beyond_scope", None)

    def test_t2_memo_keyed_in_units_of_l(self, monkeypatch):
        # at L = 1e-9, x = 0.3 L and 0.3004 L are two memo entries, not one
        import sqnls.field

        monkeypatch.setattr(sqnls.field, "_T2_CACHE", {})
        p = BarrierParams(1.0, 1e-9, 0.1)
        classify(0.3e-9, 4e-10, p)
        assert classify(0.3004e-9, 4e-10, p).T2 == second_breaking_time(0.3004e-9, p)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            classify(0.0, -0.1, P)

    def test_t2_memoized(self):
        import time
        t0 = time.time()
        classify(0.37, 0.4, P)
        first = time.time() - t0
        t0 = time.time()
        for _ in range(50):
            classify(0.37, 0.4, P)
        assert time.time() - t0 < max(first, 0.05)

    def test_t2_memo_shared_across_eps(self, monkeypatch):
        # T2(x) depends on q and L only, so a second eps reuses the search
        import sqnls.field

        searches = []

        def counting(x, p):
            searches.append((x, p.eps))
            return second_breaking_time(x, p)

        monkeypatch.setattr(sqnls.field, "_T2_CACHE", {})
        monkeypatch.setattr(sqnls.field, "second_breaking_time", counting)
        regs = [classify(0.37, 0.4, BarrierParams(1.0, 1.0, eps)) for eps in (0.1, 0.05)]
        assert searches == [(0.37, 0.1)]
        assert regs[0] == regs[1]


class TestSampleGrid:
    def test_all_exterior_zero(self):
        res = sample_grid((1.5, 2.5), (0.1, 0.3), (5, 2), P, "asymptotic")
        assert res["asymptotic"].shape == (2, 5)
        assert np.all(res["asymptotic"] == 0)
        assert all(reg.label == "S0" for row in res["regions"] for reg in row)

    def test_plane_wave_rows(self):
        res = sample_grid((-0.4, 0.4), (0.05, 0.1), (5, 2), P, "asymptotic")
        assert np.allclose(np.abs(res["asymptotic"]), P.q)

    def test_partition_property(self):
        res = sample_grid((-1.5, 1.5), (0.05, 0.45), (7, 3), P, "asymptotic")
        for row in res["regions"]:
            for reg in row:
                assert reg.label in ("S0", "S1", "S2", "beyond_scope")

    def test_beyond_scope_is_nan_marker(self):
        res = sample_grid((0.9, 1.1), (0.05, 0.1), (3, 2), P, "asymptotic")
        j = [reg.label for reg in res["regions"][0]].index("beyond_scope")
        assert math.isnan(res["asymptotic"][0, j].real)

    def test_both_mode_fields_agree_in_s1(self):
        p = BarrierParams(1.0, 1.0, 0.2)
        res = sample_grid((-0.4, 0.4), (0.05, 0.1), (5, 2), p, "both")
        assert {reg.label for row in res["regions"] for reg in row} == {"S1"}
        assert np.max(np.abs(res["numeric"] - res["asymptotic"])) < 0.5

    def test_numeric_mode_uses_validation_config(self):
        p = BarrierParams(1.0, 1.0, 0.2)
        xs = np.linspace(-1.5, 1.5, 7)
        res = sample_grid((-1.5, 1.5), (0.05, 0.1), (7, 2), p, "numeric")
        snaps = evolve(validation_config(p, 0.1, [0.05, 0.1]))
        for row, snap in zip(res["numeric"], snaps):
            ref = (np.interp(xs, snap.x_nodes, snap.values.real)
                   + 1j * np.interp(xs, snap.x_nodes, snap.values.imag))
            assert np.array_equal(row, ref)

    def test_untyped_point_error_propagates(self, monkeypatch):
        import sqnls.field

        def broken(x, t, p, region=None):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(sqnls.field, "psi_asymptotic", broken)
        with pytest.raises(RuntimeError, match="injected fault"):
            sample_grid((-0.4, 0.4), (0.05, 0.1), (3, 2), P, "asymptotic")

    def test_order_independence(self):
        res1 = sample_grid((-0.4, 0.4), (0.05, 0.1), (5, 2), P, "asymptotic")
        vals = res1["asymptotic"].copy()
        res2 = sample_grid((-0.4, 0.4), (0.05, 0.1), (5, 2), P, "asymptotic")
        assert np.array_equal(vals, res2["asymptotic"], equal_nan=True)

    def test_resolution_validated(self):
        with pytest.raises(ValueError):
            sample_grid((0, 1), (0, 1), (1, 2), P, "asymptotic")
        with pytest.raises(ValueError):
            sample_grid((0, 1), (0, 1), (3, 3), P, "plot")


class TestCliOutput:
    def test_classify_line(self, capsys):
        main(["--eps", "0.1", "classify", "--x", "2", "--t", "0.5"])
        assert capsys.readouterr().out == "S0,,\n"
        main(["--eps", "0.1", "classify", "--x", "0", "--t", "0.15"])
        out = capsys.readouterr().out
        assert out.startswith("S1,0.35355339059327")
        assert out.endswith(",\n")

    def test_readme_classify_example(self, capsys):
        # the README's classify example and the "# ->" line under it
        lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
        i = next(k for k, line in enumerate(lines)
                 if line.startswith("sqnls ") and " classify " in line)
        argv = lines[i].split()[1:]
        assert argv == ["--q", "1", "--L", "1", "--eps", "0.1",
                        "classify", "--x", "0.25", "--t", "0.3"]
        assert lines[i + 1].startswith("# -> ")
        main(argv)
        assert capsys.readouterr().out == lines[i + 1][len("# -> "):] + "\n"

    def test_breaking_curves_format(self, tmp_path):
        out = tmp_path / "curves.csv"
        main(["--eps", "0.1", "breaking-curves", "--x-min", "0.3", "--x-max", "0.6",
              "--nx", "3", "--out", str(out)])
        raw = out.read_bytes()
        assert not raw.startswith(b"\xef\xbb\xbf")  # no BOM
        assert b"\r" not in raw                     # LF endings
        lines = raw.decode("utf-8").splitlines()
        assert lines[0] == "x,T1,T2"
        assert len(lines) == 4
        for line in lines[1:]:
            x, t1, t2 = line.split(",")
            assert float(t2) > float(t1)

    def test_breaking_curves_pinch_empty_field(self):
        lines = breaking_curves(0.0, 0.5, 2, P)
        x0_row = lines[1]
        assert x0_row.endswith(",")  # T2 search fails at the pinch point

    def test_breaking_curves_outside_support(self):
        # T1 is defined only for |x| < L, so |x| >= L rows carry empty fields
        assert breaking_curves(1.0, 1.5, 2, P) == ["x,T1,T2", "1,,", "1.5,,"]

    def test_psi_asymptotic_beyond_scope_raises(self):
        from sqnls.field import psi_asymptotic
        from sqnls.genus0 import RegionError

        reg = classify(0.0, 0.5, P)
        assert reg.label == "beyond_scope"
        with pytest.raises(RegionError, match="beyond the covered regions"):
            psi_asymptotic(0.0, 0.5, P)

    def test_field_csv(self, capsys):
        main(["--eps", "0.2", "field", "--x-min", "-1.5", "--x-max", "1.5", "--nx", "5",
              "--t-min", "0.05", "--t-max", "0.1", "--nt", "2", "--mode", "asymptotic"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x,t,region,re_psi,im_psi,abs_psi"
        assert len(lines) == 1 + 5 * 2
        regions = {line.split(",")[2] for line in lines[1:]}
        assert regions <= {"S0", "S1", "S2", "NA"}

    def test_field_both_mode_compares(self, capsys):
        args = ["--eps", "0.2", "field", "--x-min", "-1.5", "--x-max", "1.5", "--nx", "7",
                "--t-min", "0.05", "--t-max", "0.4", "--nt", "3", "--mode"]
        out = {}
        for mode in ("asymptotic", "numeric", "both"):
            assert main(args + [mode]) == 0
            out[mode] = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        both = out["both"]
        assert both[0] == ["x", "t", "region", "re_psi", "im_psi", "abs_psi",
                           "re_num", "im_num", "abs_num", "abs_err"]
        assert len(both) == len(out["asymptotic"]) == 1 + 7 * 3
        for row, asy, num in zip(both[1:], out["asymptotic"][1:], out["numeric"][1:]):
            assert row[:6] == asy
            assert row[6:9] == num[3:6]
            if asy[3] == "":
                assert row[9] == ""
            else:
                diff = complex(float(row[6]), float(row[7])) - complex(float(row[3]), float(row[4]))
                assert abs(float(row[9]) - abs(diff)) <= 1e-15 * max(1.0, abs(diff))
        # the grid holds beyond-scope points, whose solver values are still printed
        assert any(row[2] == "NA" and row[9] == "" and row[6] != "" for row in both[1:])

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["--eps", "0.2", "field", "--x-min", "-1", "--x-max", "1", "--nx", "4",
                "--t-min", "0.05", "--t-max", "0.1", "--nt", "2", "--mode", "asymptotic"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_endpoint_line(self):
        line = endpoint_table(0.9, P)[1]
        parts = line.split(",")
        assert len(parts) == 9
        mu, m, re_a, im_a, omega, eta, t0, y0, h = map(float, parts)
        assert mu == 0.9
        assert 0 < m < 1
        assert h < 0
        # recorded values: Y0 enters psi only as a phase, so a wrong gap
        # moment or Y0 residue leaves every |psi| check unmoved
        ref = (-0.62410694218366525, 0.25393310309603201, -0.22604680112709505,
               1.7064617693078767, -3.6338133795756793)
        assert np.max(np.abs(np.array([omega, eta, t0, y0, h]) - ref)) < 1e-11

    def test_endpoint_command(self, capsys):
        # the defaults q = L = 1, eps = 0.1 are P
        assert main(["endpoint", "--mu", "0.9"]) == 0
        assert capsys.readouterr().out.splitlines() == endpoint_table(0.9, P)
        assert endpoint_table(0.9, P)[0] == "mu,m,re_alpha,im_alpha,Omega,eta,T0,Y0,H"

    def test_endpoint_command_fails_cleanly(self, capsys):
        # at mu = 1e-3 the segment pass alpha* -> alpha does not converge:
        # the command prints no CSV, only the error, as field does
        assert main(["endpoint", "--mu", "1e-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("sqnls endpoint: adaptive quadrature: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("mu", ["1e-7", "2"])
    def test_endpoint_mu_outside_the_solver_range(self, capsys, mu):
        # below endpoint_mu_floor(q) and past sqrt2 q: a typed error, exit 1
        assert main(["endpoint", "--mu", mu]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("sqnls endpoint: ")
        assert captured.err.count("\n") == 1

    def test_endpoint_table_inverts_mu_once(self, monkeypatch):
        calls = []
        v_from_mu = phase_geometry._v_from_mu
        monkeypatch.setattr(phase_geometry, "_v_from_mu",
                            lambda mu, q: calls.append(mu) or v_from_mu(mu, q))
        endpoint_table(0.9, P)
        assert calls == [0.9]

    def test_endpoint_far_from_unit_scale(self, capsys):
        # the ray's T2 search is stated in the units L and L/q
        assert main(["--L", "1e-9", "endpoint", "--mu", "0.9"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and len(lines[1].split(",")) == 9
        # at L = 1e7 the modulation constants may fail; the command then
        # reports it and exits 1, never with a traceback
        proc = _run_python("-m", "sqnls.cli", "--L", "1e7", "endpoint", "--mu", "0.9")
        assert "Traceback" not in proc.stderr
        if proc.returncode == 0:
            assert len(proc.stdout.splitlines()) == 2
        else:
            assert proc.returncode == 1 and proc.stdout == ""
            assert proc.stderr.splitlines()[-1].startswith("sqnls endpoint: ")

    def test_validate_command(self, tmp_path):
        out = tmp_path / "val.csv"
        main(["--eps", "0.1", "validate", "--eps-list", "0.1", "--out", str(out)])
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "eps,region,patch_lo,patch_hi,linf,l2"
        assert len(lines) == 4  # S1 row, S0 row, JSON summary
        summary = json.loads(lines[-1])
        assert lines[-1] == json.dumps(summary, sort_keys=True)
        assert summary["entries"][0]["region"] == "S1"
        assert summary["entries"][0]["linf"] < 0.5

    @pytest.mark.parametrize("q, L", [(2.0, 1.0), (1.0, 2.0), (3.0, 1.0), (1.0, 3.0)])
    def test_validate_patches_follow_q_and_L(self, tmp_path, q, L):
        out = tmp_path / "val.csv"
        assert main(["--q", str(q), "--L", str(L), "validate", "--eps-list", "0.1",
                     "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        s1, s0 = (line.split(",") for line in lines[1:3])
        p = BarrierParams(q, L, 0.1)
        # the windows scale with the barrier: S1 at t = 0.15 L/q, S0 at 0.2 L/q
        t_s1, t_s0 = 0.15 * (L / q), 0.2 * (L / q)
        assert json.loads(lines[-1])["t"] == t_s1
        x = validation_config(p, t_s0, [t_s1, t_s0]).x_nodes
        # S1: the printed range is the nodes compared, all of |x| <= L/2 before T1
        in_s1 = [xx for xx in x if abs(xx) <= 0.5 * L and t_s1 < first_breaking_time(xx, p)]
        assert s1[1] == "S1"
        assert (float(s1[2]), float(s1[3])) == (in_s1[0], in_s1[-1])
        assert float(s1[2]) == -float(s1[3]) and 0 < float(s1[3]) <= 0.5 * L
        assert float(s1[4]) < 0.5
        # S0: the nodes of [1.5 L, 2 L] outside the barrier, where the field is small
        in_s0 = x[(x >= 1.5 * L) & (x <= 2.0 * L)]
        assert s0[1] == "S0"
        assert (float(s0[2]), float(s0[3])) == (in_s0[0], in_s0[-1])
        assert in_s0[0] - 1.5 * L < x[1] - x[0] and 2.0 * L - in_s0[-1] <= x[1] - x[0]
        assert float(s0[4]) < 0.5

    def test_validate_empty_patch_fails(self, capsys, monkeypatch):
        # at q = 3 the default S1 time 0.05 is before T1(0) = 1 / (6 sqrt 2); at
        # --t 0.15 no point of |x| <= L/2 is still in S1
        assert main(["--q", "3", "validate", "--eps-list", "0.1", "--t", "0.15"]) != 0
        err = capsys.readouterr().err
        assert err.startswith("sqnls validate: the S1 patch holds no grid node")

        # the patches are checked before the solver runs
        def no_solve(cfg):
            raise AssertionError("evolve ran before the patch check")

        monkeypatch.setattr("sqnls.field.evolve", no_solve)
        assert main(["--q", "3", "validate", "--eps-list", "0.1", "--t", "0.15"]) == 1
        assert capsys.readouterr().err == err

    def test_field_reports_failed_points(self, capsys, monkeypatch):
        import sqnls.field

        orig = sqnls.field.psi_asymptotic

        def failing(x, t, p, region=None):
            if x == 0.0 and t == 0.05:
                raise QuadratureConvergenceError("injected failure", 0j, math.inf)
            return orig(x, t, p, region)

        args = ["--eps", "0.2", "field", "--x-min", "-1.5", "--x-max", "1.5", "--nx", "5",
                "--t-min", "0.05", "--t-max", "0.1", "--nt", "2", "--mode", "asymptotic"]
        assert main(args) == 0
        clean = capsys.readouterr().out.splitlines()
        monkeypatch.setattr(sqnls.field, "psi_asymptotic", failing)
        assert main(args) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        # the CSV is still written in full; only the failed row is empty
        assert len(lines) == len(clean) == 1 + 5 * 2
        diff = [(a, b) for a, b in zip(clean, lines) if a != b]
        assert diff == [(clean[3], "0,0.050000000000000003,S1,,,")]
        assert "1 point(s) failed" in captured.err
        assert "x = 0, t = 0.05" in captured.err
        assert "injected failure" in captured.err

    def test_module_entry_point_runs_without_warning(self):
        # sqnls/__init__ must not import the CLI module that `-m` executes
        proc = _run_python("-W", "error::RuntimeWarning", "-m", "sqnls.cli",
                           "classify", "--x", "0.3", "--t", "0.4")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("S2,")

    @pytest.mark.parametrize("argv", [
        "classify --x -1e-3 --t 0.1",
        "--L 1e-7 breaking-curves --x-min -2e-7 --x-max 2e-7 --nx 5",
    ])
    def test_negative_value_in_exponent_notation(self, capsys, argv):
        # argparse alone reads -1e-3 as an option; the value reaches its flag
        # as in the --x=-1e-3 form
        assert main(argv.split()) == 0
        out = capsys.readouterr().out
        assert main(re.sub(r" (-\d)", r"=\1", argv).split()) == 0
        assert capsys.readouterr().out == out

    def test_seventeen_digit_format(self, capsys):
        main(["--eps", "0.1", "classify", "--x", "0.1", "--t", "0.01"])
        out = capsys.readouterr().out
        t1 = out.split(",")[1]
        assert len(t1.replace(".", "").lstrip("0")) >= 16


@pytest.mark.parametrize("argv", [
    "--q 1e-7 classify --x 0.3 --t 1e6",
    "--L 1e7 classify --x 3e6 --t 3e6",
    "--q 1e7 breaking-curves --x-min -2 --x-max 2 --nx 5",
    "--q 1e-3 field --nx 5 --nt 2",
    "--L 1e7 field --nx 5 --nt 2",
    "--q 1e-7 endpoint --mu 0.9e-7",
    "endpoint --mu 1.414213562373",
    "classify --x -1e-3 --t 0.1",
    "--L 1e-7 breaking-curves --x-min -2e-7 --x-max 2e-7 --nx 5",
])
def test_command_exits_0_or_1_without_a_traceback(argv):
    # far from unit scale, and at the ends of the endpoint solver's range: a
    # command either succeeds or fails with one typed line on stderr
    proc = _run_python("-m", "sqnls.cli", *argv.split())
    assert "Traceback" not in proc.stderr
    assert proc.returncode in (0, 1), proc.stderr
    if proc.returncode == 1:
        command = next(a for a in argv.split() if a[0].isalpha())
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"sqnls {command}: ")


@pytest.mark.parametrize("argv", [
    "classify --x 0.3 --t nan",
    "classify --x nan --t 0.1",
    "classify --x 0.3 --t -1",
    "--eps nan classify --x 0.3 --t 0.1",
    "--q -1 classify --x 0.3 --t 0.1",
    "field --nx 1 --nt 2",
    "field --t-min nan",
    "validate --eps-list 0.05 --t -1",
    "breaking-curves --x-min nan --x-max 1 --nx 3",
])
def test_invalid_argument_exits_1(capsys, argv):
    # a NaN or out-of-range value is neither classified nor printed as a row:
    # the command writes one line naming it and exits 1
    assert main(argv.split()) == 1
    out, err = capsys.readouterr()
    command = next(a for a in argv.split() if a in ("classify", "field", "validate",
                                                    "breaking-curves"))
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"sqnls {command}: ")


class TestConfigFile:
    def test_roundtrip(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("# sample configuration\nq = 2.0\nL = 1.5  # half-width\neps = 0.3\n",
                            encoding="utf-8")
        cfg = load_config(str(cfg_file))
        assert cfg == {"q": "2.0", "L": "1.5", "eps": "0.3"}

    def test_cli_uses_config(self, capsys, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("q = 1.0\nL = 2.0\neps = 0.1\n", encoding="utf-8")
        main(["--config", str(cfg_file), "classify", "--x", "3.0", "--t", "0.1"])
        assert capsys.readouterr().out == "S0,,\n"
        # flag overrides config: L = 1 makes x = 3 still exterior but T1 differs
        main(["--config", str(cfg_file), "classify", "--x", "0.0", "--t", "0.1"])
        out = capsys.readouterr().out
        assert out.startswith("S1,")
        assert abs(float(out.split(",")[1]) - 2.0 / (2 * math.sqrt(2))) < 1e-12

    def test_malformed_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("q 2.0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_config(str(bad))
