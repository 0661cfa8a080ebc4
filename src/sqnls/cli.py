"""The command line: classification, breaking curves, grid fields, validation runs, endpoints.

Output files are plain CSV (LF endings, UTF-8, no BOM, '.' decimal) with
every number printed to 17 significant digits, so identical configurations
reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .field import _POINT_ERRORS, _fmt, breaking_curves, classify, sample_grid
from .genus0 import psi_asy_g0
from .genus1 import modulation_constants, solve_endpoint
from .nls_direct import evolve, validation_config
from .phase_geometry import first_breaking_time, ray_breaking_time
from .scattering import BarrierParams

__all__ = ["endpoint_line", "load_config", "main"]


def endpoint_line(mu: float, p: BarrierParams) -> str:
    """CSV row for the endpoint command, evaluated at the ray midpoint.

    The modulation constants need a concrete (x, t); the canonical choice is
    the midpoint t = T2_ray/2 of the oscillatory window on the ray of
    constant mu through (L, 0).
    """
    state = solve_endpoint(mu, p.q)
    t2_ray = ray_breaking_time(mu, p)
    t_ref = 0.5 * t2_ray
    x_ref = p.L - 2.0 * mu * t_ref
    mods = modulation_constants(state.alpha, x_ref, t_ref, p)
    vals = [mu, state.m, state.alpha.real, state.alpha.imag,
            mods.Omega, mods.eta, mods.T0, mods.Y0, mods.H]
    return ",".join(_fmt(v) for v in vals)


def load_config(path: str) -> dict:
    """Flat key = value file, '#' comments, UTF-8."""
    cfg: dict = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            cfg[key] = val
    return cfg


def _pick(args, cfg: dict, name: str, default):
    """The flag if given, else the config value, else default, as type(default)."""
    v = getattr(args, name, None)
    if v is None:
        v = cfg.get(name, default)
    return type(default)(v)


def _params_from(args, cfg: dict) -> BarrierParams:
    return BarrierParams(q=_pick(args, cfg, "q", 1.0), L=_pick(args, cfg, "L", 1.0),
                         eps=_pick(args, cfg, "eps", 0.1))


def _write_lines(lines: list[str], out_path: str | None):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="sqnls",
                                 description="semiclassical square-barrier NLS asymptotics")
    ap.add_argument("--config", help="flat key = value configuration file")
    for name in ("q", "L", "eps"):
        ap.add_argument(f"--{name}", type=float)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="region of a single space-time point")
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--t", type=float, required=True)

    sp = sub.add_parser("breaking-curves", help="T1 and T2 over an x grid")
    sp.add_argument("--x-min", type=float, required=True)
    sp.add_argument("--x-max", type=float, required=True)
    sp.add_argument("--nx", type=int, required=True)
    sp.add_argument("--out")

    sp = sub.add_parser("field", help="sample the asymptotic/numeric field on a grid")
    for name in ("x-min", "x-max", "t-min", "t-max"):
        sp.add_argument(f"--{name}", type=float)
    sp.add_argument("--nx", type=int)
    sp.add_argument("--nt", type=int)
    sp.add_argument("--mode", choices=("asymptotic", "numeric", "both"))
    sp.add_argument("--out")

    sp = sub.add_parser("validate", help="asymptotics vs direct solver error scan")
    sp.add_argument("--eps-list", default="0.05,0.025")
    sp.add_argument("--t", type=float, default=0.15)
    sp.add_argument("--out")

    sp = sub.add_parser("endpoint", help="genus-1 endpoint and modulation constants")
    sp.add_argument("--mu", type=float, required=True)

    args = ap.parse_args(argv)
    cfg = load_config(args.config) if args.config else {}
    p = _params_from(args, cfg)

    if args.command == "classify":
        reg = classify(args.x, args.t, p)
        sys.stdout.write(f"{reg.label},{_fmt(reg.T1)},{_fmt(reg.T2)}\n")
        return 0

    if args.command == "breaking-curves":
        _write_lines(breaking_curves(args.x_min, args.x_max, args.nx, p), args.out)
        return 0

    if args.command == "field":
        x_min = _pick(args, cfg, "x_min", -2.0)
        x_max = _pick(args, cfg, "x_max", 2.0)
        t_min = _pick(args, cfg, "t_min", 0.05)
        t_max = _pick(args, cfg, "t_max", 0.2)
        nx = _pick(args, cfg, "nx", 41)
        nt = _pick(args, cfg, "nt", 4)
        mode = _pick(args, cfg, "mode", "asymptotic")
        res = sample_grid((x_min, x_max), (t_min, t_max), (nx, nt), p, mode)
        both = mode == "both"
        header = "x,t,region,re_psi,im_psi,abs_psi"
        lines = [header + ",re_num,im_num,abs_num,abs_err" if both else header]
        key = "asymptotic" if mode != "numeric" else "numeric"
        for i, fld in enumerate(res[key]):
            for j, x in enumerate(fld.x_nodes):
                lab = fld.region_labels[j]
                lab_out = lab if lab != "beyond_scope" else "NA"
                v = fld.values[j]
                row = f"{_fmt(float(x))},{_fmt(fld.t)},{lab_out},"
                empty = np.isnan(v.real)
                row += ",," if empty else f"{_fmt(v.real)},{_fmt(v.imag)},{_fmt(abs(v))}"
                if both:
                    u = res["numeric"][i].values[j]
                    row += f",{_fmt(u.real)},{_fmt(u.imag)},{_fmt(abs(u))},"
                    row += "" if empty else _fmt(abs(u - v))
                lines.append(row)
        _write_lines(lines, args.out)
        errors = res["errors"]
        if errors:
            first = errors[0]
            sys.stderr.write(f"sqnls field: {len(errors)} point(s) failed and were left empty; "
                             f"first at x = {first['x']:g}, t = {first['t']:g}: "
                             f"{first['error']}\n")
            return 1
        return 0

    if args.command == "validate":
        eps_list = [float(s) for s in args.eps_list.split(",") if s]
        t_s1 = args.t
        times = sorted({t_s1, 0.2})
        # every eps's patches are checked before any solver runs. S1: the
        # middle half of the barrier before the first breaking curve; S0: a
        # window outside the barrier
        runs = []
        for eps in eps_list:
            pe = BarrierParams(p.q, p.L, eps)
            cfg_run = validation_config(pe, times[-1], times)
            x = cfg_run.x_nodes
            s1 = np.array([abs(xx) <= 0.5 * pe.L and t_s1 < first_breaking_time(float(xx), pe)
                           for xx in x])
            s0 = (x >= pe.L + 0.5) & (x <= pe.L + 1.0)
            for name, mask in (("S1", s1), ("S0", s0)):
                if not np.any(mask):
                    sys.stderr.write(f"sqnls validate: the {name} patch holds no grid node "
                                     f"(q = {pe.q:g}, L = {pe.L:g}, eps = {eps:g}, t = {t_s1:g})\n")
                    return 1
            runs.append((eps, pe, cfg_run, x, s1, s0))
        lines = ["eps,region,patch_lo,patch_hi,linf,l2"]
        summary: dict = {"t": args.t, "entries": []}
        for eps, pe, cfg_run, x, s1, s0 in runs:
            snaps = evolve(cfg_run)
            snap_s1 = snaps[times.index(t_s1)]
            snap_s0 = snaps[times.index(0.2)]
            asy = np.array([psi_asy_g0(float(xx), t_s1, pe) for xx in x[s1]])
            diff = np.abs(snap_s1.values[s1] - asy)
            linf, l2 = float(np.max(diff)), float(math.sqrt(np.mean(diff ** 2)))
            lines.append(f"{_fmt(eps)},S1,{_fmt(float(x[s1][0]))},{_fmt(float(x[s1][-1]))},"
                         f"{_fmt(linf)},{_fmt(l2)}")
            summary["entries"].append({"eps": eps, "region": "S1", "linf": linf, "l2": l2})
            tail = np.abs(snap_s0.values[s0])
            linf0 = float(np.max(tail))
            lines.append(f"{_fmt(eps)},S0,{_fmt(float(x[s0][0]))},{_fmt(float(x[s0][-1]))},"
                         f"{_fmt(linf0)},{_fmt(float(math.sqrt(np.mean(tail ** 2))))}")
            summary["entries"].append({"eps": eps, "region": "S0", "linf": linf0})
        lines.append(json.dumps(summary, sort_keys=True))
        _write_lines(lines, args.out)
        return 0

    if args.command == "endpoint":
        try:
            row = endpoint_line(args.mu, p)
        except _POINT_ERRORS as exc:
            sys.stderr.write(f"sqnls endpoint: {exc}\n")
            return 1
        sys.stdout.write("mu,m,re_alpha,im_alpha,Omega,eta,T0,Y0,H\n" + row + "\n")
        return 0

    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
