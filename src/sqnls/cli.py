"""The command line: arguments, the config file and dispatch to the tables of sqnls.field.

Every command's output is a list of lines that sqnls.field makes. Output
files are plain CSV (LF endings, UTF-8, no BOM, '.' decimal) with every
number printed to 17 significant digits, so identical configurations
reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import re
import sys

from .field import (TableError, breaking_curves, classify_table, endpoint_table, field_table,
                    validate_table)
from .scattering import BarrierParams

__all__ = ["load_config", "main"]

# options read from their flag, else from the config file, with their types
BARRIER_OPTIONS = {"q": float, "L": float, "eps": float}
FIELD_OPTIONS = {"x_min": float, "x_max": float, "t_min": float, "t_max": float,
                 "nx": int, "nt": int, "mode": str}


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


def _options(args, cfg: dict, types: dict) -> dict:
    """Each option given by its flag, else by the config file; the others are left out."""
    given = {name: getattr(args, name, None) for name in types}
    given = {name: cfg.get(name) if v is None else v for name, v in given.items()}
    return {name: types[name](v) for name, v in given.items() if v is not None}


def _table(args, cfg: dict, p: BarrierParams) -> list[str]:
    if args.command == "classify":
        return classify_table(args.x, args.t, p)
    if args.command == "breaking-curves":
        return breaking_curves(args.x_min, args.x_max, args.nx, p)
    if args.command == "field":
        return field_table(p, **_options(args, cfg, FIELD_OPTIONS))
    if args.command == "validate":
        return validate_table(p, [float(s) for s in args.eps_list.split(",") if s], args.t)
    return endpoint_table(args.mu, p)


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
    for name in BARRIER_OPTIONS:
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
    for name, kind in FIELD_OPTIONS.items():
        if name != "mode":
            sp.add_argument("--" + name.replace("_", "-"), type=kind)
    sp.add_argument("--mode", choices=("asymptotic", "numeric", "both"))
    sp.add_argument("--out")

    sp = sub.add_parser("validate", help="asymptotics vs direct solver error scan")
    sp.add_argument("--eps-list", default="0.05,0.025")
    sp.add_argument("--t", type=float)
    sp.add_argument("--out")

    sp = sub.add_parser("endpoint", help="genus-1 endpoint and modulation constants")
    sp.add_argument("--mu", type=float, required=True)

    # argparse's pattern for negative numbers has no exponent (Python 3.11) and no
    # public hook, so it reads -1e-3 as an option: each parser gets one with it
    negative_number = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    for parser in (ap, *sub.choices.values()):
        parser._negative_number_matcher = negative_number
    args = ap.parse_args(argv)
    out = getattr(args, "out", None)
    try:
        cfg = load_config(args.config) if args.config else {}
        p = BarrierParams(**({"q": 1.0, "L": 1.0, "eps": 0.1}
                             | _options(args, cfg, BARRIER_OPTIONS)))
        lines = _table(args, cfg, p)
    except (TableError, ValueError) as exc:
        if getattr(exc, "lines", None):
            _write_lines(exc.lines, out)
        sys.stderr.write(f"sqnls {args.command}: {exc}\n")
        return 1
    _write_lines(lines, out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
