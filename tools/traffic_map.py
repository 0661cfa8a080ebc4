"""Which lines of src/sqnls only the test suite reaches: a line map of four traffics.

Usage, from the root of a checkout:

    python3 tools/traffic_map.py

Each traffic runs in a fresh interpreter under a sys.settrace line tracer
that records the executed lines of src/sqnls, so no coverage package is
needed:

* perfbench: every operation of the three perfbench workloads, seeds 0 and 1;
* cli: every `sqnls` command of the README's sh examples, through the
  command line's entry function, with `--out` dropped;
* acceptance: pytest tests/test_acceptance.py;
* tests: pytest tests.

The first three are the program's traffic. For each module the script
prints how many statements it has, how many of them the traffic reaches and
how many only `pytest tests` does, and then the lines of the last. A
statement is counted at the line where it starts. Nothing is written into
the checkout: bytecode is not written, pytest runs without its cache and the
commands' output goes nowhere. Two traffics run at a time.
"""

from __future__ import annotations

import argparse
import ast
import collections
import json
import os
import shlex
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sqnls"
TRAFFIC = ("perfbench", "cli", "acceptance")
PYTEST_ARGS = ("-q", "-p", "no:cacheprovider")


def collect_lines(run, prefix: str) -> dict[str, set[int]]:
    """Call run() under a line tracer; the lines it executed, per file under prefix.

    A file counts when its path starts with prefix. The tracer in place
    before, if any, is put back afterwards.
    """
    hits: dict[str, set[int]] = collections.defaultdict(set)

    def on_line(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename.startswith(prefix) else None

    before = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(before)
    return dict(hits)


def readme_commands(text: str) -> list[list[str]]:
    """Argument lists of the `sqnls` lines in a README's sh blocks, each without --out."""
    commands, in_sh, line = [], False, ""
    for raw in text.splitlines():
        if raw.startswith("```"):
            in_sh = raw == "```sh"
            continue
        line += raw.strip()
        if in_sh and line.endswith("\\"):
            line = line[:-1] + " "
            continue
        if in_sh and line.startswith("sqnls "):
            words = shlex.split(line)[1:]
            if "--out" in words:
                del words[words.index("--out"):words.index("--out") + 2]
            commands.append(words)
        line = ""
    return commands


def statement_lines(path: Path) -> set[int]:
    """The first line of every statement in a module, docstrings left out."""
    return {node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.stmt)
            and not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                     and isinstance(node.value.value, str))}


def _run_perfbench():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for name in workloads.WORKLOADS:
        for seed in (0, 1):
            for _, op in workloads.make_batch(name, workloads.build(name, seed), None).ops:
                op()


def _run_cli():
    from sqnls import cli

    for argv in readme_commands((ROOT / "README.md").read_text(encoding="utf-8")):
        cli.main(argv)


def _run_pytest(path: Path):
    import pytest

    pytest.main([str(path), *PYTEST_ARGS])


RUNS = {"perfbench": _run_perfbench, "cli": _run_cli,
        "acceptance": lambda: _run_pytest(ROOT / "tests" / "test_acceptance.py"),
        "tests": lambda: _run_pytest(ROOT / "tests")}


def _child(traffic: str):
    # run one traffic with its output sent nowhere, then print its lines as JSON
    sink = os.fdopen(os.dup(1), "w")
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    sys.path.insert(0, str(ROOT / "src"))
    hits = collect_lines(RUNS[traffic], str(SRC))
    json.dump({Path(f).stem: sorted(lines) for f, lines in hits.items()}, sink)
    sink.close()


def _trace(traffic: str) -> tuple[dict[str, set[int]], float]:
    start = time.perf_counter()
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, __file__, "--traffic", traffic], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True, check=True)
    lines = {module: set(hit) for module, hit in json.loads(proc.stdout).items()}
    return lines, time.perf_counter() - start


def _ranges(lines: list[int]) -> str:
    runs: list[list[int]] = []
    for n in lines:
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def report():
    names = ("tests", *TRAFFIC)
    with ThreadPoolExecutor(max_workers=2) as pool:
        traced = dict(zip(names, pool.map(_trace, names)))
    for name in names:
        print(f"{name}: {traced[name][1]:.1f} s")
    print(f"\n{'module':16s} {'statements':>10s} {'traffic':>8s} {'tests only':>10s}")
    only = {}
    for path in sorted(SRC.glob("*.py")):
        module, stmts = path.stem, statement_lines(path)
        reached = set().union(*(traced[name][0].get(module, set()) for name in TRAFFIC)) & stmts
        only[module] = sorted((traced["tests"][0].get(module, set()) & stmts) - reached)
        print(f"{module:16s} {len(stmts):10d} {len(reached):8d} {len(only[module]):10d}")
    print()
    for module, lines in only.items():
        if lines:
            print(f"{module}: {_ranges(lines)}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--traffic", choices=sorted(RUNS), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.traffic:
        _child(args.traffic)
    else:
        report()
