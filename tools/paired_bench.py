"""Paired end-to-end benchmark of two checkouts of this repository.

Usage, from anywhere:

    python3 tools/paired_bench.py PARENT CHANGE --workload s2_field curves validate \
        --seeds 0 1 2 3 4 5 6 7 10 11 --seconds 25 --out BENCH_<n>.json \
        --claim s2_field:op_ms_p50

PARENT and CHANGE are the roots of two checkouts. For every workload, pair i
runs ``python3 perfbench/run.py --workload W --seed seeds[i] --seconds S
--trace 0`` once in each checkout, one process at a time; the parent runs
first in pairs 1, 3, 5, ... and second in the others. Only the last line of
each run's standard output is read, the JSON result that run.py prints.

The output file holds the machine, each side's sha256 of ``src/`` (the
digest run.py records), and per workload and metric the inclusive quartiles
of each side, every run and the number of pairs the change wins (a strictly
lower value). Its ``regressions`` list names every workload and end-to-end
metric whose change median is worse than the parent's by more than the
metric's ``BENCHMARK.json`` bound. ``--claim W:M`` adds whether the change
won at least 9 of 10 pairs on metric M of workload W by a median gap larger
than the parent's interquartile range, with every change run correct, no
larger share of failed operations than the parent's and an empty
``regressions`` list. Nothing in either checkout is edited.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

SIDES = ("parent", "change")


def source_sha256(root: Path) -> str:
    """sha256 over src/**/*.py, each file's relative path then its bytes."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       None)
    except OSError:
        pass
    info = {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            info[pkg] = None
    info["machine"] = platform.machine()
    return info


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run of root's perfbench/run.py: the JSON of its last output line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} failed: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise RuntimeError(f"{' '.join(cmd)} in {root}: the last output line is not JSON: "
                           f"{lines[-1][:2000]!r}") from None


def quartiles(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(results: dict, bounds: dict) -> dict:
    """Per-metric quartiles, runs and wins of one workload's pairs."""
    metrics = {}
    for name in results["parent"][0]["metrics"]:
        runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        parent_q, change_q = quartiles(runs["parent"]), quartiles(runs["change"])
        metrics[name] = {
            "unit": results["parent"][0]["metrics"][name]["unit"],
            "bound": bounds.get(name),
            "parent": parent_q,
            "change": change_q,
            "parent_runs": runs["parent"],
            "change_runs": runs["change"],
            "change_wins": sum(c < p for p, c in zip(runs["parent"], runs["change"])),
            "median_change_rel": change_q["median"] / parent_q["median"] - 1.0,
            "parent_iqr": parent_q["q3"] - parent_q["q1"],
        }
    return {
        "failed": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
        "correct": {side: all(r["correct"] for r in results[side]) for side in SIDES},
        "metrics": metrics,
    }


def regressions(summary: dict, end_to_end: list[dict]) -> list[dict]:
    """Every workload and end-to-end metric whose change median is worse than
    the parent's by more than the metric's relative bound.

    end_to_end is BENCHMARK.json's list of metrics, each with its name,
    bound and whether lower or higher is better.
    """
    found = []
    for workload, w in summary.items():
        for spec in end_to_end:
            m = w["metrics"].get(spec["name"])
            if m is None:
                continue
            worse = m["median_change_rel"] if spec["better"] == "lower" else -m["median_change_rel"]
            if worse > spec["bound"]:
                found.append({"workload": workload, "metric": spec["name"],
                              "parent_median": m["parent"]["median"],
                              "change_median": m["change"]["median"],
                              "median_change_rel": m["median_change_rel"],
                              "bound": spec["bound"]})
    return found


def claim(summary: dict, workload: str, metric: str, regressed: list[dict]) -> dict:
    """Whether the change's gain on one metric of one workload holds.

    It holds when the change wins at least 9 of 10 pairs, its median beats
    the parent's by more than the parent's interquartile range, every change
    run is correct, the change fails no larger share of its attempted
    operations than the parent and no metric regressed (regressed is what
    regressions() returns).
    """
    w = summary[workload]
    m = w["metrics"][metric]
    gap = m["parent"]["median"] - m["change"]["median"]
    pairs = len(m["parent_runs"])
    share = {side: w["failed"][side] / max(w["attempted"][side], 1) for side in SIDES}
    return {
        "workload": workload, "metric": metric,
        "parent_median": m["parent"]["median"], "change_median": m["change"]["median"],
        "change_max": max(m["change_runs"]), "change_wins": m["change_wins"],
        "median_gap": gap, "parent_iqr": m["parent_iqr"],
        "change_correct": w["correct"]["change"], "failed_share": share,
        "regressions": len(regressed),
        "met": (m["change_wins"] >= 0.9 * pairs and gap > m["parent_iqr"]
                and w["correct"]["change"] and share["change"] <= share["parent"]
                and not regressed),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True,
                    help="one pair of runs per seed")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--title", default="")
    ap.add_argument("--claim", help="WORKLOAD:METRIC whose gain the change claims")
    args = ap.parse_args(argv)

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workload:
        results = {side: [] for side in SIDES}
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                results[side].append(run_once(roots[side], workload, seed, args.seconds))
            print(f"{workload} pair {i + 1}/{len(args.seeds)} seed {seed}: " + "; ".join(
                f"{side} " + " ".join(f"{k}={v['value']:.4g}"
                                      for k, v in results[side][-1]["metrics"].items())
                for side in SIDES), file=sys.stderr)
        summary[workload] = {"seeds": args.seeds, "pairs": len(args.seeds),
                             **summarize(results, bounds)}

    record = {
        "title": args.title,
        "machine": machine(),
        "source_sha256": {side: source_sha256(roots[side]) for side in SIDES},
        "protocol": (f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                     "--trace 0, parent and change one process at a time, the side that runs "
                     "first alternating from pair to pair (parent first in pairs 1, 3, 5, ...); "
                     "quartiles are inclusive, a win is a strictly lower value"),
        "workloads": summary,
        "regressions": regressions(summary, spec["end_to_end"]),
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        record["claim"] = claim(summary, workload, metric, record["regressions"])
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
