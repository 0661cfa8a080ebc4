"""Benchmark of the sqnls library: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload s2_field --seed 3 --seconds 20 --trace 0

The library is imported from ``src/`` of the checkout. With ``--trace 0``
the run measures the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced repetitions and reports the per-layer metrics. Every
repetition starts from the memo state of a fresh process. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; a fuller record, with machine information and
every failure, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 5
REFERENCE_FILE = Path(__file__).resolve().parent / "references.json"


def load_library():
    """Import sqnls from the checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sqnls
    except ImportError as exc:
        raise SystemExit(f"error: cannot import sqnls from {src}: {exc}")
    if not Path(sqnls.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: sqnls came from {sqnls.__file__}, not from {src}")
    return sqnls


def find_memos() -> list[tuple[str, object]]:
    """Process-wide memo tables of the library: module-level caches."""
    memos, seen = [], set()
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "sqnls" or modname.startswith("sqnls.")):
            continue
        for attr, val in vars(mod).items():
            if id(val) in seen:
                continue
            if isinstance(val, dict) and "cache" in attr.lower():
                memos.append((f"{modname}.{attr}", val.clear))
            elif callable(getattr(val, "cache_clear", None)) \
                    and getattr(val, "__module__", "").startswith("sqnls"):
                memos.append((f"{modname}.{attr}", val.cache_clear))
            else:
                continue
            seen.add(id(val))
    return memos


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import sqnls and build the inputs."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    return times


def run_rep(workloads, name: str, inputs, refs, memos) -> dict:
    """One repetition from cold memo state: wall time, latencies, failures."""
    for _, clear in memos:
        clear()
    batch = workloads.make_batch(name, inputs, refs)
    lat, failures = [], []
    perf = time.perf_counter
    start = perf()
    for label, op in batch.ops:
        t0 = perf()
        try:
            bad = op()
        except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
            bad = [f"{type(exc).__name__}: {exc}"]
        lat.append(perf() - t0)
        if bad:
            failures.append({"op": label, "checks": bad})
    wall = perf() - start
    k = batch.sample_size
    samples = [sum(lat[i:i + k]) / k for i in range(0, len(lat), k)]
    return {"wall": wall, "samples": samples, "attempted": len(batch.ops),
            "failures": failures, "observed": batch.observed}


def machine_info() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                if ln.startswith("model name")), None)
    except OSError:
        info["cpu"] = None
    for mod in ("numpy", "scipy"):
        info[mod] = getattr(sys.modules.get(mod), "__version__", None)
    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            sha = target.read_text().strip() if target.is_file() else None
        else:
            sha = ref
    info["git_sha"] = sha
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    info["source_sha256"] = digest.hexdigest()
    info["threads_env"] = {k: v for k, v in os.environ.items()
                           if k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return info


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the inputs, then exit (set-up timing)")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    load_library()
    # the harness modules import sqnls, so they load after the library path is set
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        workloads.build(args.workload, args.seed)
        return 0

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    inputs = workloads.build(args.workload, args.seed)
    refs_all = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    refs = refs_all[args.workload] if args.workload == "validate" \
        else refs_all[args.workload].get(str(args.seed))
    memos = find_memos()

    untraced, traced, per_rep, tracers = [], [], [], []
    count_mismatch = None
    t_begin = time.perf_counter()
    while True:
        untraced.append(run_rep(workloads, args.workload, inputs, refs, memos))
        if args.trace:
            tracer = tracing.Tracer()
            with tracer:
                traced.append(run_rep(workloads, args.workload, inputs, refs, memos))
            tracers.append(tracer)
            per_rep.append(tracer.metrics())
            if tracing.count_metrics(per_rep[-1]) != tracing.count_metrics(per_rep[0]):
                count_mismatch = (tracing.count_metrics(per_rep[0]),
                                  tracing.count_metrics(per_rep[-1]))
        elapsed = time.perf_counter() - t_begin
        step = elapsed / len(untraced)
        if elapsed + step > args.seconds:
            break

    reps = untraced + traced
    attempted = sum(r["attempted"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    walls = [r["wall"] for r in untraced]
    samples = [s for r in untraced for s in r["samples"]]
    observed = untraced[-1]["observed"]
    if args.trace:
        metrics = tracing.median_metrics(per_rep)
        metrics["trace_overhead"] = (statistics.median(r["wall"] for r in traced)
                                     / statistics.median(walls))
        metrics["validate.max_abs_err"] = observed.get(
            f"max_abs_err_eps{min(workloads.VALIDATE_EPS):g}", 0.0)
        wanted = spec["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "op_ms_p50": 1e3 * statistics.median(samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        wanted = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    missing = [n for n in units if n not in metrics]
    result_metrics = {n: {"value": metrics[n], "unit": units[n]} for n in units if n in metrics}

    tracer_notes = sorted({s for t in tracers for s in t.skipped})
    correct = not failures and count_mismatch is None
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_info(),
        "memos_reset": [n for n, _ in memos], "reference_checks": refs is not None,
        "repetitions": len(untraced), "traced_repetitions": len(traced),
        "op_samples": len(samples), "walls_s": walls, "setup_samples_s": setup,
        "observed": observed, "metrics": metrics, "skipped_metrics": missing,
        "skipped_functions": tracer_notes, "count_mismatch": count_mismatch,
        "failures": failures[:50], "failed": len(failures), "attempted": attempted,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracers:
        with open(OUT / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump([t.dump() for t in tracers], fh)

    for f in failures[:10]:
        print(f"FAILED {f['op']}: {'; '.join(f['checks'])}", file=sys.stderr)
    for name in tracer_notes:
        print(f"trace: {name} not found; metrics that need it are skipped", file=sys.stderr)
    if count_mismatch:
        print("trace: counts differ between traced repetitions", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} repetitions={len(untraced)} "
          f"op_samples={len(samples)} memos={[n for n, _ in memos]} "
          f"reference_checks={refs is not None} observed={json.dumps(observed)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
