"""Benchmark of the credal library: time to solution, accuracy against oracles, per-layer counts.

Run from the repository root::

    python3 bench/run.py --workload soft_set --seed 0 --seconds 16 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

Each workload runs in fresh worker processes with ``PYTHONPATH=src`` and
one BLAS/OpenMP thread.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1``
it carries the per-layer metrics of a separate traced run.  The lines
before it are a human-readable table and a JSON detail line with every
sample, the check tallies and the provenance.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("soft_set", "exact_set", "estimate", "robust_train")
SETUP_RUNS = 3  # set-up samples per run: two set-up-only processes plus the timed one
IMPORT_RUNS = 3
DEADLINE_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "fail_frac": "ratio",
    "err_over_tol": "ratio",
}


def _layer(fn: str, *stats: str) -> dict:
    units = {"calls": "count", "evals": "count", "points": "count", "self_s": "s", "bytes": "bytes"}
    return {f"{fn}.{s}": units[s] for s in stats}


PER_LAYER = {
    **_layer("measures.adaptive_simpson", "calls", "evals", "self_s"),
    **_layer("measures.gauss_hermite_expectation", "calls", "evals"),
    **_layer("measures.prob_matrix", "calls", "points", "self_s"),
    **_layer("measures.pdf", "calls"),
    **_layer("measures.joint_tv_exact", "calls", "self_s"),
    **_layer("measures.expected_conditional_tv", "calls", "self_s"),
    **_layer("measures.tv_env", "calls", "self_s"),
    **_layer("measures.sup_conditional_tv", "calls", "self_s"),
    **_layer("sets.diameter_bounds", "calls", "self_s"),
    **_layer("sets.pairwise_bounds", "calls", "self_s"),
    **_layer("sets.component_diameters", "calls", "self_s"),
    **_layer("harness.run", "calls", "self_s"),
    **_layer("harness.config_hash", "calls"),
    "harness.rows": "count",
    "harness.csv_bytes": "bytes",
    **_layer("estimation.disagreement_hard_from_labels", "calls", "self_s"),
    **_layer("estimation.read_annotations", "self_s", "bytes"),
    **_layer("estimation.write_annotations", "self_s", "bytes"),
    **_layer("estimation.certificate", "calls"),
    **_layer("synthgen.sample_hard_arrays", "calls", "self_s"),
    **_layer("synthgen.sample_annotated", "calls", "self_s"),
    **_layer("dro.train", "calls", "self_s"),
    **_layer("dro.world_risks", "calls", "self_s"),
    **_layer("dro.brute_force_minimax", "calls", "self_s"),
    "dro.train.steps": "count",
    "dro.train.useful_frac": "ratio",
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "import.credal_s": "s",
    "trace.overhead": "ratio",
}


class BenchError(RuntimeError):
    """A worker failed or an oracle check could not run."""


def _env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # keep bytecode out of src/: the benchmark writes only under .bench_out
    env["PYTHONPYCACHEPREFIX"] = str(root / ".bench_out" / "pycache")
    return env


def _spawn(args: list[str], env: dict, deadline: float) -> dict:
    """Run the worker to completion and return its JSON line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before a worker could start")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args, "--t0", repr(t0)],
            env=env, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} did not finish within the time budget") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "samples": len(values)}


def _provenance(root: Path, env: dict) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_sha = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest()[:16],
        "threads": {k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "jobs": 1,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: Path, env: dict, deadline: float) -> dict:
    out_root = root / ".bench_out"
    out_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=out_root))
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--out", str(tmp)]
    load_before = os.getloadavg()
    try:
        if trace:
            imports = [_spawn(["--mode", "imports"], env, deadline) for _ in range(IMPORT_RUNS)]
            spans = out_root / f"spans-{workload}-seed{seed}.npz"
            res = _spawn(["--mode", "traced", *base, "--spans", str(spans)], env, deadline)
        else:
            setups = [_spawn(["--mode", "setup", *base], env, deadline) for _ in range(SETUP_RUNS - 1)]
            res = _spawn(["--mode", "timed", *base], env, deadline)
            setups.append(res)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if res["error"]:
        sys.stderr.write(res["error"])
        raise BenchError(f"a {workload} job raised; no metrics reported")
    checks = res["checks"]
    metrics: dict[str, dict] = {}
    if trace:
        layers = res["layers"]
        for name, unit in PER_LAYER.items():
            metrics[name] = {"value": layers.get(name, 0), "unit": unit, "samples": 1}
        metrics["dro.train.useful_frac"]["value"] = res["useful_frac"]
        for key in ("numpy_s", "scipy_s", "credal_s"):
            metrics[f"import.{key}"].update(_quartiles([i[key] for i in imports]))
        corrected = res["corrected"]
        overhead = statistics.median(corrected["traced"]) / statistics.median(corrected["untraced"]) - 1.0
        metrics["trace.overhead"].update(value=overhead, samples=len(corrected["traced"]))
    else:
        metrics["wall_s"] = {
            "unit": "s",
            **_quartiles(res["corrected"]["untraced"]),
            "uncorrected": _quartiles(res["walls"]["untraced"]),
            "reference_slice_s": _quartiles(res["refs"]["untraced"]),
        }
        metrics["setup_s"] = {
            "unit": "s",
            **_quartiles([s["setup_s"] for s in setups]),
            "uncorrected": _quartiles([s["setup_uncorrected_s"] for s in setups]),
        }
        metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MiB", "samples": 1}
        metrics["fail_frac"] = {"value": checks["fail_frac"], "unit": "ratio", "samples": checks["checked"]}
        metrics["err_over_tol"] = {"value": checks["err_over_tol"], "unit": "ratio", "samples": checks["checked"]}
    return {
        "workload": workload,
        "seed": seed,
        "correct": checks["hard_failure_count"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
        "checks": checks,
        "absent": res.get("absent", []),
        "provenance": {
            **_provenance(root, env),
            **res["provenance"],
            "seed": seed,
            "seconds": seconds,
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
        },
    }


def _table(result: dict) -> str:
    lines = [f"== {result['workload']} (seed {result['seed']}): correct={result['correct']}"]
    for name, m in result["metrics"].items():
        spread = f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}]" if "q1" in m else ""
        lines.append(f"  {name:48s} {m['value']:<14.6g} {m['unit']:6s} n={m['samples']}{spread}")
        if "uncorrected" in m:
            raw = m["uncorrected"]
            ref = f"; reference slice {m['reference_slice_s']['value']:.6g} s" if "reference_slice_s" in m else ""
            lines.append(f"    uncorrected median {raw['value']:.6g} s [q1 {raw['q1']:.6g}, q3 {raw['q3']:.6g}]{ref}")
    c = result["checks"]
    lines.append(
        f"  checks: {c['failed']} failed of {c['checked']} checked ({c['unresolved']} unresolved); "
        f"fail_frac = ({c['failed']} + 1) / ({c['checked']} + 1); worst error: {c['worst']}"
    )
    for kind in ("hard", "quadrature"):
        if c[f"{kind}_failure_count"]:
            lines.append(f"  {kind} failures ({c[f'{kind}_failure_count']}), first: {c[f'{kind}_failures'][0]}")
    if result["absent"]:
        lines.append(f"  absent (reported as 0): {', '.join(result['absent'])}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "credal" / "__init__.py").is_file():
        print("bench: src/credal not found; run from the repository root", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S * (len(WORKLOADS) if args.workload == "all" else 1)
    env = _env(root)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace), root, env, deadline) for w in names]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print(_table(result))
    print(json.dumps({"detail": results}, sort_keys=True))
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): {"value": m["value"], "unit": m["unit"]}
            for r in results
            for name, m in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
