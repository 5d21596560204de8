"""One workload in a fresh process: set up, run the job list for a while, check.

Started by ``run.py``; prints one JSON line.  Modes:

* ``setup``: build the inputs, report set-up time, exit.
* ``timed``: repeat the job list for ``--seconds``; report per-pass wall
  times, peak RSS and the oracle checks of the first pass.
* ``traced``: alternate untraced and traced passes for ``--seconds``;
  report per-layer counts and self times, and the tracing overhead.
* ``imports``: time ``import numpy``, ``import scipy.special`` and
  ``import credal`` in that order.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _imports() -> dict:
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import scipy.special  # noqa: F401

    t2 = time.perf_counter()
    import credal  # noqa: F401
    import credal.dro  # noqa: F401
    import credal.harness  # noqa: F401
    import credal.synthgen  # noqa: F401

    t3 = time.perf_counter()
    return {"numpy_s": t1 - t0, "scipy_s": t2 - t1, "credal_s": t3 - t2}


def fingerprint(record: dict) -> str:
    """Digest of every value of a job record: equal digests mean identical outputs."""
    import numpy as np

    h = hashlib.sha256()
    for key in sorted(record):
        value = record[key]
        h.update(key.encode())
        h.update(value.tobytes() if isinstance(value, np.ndarray) else json.dumps(value, sort_keys=True).encode())
    return h.hexdigest()


# median time of one reference slice on the 2-core host the benchmark was
# written on: corrected pass times are expressed at that host speed
REF_SLICE_S = 0.036


def _reference_work() -> float:
    """A fixed mix of tiny-array, small-array and large-array numpy work.

    It never changes with the library, so its time tracks only how fast the
    host runs right now.  Other tenants of a shared host slow everything
    down by up to 2x for tens of seconds; slices of this work bracket each
    timed job and follow each set-up, and those times are corrected by
    their speed.
    """
    import numpy as np
    from scipy.special import expit, ndtr

    tiny = np.linspace(-1.0, 1.0, 9)
    small = np.linspace(-4.0, 4.0, 257)
    big = np.linspace(-3.0, 3.0, 50_000)
    acc = 0.0
    for i in range(1100):
        # the adaptive-quadrature pattern: many calls on a few points each
        lo, hi = tiny[:-1], tiny[1:]
        mid = 0.5 * (lo + hi)
        f = expit(3.0 * mid + 1e-3 * i)
        keep = np.abs(f - 0.5) > 0.1
        acc += float(np.concatenate([lo[keep], mid[~keep]]).sum()) + float(ndtr(1e-3 * i))
    for i in range(700):
        p = expit(0.5 * small + 1e-3 * i)
        m = np.column_stack([1.0 - p, p]) * np.exp(-0.5 * small * small)[:, None]
        acc += float(np.abs(m[1:] - m[:-1]).sum())
    for i in range(70):
        b = (big > 0.01 * i).astype(float)
        acc += float(b @ b) + float(np.cumsum(big)[-1])
    return acc


def _timed_reference() -> float:
    start = time.perf_counter()
    _reference_work()
    return time.perf_counter() - start


def _pass(jobs_, tracer=None):
    """Run every job once, with a reference slice before each job and after the last.

    Returns (job seconds, job seconds at the reference host speed, mean
    reference slice, raw results, error text or None).  Each job is
    corrected by the mean of the two slices around it.
    """
    results = {}
    wall = corrected = 0.0
    slices = [_timed_reference()]
    try:
        for name, job in jobs_.items():
            start = time.perf_counter()
            results[name] = tracer.span(f"job.{name}", job) if tracer else job()
            took = time.perf_counter() - start
            slices.append(_timed_reference())
            wall += took
            corrected += took * REF_SLICE_S / (0.5 * (slices[-2] + slices[-1]))
    except Exception:  # a failing job is a failed operation, reported with its traceback
        return wall, corrected, sum(slices) / len(slices), results, traceback.format_exc()
    return wall, corrected, sum(slices) / len(slices), results, None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "timed", "traced", "imports"), required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--t0", type=float, help="monotonic clock when the parent started this process")
    ap.add_argument("--out", help="directory for the job outputs")
    ap.add_argument("--spans", help="file the traced mode writes its last pass's spans to")
    args = ap.parse_args()
    if args.mode == "imports":
        print(json.dumps(_imports()))
        return 0

    import checks
    import inputs
    import jobs

    inp = inputs.make_inputs(args.workload, args.seed)
    job_list = jobs.prepare(args.workload, inp, Path(args.out))
    t_first = time.monotonic()
    setup = t_first - (args.t0 if args.t0 is not None else T_START)
    # set-up time at the reference host speed, like the timed jobs
    ref = 0.5 * (_timed_reference() + _timed_reference())
    out = {"setup_s": setup * REF_SLICE_S / ref, "setup_uncorrected_s": setup}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
    walls = {"untraced": [], "traced": []}
    corrected = {"untraced": [], "traced": []}
    refs = {"untraced": [], "traced": []}
    first = None  # records of the first pass: what the checks judge
    digests = None
    mismatched: set[str] = set()
    count_sets = []
    attempted = failed = 0
    error = None
    while True:
        traced = tracer is not None and len(walls["untraced"]) > len(walls["traced"])
        if traced:
            tracer.reset()
            tracer.install()
        try:
            wall, fixed, ref, results, error = _pass(job_list, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        attempted += len(results) + (1 if error else 0)
        if error:
            failed += 1
            break
        kind = "traced" if traced else "untraced"
        walls[kind].append(wall)
        corrected[kind].append(fixed)
        refs[kind].append(ref)
        records = {name: jobs.record(name, res) for name, res in results.items()}
        del results
        if first is None:
            first = records
            digests = {name: fingerprint(rec) for name, rec in records.items()}
        else:
            mismatched |= {name for name, rec in records.items() if fingerprint(rec) != digests[name]}
        if traced:
            count_sets.append(tracer.layer_stats())
        passes = len(walls["untraced"]) + len(walls["traced"])
        if time.monotonic() - t_first >= args.seconds and passes >= (4 if tracer else 2):
            break
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["walls"] = walls
    out["corrected"] = corrected
    out["refs"] = refs
    out["attempted"], out["failed"] = attempted, failed
    out["error"] = error

    chk = checks.Checker()
    if first is not None and error is None:
        checks.CHECKS[args.workload](inp, first, chk)
    for name in sorted(digests or ()):
        chk.flag(f"{name} re-runs identical to the first pass", name not in mismatched, hard=True)
    if tracer is not None and count_sets:
        stats = count_sets[0]
        counted = {k: v for k, v in stats.items() if not k.endswith("self_s")}
        same = all({k: v for k, v in s.items() if not k.endswith("self_s")} == counted for s in count_sets)
        chk.flag("traced counts identical across passes", same, hard=True)
        out["layers"] = stats
        out["absent"] = tracer.absent()
        out["useful_frac"] = checks.useful_frac(first) if args.workload == "robust_train" else 0.0
        tracer.write(Path(args.spans))
    out["checks"] = chk.report()
    out["provenance"] = _provenance()
    print(json.dumps(out))
    return 0


def _provenance() -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


if __name__ == "__main__":
    sys.exit(main())
