"""Turn workload inputs into library objects and run them through the public API.

``prepare`` does everything before the first timed call (library objects,
configs, output directories).  Each job is a callable that the worker
times; ``record`` turns a job's raw result into plain values for the
checks, outside the timed region.  Library functions are called through
their modules, so that the tracer's patches see the calls.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

import credal
import credal.estimation
import credal.harness
import credal.synthgen
from credal import CredalSpec, DiscreteGrid, Gaussian, Probit, Sigmoid, Tabular, Threshold
from credal.harness import preset_config, validate_config
from credal.synthgen import GenSeed


def config(doc: dict):
    """Preset config of ``doc['experiment']`` overlaid with ``doc['params']``."""
    base = preset_config(doc["experiment"], doc["preset"], seed=doc["seed"]).document()
    base["params"] = {**base["params"], **doc["params"]}
    return validate_config(base)


def csv_body(manifest: dict) -> str:
    """The CSV without its timestamped first line: the byte-reproducible part."""
    text = Path(manifest["csv"]).read_text()
    return text.split("\n", 1)[1]


def _experiment_job(doc: dict, out: Path):
    cfg = config(doc)
    return lambda: credal.harness.run(cfg, out, jobs=1)


def _soft_set(inputs: dict, out: Path) -> dict:
    spec_in = inputs["spec"]
    envs = tuple(Gaussian(m, s) for m, s in spec_in["envs"])
    labs = tuple(
        (Sigmoid if kind == "sigmoid" else Probit)(slope, bias)
        for kind, slope, bias in spec_in["labelers"]
    )
    spec = CredalSpec(envs, labs)

    def spec_job():
        ect = [
            [credal.expected_conditional_tv(env, l1, l2) for l1, l2 in itertools.combinations(labs, 2)]
            for env in envs
        ]
        return ect, credal.diameter_bounds(spec, with_exact=True)

    return {"sweep": _experiment_job(inputs["sweep"], out / "sweep"), "spec": spec_job}


def _exact_set(inputs: dict, out: Path) -> dict:
    specs = []
    for s in inputs["specs"]:
        pts = tuple(s["points"])
        envs = tuple(DiscreteGrid(pts, tuple(w)) for w in s["weights"])
        labs = tuple(Tabular(pts, tuple(tuple(row) for row in p)) for p in s["probs"])
        specs.append(CredalSpec(envs, labs))

    def specs_job():
        results = []
        for spec in specs:
            report = credal.diameter_bounds(spec, with_exact=True)
            pairs = [
                credal.pairwise_bounds(spec, a, b, with_exact=True)
                for a, b in itertools.combinations(spec.vertices(), 2)
            ]
            results.append((report, pairs))
        return results

    return {"sweep": _experiment_job(inputs["sweep"], out / "sweep"), "specs": specs_job}


def _estimate(inputs: dict, out: Path) -> dict:
    panel = inputs["annotations"]
    env = Gaussian(*panel["env"])
    labs = [Threshold(t) for t in panel["thresholds"]] + [Sigmoid(a, b) for a, b in panel["sigmoids"]]
    seed = GenSeed(inputs["mechanism"]["seed"]).derive(panel["substream"])
    path = out / "annotations.csv"
    cert_cfg = config(
        {
            "experiment": "certificate",
            "preset": "desk",
            "seed": inputs["mechanism"]["seed"],
            "params": {"annotations": str(path), "regime": "conservative_stochastic_hard"},
        }
    )

    def certificate_job():
        samples = credal.synthgen.sample_annotated(env, labs, panel["n"], "hard", seed)
        credal.estimation.write_annotations(path, samples)
        return samples, path, credal.harness.run(cert_cfg, out / "certificate", jobs=1)

    return {
        "mechanism": _experiment_job(inputs["mechanism"], out / "mechanism"),
        "noise": _experiment_job(inputs["noise"], out / "noise"),
        "certificate": certificate_job,
    }


def _robust_train(inputs: dict, out: Path) -> dict:
    return {name: _experiment_job(inputs[name], out / name) for name in ("greedy", "lse", "minimax")}


_PREPARE = {
    "soft_set": _soft_set,
    "exact_set": _exact_set,
    "estimate": _estimate,
    "robust_train": _robust_train,
}


def prepare(workload: str, inputs: dict, out: Path) -> dict:
    """Name -> zero-argument job, in the order the worker runs them."""
    return _PREPARE[workload](inputs, out)


def record(name: str, result) -> dict:
    """Plain values of one job's result, for the checks and the re-run comparison."""
    if isinstance(result, dict) and "csv" in result:
        return {"csv": csv_body(result), "summary": Path(result["summary"]).read_text()}
    if name == "spec":
        ect, report = result
        return {
            "ect": ect,
            "report": {
                k: getattr(report, k)
                for k in ("eta_x", "eta_star", "eta_bar", "eta_eff", "lower", "upper", "exact")
            },
            "argmax_pair": [list(v) for v in report.argmax_pair],
        }
    if name == "specs":
        return {
            "diameters": [[rep.lower, rep.upper, rep.exact] for rep, _ in result],
            "pairs": [
                [[list(pb.pair[0]), list(pb.pair[1]), pb.lower, pb.upper, pb.exact, pb.tol] for pb in pairs]
                for _, pairs in result
            ],
        }
    if name == "certificate":
        samples, path, manifest = result
        return {
            "csv": csv_body(manifest),
            "summary": Path(manifest["summary"]).read_text(),
            "annotations": Path(path).read_text(),
            "x": np.asarray([s.x for s in samples]),
            "labels": np.asarray([s.hard for s in samples], dtype=np.int64),
        }
    raise ValueError(f"no recorder for job {name!r}")
