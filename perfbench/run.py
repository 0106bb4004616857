"""Benchmark of the toeplitz-fnf package: end-to-end and per-layer metrics.

Usage::

    python3 perfbench/run.py --workload few-blocks --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root.  Each workload runs in a fresh worker
process (``worker.py``) against the package under ``src/``.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
every second operation runs with timing wrappers around the package's
layer boundaries and the run reports per-layer metrics instead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``WORKLOADS.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

import numpy as np

from worker import reap
from workloads import SETUP_REFERENCE_S, SHAPES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "toeplitz_fnf")
#: the worker must finish within this margin beyond --seconds
WORKER_SLACK_S = 150.0

#: end-to-end metrics of BENCHMARK.json, (name, unit)
END_TO_END = (("op_rel", "ratio"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
LAYER_SECONDS = ("core.first_row_s", "core.offsets_s", "reduction.reduce_s",
                 "recovery.recover_s", "fnf.assemble_s",
                 "cli.startup_s", "cli.parse_s", "cli.load_s", "cli.compute_s",
                 "cli.document_s", "cli.json_s", "cli.text_s", "cli.write_s")
LAYER_COUNTS = ("core.offsets_k", "reduction.steps", "reduction.alpha_steps",
                "reduction.beta_steps", "recovery.replayed_vertices",
                "recovery.bytes_computed", "fnf.blocks", "fnf.singletons",
                "fnf.largest_block", "cli.input_bytes", "cli.output_bytes")
LAYERS = ("core", "reduction", "recovery", "fnf", "cli")
COUNT_UNITS = {"recovery.bytes_computed": "bytes", "cli.input_bytes": "bytes",
               "cli.output_bytes": "bytes"}


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, and its label."""
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return ordered[-1], f"max of {len(ordered)} ops; no percentile has 10 beyond"
    pct = math.floor(100 * (len(ordered) - 10) / len(ordered))
    return ordered[-11], f"p{pct} of {len(ordered)} ops, 10 beyond"


def end_to_end(raw: dict) -> tuple[dict, list[tuple]]:
    """The gated metrics, and every end-to-end metric as printed rows.

    The times in seconds are printed but not gated: where the CPU's speed
    drifts by 1.7x in phases of seconds to minutes, their run-to-run spread
    exceeds any usable bound.  ``op_rel`` divides each operation by the
    reference kernel timed around it, which cancels the drift (see
    WORKLOADS.md).  ``setup_s`` does the same for each set-up with the
    set-up kernel and scales the median ratio back to seconds at that
    kernel's fixed typical time, so it stays in seconds without carrying
    the drift.  ``failed_ops`` is 0 when all is well, so it has no
    relative bound; the ``failed`` and ``attempted`` keys carry it.
    """
    walls = [op["wall"] for op in raw["ops"]]
    refs = [op["ref"] for op in raw["ops"]]
    tail_s, tail_label = tail(walls)
    metrics = {
        "op_rel": _rel(raw["ops"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": _setup(raw),
    }
    setup_walls = raw["setup_s"]
    rows = [
        ("op_rel", metrics["op_rel"], "ratio",
         f"median of {len(walls)} ops, each over the reference kernel around it"),
        ("op_s", statistics.median(walls), "s", f"median of {len(walls)} ops"),
        ("op_s_min", min(walls), "s", f"fastest of {len(walls)} ops"),
        ("op_s_tail", tail_s, "s", tail_label),
        ("vertices_per_s", raw["n"] * len(walls) / sum(walls), "1/s",
         f"n={raw['n']} times ops / timed seconds"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", "peak resident set"),
        ("setup_s", metrics["setup_s"], "s",
         f"median of {len(setup_walls)} set-ups, each over the set-up kernel times "
         f"around it, times {SETUP_REFERENCE_S} s"),
        ("setup_wall_s", statistics.median(setup_walls), "s",
         f"median of {len(setup_walls)} set-ups, wall time"),
        ("ref_s", statistics.median(refs), "s", "median reference kernel"),
        ("failed_ops", raw["failed"] / raw["attempted"], "ratio",
         f"{raw['failed']} of {raw['attempted']} ops"),
    ]
    return metrics, rows


def _setup(raw: dict) -> float:
    """Median set-up over the set-up kernel timed just before and after it."""
    refs = raw["setup_refs"]
    return statistics.median(
        wall / statistics.median(before + after)
        for wall, before, after in zip(raw["setup_s"], refs, refs[1:])) * SETUP_REFERENCE_S


def _rel(ops: list[dict]) -> float:
    return statistics.median(op["wall"] / op["ref"] for op in ops)


def per_layer(raw: dict) -> tuple[dict, list[str]]:
    """Median per-layer metrics over the traced ops, and count mismatches."""
    traced = [op for op in raw["ops"] if op["traced"]]
    plain = [op for op in raw["ops"] if not op["traced"]]
    metrics = {}
    for key in LAYER_SECONDS:
        metrics[key] = statistics.median(op["layers"].get(key, 0.0) for op in traced)
    problems = []
    for key in LAYER_COUNTS:
        seen = {op["counts"][key] for op in raw["ops"] if key in op.get("counts", {})}
        if len(seen) > 1:
            problems.append(f"{key} differs between operations: {sorted(seen)}")
        metrics[key] = max(seen, default=0)
    for layer in LAYERS:
        metrics[f"{layer}.exceptions"] = raw["exceptions"].get(layer, 0)
    metrics["trace.op_s"] = statistics.median(op["wall"] for op in traced)
    # compared through the reference kernel, so CPU drift between the traced
    # and the plain operations cancels; scaled back to seconds at the run's
    # median kernel time
    metrics["trace.overhead_s"] = (_rel(traced) - _rel(plain)) * statistics.median(
        op["ref"] for op in raw["ops"])
    return metrics, problems


def unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    return COUNT_UNITS.get(key, "count")


def run_worker(name: str, args: argparse.Namespace, workdir: str) -> dict:
    result = os.path.join(workdir, f"{name}.result.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"), name,
           str(args.seed), str(args.seconds), str(args.trace), result, workdir]
    proc = subprocess.Popen(cmd, cwd=workdir, env=env)
    usage = reap(proc, args.seconds + WORKER_SLACK_S)
    if proc.returncode != 0 or not os.path.exists(result):
        raise RuntimeError(f"{name}: worker exited with {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        raw = json.load(fh)
    if os.path.realpath(raw["package"]) != os.path.realpath(PACKAGE):
        raise RuntimeError(f"{name}: worker imported the package from {raw['package']}")
    if raw["peak_rss_mb"] is None:
        raw["peak_rss_mb"] = usage.ru_maxrss / 1024
    return raw


def report(name: str, raw: dict, trace: bool) -> tuple[dict, bool]:
    shape = SHAPES[name]
    print(f"workload {name}: n={raw['n']} k={raw['k']} expected c={raw['expected_c']} "
          f"loads {shape.loads}; bypasses {shape.bypasses}")
    for err in raw["errors"][:5]:
        print(f"  failure: {err}")
    correct = raw["failed"] == 0
    if not raw["ops"] or (trace and not any(op["traced"] for op in raw["ops"])):
        return {}, False
    if trace:
        metrics, problems = per_layer(raw)
        for problem in problems:
            print(f"  count not repeatable: {problem}")
        correct = correct and not problems
        op_s = metrics["trace.op_s"]
        for key, value in metrics.items():
            if unit(key) == "s":
                print(f"  {key:28s} {value:>16.6g} s  {100 * value / op_s:5.1f}% of traced op_s")
            else:
                print(f"  {key:28s} {value:>16} {unit(key)}")
        return {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}, correct
    metrics, rows = end_to_end(raw)
    for key, value, unit_name, note in rows:
        print(f"  {key:16s} {value:>14.6g} {unit_name:5s} ({note})")
    units = dict(END_TO_END)
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(SHAPES) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no package at {PACKAGE}; run from a repository checkout",
              file=sys.stderr)
        return 2

    names = list(SHAPES) if args.workload == "all" else [args.workload]
    print(f"machine: nproc={os.cpu_count()} python={sys.version.split()[0]} "
          f"numpy={np.__version__} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            raw = run_worker(name, args, workdir)
            metrics, correct = report(name, raw, bool(args.trace))
            summary["correct"] = summary["correct"] and correct
            summary["attempted"] += raw["attempted"]
            summary["failed"] += raw["failed"]
            prefix = "" if len(names) == 1 else f"{name}:"
            summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
