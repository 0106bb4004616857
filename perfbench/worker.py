"""One benchmark run of one workload, in a fresh process.

Usage: ``python worker.py WORKLOAD SEED SECONDS TRACE RESULT WORKDIR``.
Sets the workload up several times, then runs operations until SECONDS
have passed, times the set-up kernel around each set-up and the
workload's reference kernel around each operation,
checks every output outside the timed region, and writes the raw samples
to RESULT as JSON.  With TRACE = 1 every second operation
runs with the layer wrappers installed.  ``run.py`` turns the samples into
metrics.
"""

from __future__ import annotations

from time import perf_counter

_START = perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

import numpy as np  # noqa: E402

from checks import check_decomposition, check_json_output, check_text_output  # noqa: E402
from tracer import FNF_WRAPS, Tracer, layer_counts  # noqa: E402
from workloads import (CLI, SHAPES, generate, reference_kernel, setup_kernel,  # noqa: E402
                       write_inputs)

#: set-ups per run; setup_s is their median
SETUPS = 7
#: set-up kernel calls timed before the first set-up and after each one
SETUP_KERNELS = 3
#: a child that runs longer than this is killed and its operation fails
CHILD_TIMEOUT_S = 60.0
HERE = os.path.dirname(os.path.abspath(__file__))


def reap(proc: subprocess.Popen, timeout: float):
    """Wait for ``proc`` and return its resource usage; kill it on timeout."""
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def _digest(entries: np.ndarray) -> str:
    return hashlib.blake2b(entries.tobytes()).hexdigest()


def _pin_to_current_cpu() -> None:
    """Keep this process and its children on the CPU it started on.

    The reference kernel and the operation it is compared with then run on
    the same CPU, whose speed is what the kernel tracks.
    """
    with open("/proc/self/stat", encoding="ascii") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})


def _timed(kernel) -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


def _setup_kernel_times() -> list[float]:
    setup_kernel()  # warm-up, as for the operations' kernel
    return [_timed(setup_kernel) for _ in range(SETUP_KERNELS)]


def _own(spans: dict, name: str) -> float:
    """Self seconds of the spans called ``name``; 0 where the layer did not run."""
    return spans.get(name, (0.0, 0.0))[1]


def _layer_seconds(spans: dict) -> dict:
    return {
        "core.first_row_s": _own(spans, "core.first_row"),
        "core.offsets_s": _own(spans, "core.offsets"),
        "reduction.reduce_s": _own(spans, "reduction.reduce"),
        "recovery.recover_s": _own(spans, "recovery.recover"),
        "fnf.assemble_s": _own(spans, "fnf.compute"),
    }


def run_library(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import toeplitz_fnf.fnf as fnf
    from toeplitz_fnf import FirstRow, compute_fnf, oracle
    import_s = perf_counter() - _START

    setups, setup_refs, digests = [], [_setup_kernel_times()], set()
    for _ in range(SETUPS):
        inst = None  # free the previous copy before making the next
        start = perf_counter()
        inst = generate(name, seed)
        compute_fnf(FirstRow(inst.entries))  # warm-up
        setups.append(import_s + perf_counter() - start)
        setup_refs.append(_setup_kernel_times())
        digests.add(_digest(inst.entries))
    if len(digests) != 1:
        raise RuntimeError("the same seed generated different inputs")

    entries, offsets = inst.entries, inst.offsets
    expected_c = inst.expected_c
    if expected_c is None:
        expected_c = max(oracle.toeplitz_component_labels(entries.size, offsets))

    kernel = reference_kernel(name)
    kernel()
    tracer = Tracer()
    traced_row = tracer.wrap("core.first_row", FirstRow)
    traced_compute = tracer.wrap("fnf.compute", compute_fnf)
    ops, errors = [], []
    attempted = failed = 0
    start = perf_counter()
    while attempted == 0 or perf_counter() - start < seconds or (trace and attempted < 2):
        traced = trace and attempted % 2 == 1
        attempted += 1
        make_row, run = (traced_row, traced_compute) if traced else (FirstRow, compute_fnf)
        if traced:
            tracer.patch(fnf, FNF_WRAPS)
        ref = _timed(kernel)
        try:
            t = perf_counter()
            result = run(make_row(entries))
            wall = perf_counter() - t
        except Exception as exc:  # the operation failed; count it and go on
            failed += 1
            errors.append(f"op {attempted}: {exc!r}")
            tracer.spans.clear()
            tracer.last.clear()
            continue
        finally:
            tracer.restore()
        try:
            problems = check_decomposition(
                entries, offsets, expected_c, result.component_count, result.cis.rho,
                result.permutation, [b.first_row for b in result.blocks],
                [b.vertices for b in result.blocks])
        except Exception as exc:  # a result too malformed to check is a failure too
            problems = [f"output does not check: {exc!r}"]
        op = {"wall": wall, "traced": traced}
        if traced:
            op["layers"] = _layer_seconds(tracer.summary())
            op["counts"] = layer_counts(tracer)
        del result
        # after the result is freed, so the kernel never adds to the memory peak
        op["ref"] = (ref + _timed(kernel)) / 2
        if problems:
            failed += 1
            errors.append(f"op {attempted}: {'; '.join(problems)}")
            continue
        ops.append(op)

    return {"n": int(entries.size), "k": int(offsets.size), "expected_c": int(expected_c),
            "setup_s": setups, "setup_refs": setup_refs, "ops": ops,
            "attempted": attempted, "failed": failed,
            "errors": errors, "exceptions": dict(tracer.exceptions), "peak_rss_mb": None}


def run_cli(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    import_s = perf_counter() - _START
    path = {key: os.path.join(workdir, key) for key in
            ("in.txt", "in.json", "tiny.txt", "err.txt", "rec-a.json", "rec-b.json",
             "warm.out")}
    python = sys.executable

    def spawn(args: list[str], out: str) -> tuple[int, float]:
        with open(out, "wb") as fh, open(path["err.txt"], "ab") as err:
            proc = subprocess.Popen(args, stdout=fh, stderr=err)
            usage = reap(proc, CHILD_TIMEOUT_S)
        return proc.returncode, usage.ru_maxrss / 1024

    def command(traced: bool, record: str) -> list[str]:
        if traced:
            return [python, os.path.join(HERE, "cli_child.py"), record]
        return [python, "-m", "toeplitz_fnf"]

    setups, setup_refs, digests = [], [_setup_kernel_times()], set()
    for _ in range(SETUPS):
        start = perf_counter()
        inst = generate(name, seed)
        write_inputs(inst.entries, path["in.txt"], path["in.json"])
        with open(path["tiny.txt"], "w", encoding="utf-8") as fh:
            fh.write("0 0 1 0 1 0 0 1\n")
        code, _ = spawn(command(False, "") + ["compute", path["tiny.txt"]], path["warm.out"])
        setups.append(import_s + perf_counter() - start)
        setup_refs.append(_setup_kernel_times())
        if code != 0:
            raise RuntimeError(f"warm-up child exited with {code}")
        digests.add(_digest(inst.entries))
    if len(digests) != 1:
        raise RuntimeError("the same seed generated different inputs")
    entries, offsets, expected_c = inst.entries, inst.offsets, inst.expected_c
    kernel = reference_kernel(name)
    kernel()
    input_bytes = os.path.getsize(path["in.txt"]) + os.path.getsize(path["in.json"])

    ops, errors, pending = [], [], []
    attempted = failed = 0
    peak = 0.0
    start = perf_counter()
    while attempted == 0 or perf_counter() - start < seconds or (trace and attempted < 2):
        traced = trace and attempted % 2 == 1
        attempted += 1
        out_json = os.path.join(workdir, f"out-{attempted}.json")
        out_txt = os.path.join(workdir, f"out-{attempted}.txt")
        # the kernel runs before, between and after the two children, and each
        # child is scaled by the kernel times around it
        ref_0 = _timed(kernel)
        t = perf_counter()
        code_a, rss_a = spawn(command(traced, path["rec-a.json"])
                              + ["compute", path["in.txt"]], out_json)
        wall_a = perf_counter() - t
        ref_1 = _timed(kernel)
        t_b = perf_counter()
        code_b, rss_b = spawn(command(traced, path["rec-b.json"])
                              + ["compute", path["in.json"], "--format", "text", "--trace"],
                              out_txt)
        wall_b = perf_counter() - t_b
        ref_2 = _timed(kernel)
        wall = wall_a + wall_b
        ref = wall / (2 * wall_a / (ref_0 + ref_1) + 2 * wall_b / (ref_1 + ref_2))
        peak = max(peak, rss_a, rss_b)
        op = {"wall": wall, "ref": ref, "traced": traced,
              "counts": {"cli.input_bytes": input_bytes}}
        problems = [f"child exited with {c}" for c in (code_a, code_b) if c != 0]
        if traced and not problems:
            pair = _pair_record(path["rec-a.json"], path["rec-b.json"])
            problems = pair.pop("mismatch")
            op.update(pair, counts={**op["counts"], **pair["counts"]})
        pending.append((attempted, op, out_json, out_txt, problems))

    # outputs are checked after the timed window, so the window holds more operations
    for number, op, out_json, out_txt, problems in pending:
        try:
            if not problems:
                op["counts"]["cli.output_bytes"] = (os.path.getsize(out_json)
                                                    + os.path.getsize(out_txt))
                problems = (check_json_output(out_json, entries, offsets, expected_c)
                            + check_text_output(out_txt, entries, offsets, expected_c))
        except Exception as exc:  # unreadable or malformed output is a failure
            problems = [f"output does not parse: {exc!r}"]
        finally:
            for out in (out_json, out_txt):
                if os.path.exists(out):
                    os.remove(out)
        if problems:
            failed += 1
            errors.append(f"op {number}: {'; '.join(problems)}")
            continue
        ops.append(op)

    exceptions: dict = {}
    for op in ops:
        for layer, count in op.pop("exceptions", {}).items():
            exceptions[layer] = exceptions.get(layer, 0) + count
    return {"n": int(entries.size), "k": int(offsets.size), "expected_c": int(expected_c),
            "setup_s": setups, "setup_refs": setup_refs, "ops": ops,
            "attempted": attempted, "failed": failed,
            "errors": errors, "exceptions": exceptions, "peak_rss_mb": peak}


def _pair_record(*records: str) -> dict:
    """Per-layer seconds of one traced operation, summed over its children.

    Both children decompose the same row, so their layer counts must agree;
    a disagreement is reported under ``mismatch``.
    """
    layers: dict = {}
    counts: dict = {}
    exceptions: dict = {}
    mismatch = []
    for record in records:
        with open(record, encoding="utf-8") as fh:
            rec = json.load(fh)
        spans = rec["spans"]
        own = _layer_seconds(spans)
        own.update({
            "cli.startup_s": rec["startup_s"],
            "cli.parse_s": _own(spans, "cli.parse"),
            "cli.load_s": _own(spans, "cli.load"),
            # inclusive: the whole library call, as the command line sees it
            "cli.compute_s": spans.get("fnf.compute", (0.0, 0.0))[0],
            "cli.document_s": _own(spans, "cli.document"),
            "cli.json_s": _own(spans, "cli.json"),
            "cli.text_s": _own(spans, "cli.text"),
            "cli.write_s": _own(spans, "cli.write"),
        })
        for key, value in own.items():
            layers[key] = layers.get(key, 0.0) + value
        if counts and rec["counts"] != counts:
            mismatch.append(f"children disagree on layer counts: {counts} vs {rec['counts']}")
        counts = rec["counts"]
        for key, value in rec["exceptions"].items():
            exceptions[key] = exceptions.get(key, 0) + value
    return {"layers": layers, "counts": counts, "exceptions": exceptions,
            "mismatch": mismatch}


def main() -> int:
    name, seed, seconds, trace, result, workdir = sys.argv[1:7]
    _pin_to_current_cpu()
    seed_i, seconds_f, traced = int(seed), float(seconds), trace == "1"
    if SHAPES[name].kind == CLI:
        out = run_cli(name, seed_i, seconds_f, traced, workdir)
    else:
        out = run_library(name, seed_i, seconds_f, traced)
    import toeplitz_fnf
    out["package"] = os.path.dirname(os.path.abspath(toeplitz_fnf.__file__))
    with open(result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
