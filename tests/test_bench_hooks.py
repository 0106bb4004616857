"""The names the benchmark in ``perfbench/`` patches or reads still exist.

``perfbench/tracer.py`` wraps package functions by ``getattr``, so a renamed
function would otherwise only fail in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

import toeplitz_fnf.cli as cli
import toeplitz_fnf.fnf as fnf
from toeplitz_fnf import OffsetSet, compute_fnf, oracle, reduce, row_from_offsets

import reference

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_exist():
    tracer = _load_tracer()
    assert tracer.FNF_WRAPS and tracer.CLI_WRAPS
    missing = [f"fnf.{attr}" for attr, _ in tracer.FNF_WRAPS if not hasattr(fnf, attr)]
    missing += [f"cli.{attr}" for attr, _ in tracer.CLI_WRAPS if not hasattr(cli, attr)]
    assert missing == []


def test_cli_runs_with_its_names_wrapped(tmp_path, capsys):
    # a traced child replaces each wrapped name by a plain function, so the
    # CLI may only call those names, never read their attributes
    module = _load_tracer()
    tracer = module.Tracer()
    path = tmp_path / "row.txt"
    path.write_text("0 0 1.5 0 2 0 0")
    tracer.patch(cli, module.CLI_WRAPS)
    tracer.patch(fnf, module.FNF_WRAPS)
    try:
        assert cli.run(["compute", "--format", "text", str(path)]) == cli.EXIT_OK
    finally:
        tracer.restore()
    assert "components 2" in capsys.readouterr().out
    assert {"cli.load", "cli.parse", "core.first_row", "fnf.compute", "cli.text"} <= {
        span[0] for span in tracer.spans}


def test_read_names_exist():
    # the many-blocks set-up counts components as max() of these labels:
    # smallest offset 3n/4, a few offsets above it
    n, offsets = 2000, [1500, 1613, 1750, 1871, 1999]
    labels = oracle.toeplitz_component_labels(n, offsets)
    assert max(labels) == compute_fnf(row_from_offsets(n, offsets)).component_count
    assert labels.tolist() == reference.union_find_labels(n, offsets)
    result = compute_fnf(row_from_offsets(7, [2, 4, 6]))
    assert result.component_count == 2
    assert isinstance(result.cis.rho, np.ndarray)
    assert result.permutation.shape == (7,)
    for block in result.blocks:
        assert block.size == block.vertices.size == block.first_row.size
    trace = reduce(OffsetSet(7, [2, 4, 6]))[0]
    assert trace.n_final >= 1
    assert all(step.kind in ("alpha", "beta") and step.n_before > 0 for step in trace.steps)
