import json
import os
import subprocess
import sys

import numpy as np
import pytest

from toeplitz_fnf import FirstRow, row_from_offsets
from toeplitz_fnf import cli
from toeplitz_fnf.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    InputError,
    document_to_json,
    generate_offsets,
    parse_input,
    result_to_document,
    run,
    run_bench,
    verify_row,
)
from toeplitz_fnf.fnf import FnfResult, compute_fnf


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


GOLDEN_31_TEXT = " ".join(
    str(1 if i in (12, 18, 24, 29) else 0) for i in range(31)
)


class TestParseInput:
    def test_plain_text(self):
        assert parse_input("0 1.5\n-2  3e1").tolist() == [0.0, 1.5, -2.0, 30.0]

    def test_json_document(self):
        assert parse_input('{"first_row": [0, 1, 0.5]}').tolist() == [0.0, 1.0, 0.5]

    def test_json_order_must_match(self):
        assert parse_input('{"first_row": [0, 1], "n": 2}').tolist() == [0.0, 1.0]
        with pytest.raises(InputError):
            parse_input('{"first_row": [0, 1], "n": 3}')

    def test_autodetect_by_first_byte(self):
        assert parse_input("  \n{\"first_row\": [4]}").tolist() == [4.0]

    def test_text_tokens_follow_float(self):
        assert parse_input("1_000 +2.5").tolist() == [1000.0, 2.5]
        for token in ("0x10", "1.5d"):
            with pytest.raises(ValueError):
                float(token)
            with pytest.raises(InputError, match="invalid numeric token"):
                parse_input(f"0 {token}")

    def test_rejects_garbage(self):
        with pytest.raises(InputError):
            parse_input("0 1 two")
        with pytest.raises(InputError):
            parse_input("")
        with pytest.raises(InputError):
            parse_input('{"rows": [1]}')
        with pytest.raises(InputError):
            parse_input('{"first_row": []}')

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            parse_input("0 inf")
        with pytest.raises(InputError, match="finite"):
            parse_input("0 nan 1")
        with pytest.raises(InputError):
            parse_input('{"first_row": [0, 1e999]}')

    def test_rejects_non_numeric_json(self):
        for doc in ('{"first_row": [true, false, true]}',
                    '{"first_row": [0, 1, false]}',
                    '{"first_row": [0, "1"]}',
                    '{"first_row": [0, null]}',
                    '{"first_row": [0, 1], "n": 2.0}',
                    '{"first_row": [1], "n": true}',
                    '{"first_row": [0, 1], "n": "2"}',
                    '{"first_row": [0, 1%s]}' % ("0" * 400)):
            with pytest.raises(InputError):
                parse_input(doc)


class TestDocuments:
    def test_round_trip(self):
        res = compute_fnf(FirstRow([0, 0, 3, 0, 8, 0, 9]))
        doc = result_to_document(res, include_trace=True)
        again = json.loads(document_to_json(doc))
        assert again == doc

    def test_integral_floats_serialise_as_ints(self):
        res = compute_fnf(FirstRow([0.0, 2.0]))
        text = document_to_json(result_to_document(res))
        assert '"first_row": [0, 2]' in text

    def test_fractional_floats_survive(self):
        res = compute_fnf(FirstRow([0.0, 2.5]))
        doc = result_to_document(res)
        assert doc["blocks"][0]["first_row"] == [0, 2.5]


# Test-only reference: the per-entry writers that the bulk writers replaced,
# kept here to pin the output bytes.

def _reference_number(x):
    f = float(x)
    return int(f) if f.is_integer() else f


def _reference_values(values):
    return ",".join(str(_reference_number(x)) for x in values)


def _reference_json(result, include_trace):
    doc = {
        "n": result.n,
        "component_count": result.component_count,
        "cis": result.cis.rho.tolist(),
        "blocks": [
            {
                "size": b.size,
                "first_row": [_reference_number(x) for x in b.first_row],
                "vertices": b.vertices.tolist(),
            }
            for b in result.blocks
        ],
        "permutation": result.permutation.tolist(),
    }
    if include_trace:
        doc["trace"] = [
            {"kind": s.kind, "n_before": s.n_before, "n_after": s.n_after,
             "d": s.d, "c": s.c}
            for s in result.trace.steps
        ]
    return json.dumps(doc, separators=(", ", ": ")) + "\n"


def _reference_text(result, include_trace):
    lines = [f"n {result.n}", f"components {result.component_count}"]
    for k, b in enumerate(result.blocks, start=1):
        lines.append(f"block {k} size={b.size} vertices={_reference_values(b.vertices)} "
                     f"first_row={_reference_values(b.first_row)}")
    lines.append(f"permutation {_reference_values(result.permutation)}")
    lines.append(f"cis {_reference_values(result.cis.rho)}")
    if include_trace:
        for s in result.trace.steps:
            lines.append(f"trace {s.kind} n={s.n_before}->{s.n_after} d={s.d} c={s.c}")
    return "\n".join(lines) + "\n"


def _clustered_row(n, seed):
    rng = np.random.default_rng(seed)
    offsets = generate_offsets(n, 12, "clustered", rng)
    entries = np.zeros(n)
    entries[0] = 2.0
    entries[offsets] = rng.integers(1, 1000, size=offsets.size) / 8
    return entries.tolist()


def _golden_31():
    return [float(tok) for tok in GOLDEN_31_TEXT.split()]


# -0.0 prints as 0; integral values print in full, at and beyond 2**63 too
SPECIAL_VALUES = [-0.0, 0.0, 5e-324, -0.0, 2.0**53, 0.0, 2.0**53 + 2, 0.0, 1e300, 0.0,
                  -1e22, 0.0, 2.0**63, 0.0, -(2.0**63)]

WRITER_ROWS = {
    "golden-31": _golden_31(),
    "weighted-7": [0.0, 0.0, 3.0, 0.0, 8.0, 0.0, 9.0],
    "order-1": [42.0],
    "all-zero-31": [0.0] * 31,
    "two-fractional": [0.75, 0.0, 0.5, 0.0, 0.0, 0.0, 1.25, 0.0, 0.0, 0.0, -3.125, 0.0, 0.0],
    "special-values": SPECIAL_VALUES,
    "clustered-3001": _clustered_row(3001, 11),
}


class TestWriterBytes:
    @pytest.mark.parametrize("name", sorted(WRITER_ROWS))
    def test_matches_per_entry_reference(self, name, tmp_path, capsys):
        values = WRITER_ROWS[name]
        result = compute_fnf(FirstRow(values))
        inputs = (_write(tmp_path, "row.txt", " ".join(map(repr, values))),
                  _write(tmp_path, "row.json", json.dumps({"first_row": values})))
        for path in inputs:
            for fmt, reference in (("json", _reference_json), ("text", _reference_text)):
                for trace in (False, True):
                    argv = ["compute", "--format", fmt] + ["--trace"] * trace + [path]
                    assert run(argv) == EXIT_OK
                    got, want = capsys.readouterr().out, reference(result, trace)
                    if got != want:
                        # a short excerpt: a full diff of long lines takes minutes
                        i = len(os.path.commonprefix([got, want]))
                        pytest.fail(f"{argv}: first difference at character {i}: "
                                    f"{got[i - 30:i + 30]!r} != {want[i - 30:i + 30]!r}")

    def test_rows_cut_into_several_blocks(self):
        assert compute_fnf(FirstRow(WRITER_ROWS["special-values"])).component_count == 2
        assert compute_fnf(FirstRow(WRITER_ROWS["clustered-3001"])).component_count > 1000

    def test_compute_reads_no_block_objects(self, tmp_path, monkeypatch):
        def refuse(self):
            raise RuntimeError("result.blocks read")

        monkeypatch.setattr(FnfResult, "blocks", property(refuse))
        path = _write(tmp_path, "row.txt", GOLDEN_31_TEXT)
        for fmt in ("json", "text"):
            assert run(["compute", "--trace", "--format", fmt, path]) == EXIT_OK


class TestOptimisedInterpreter:
    """``python -O`` strips asserts; no check may depend on one."""

    @staticmethod
    def _compute(tmp_path, text, *flags):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        path = _write(tmp_path, "row.txt", text)
        return subprocess.run([sys.executable, *flags, "-m", "toeplitz_fnf", "compute", path],
                              capture_output=True, env=env)

    def test_same_output_under_dash_o(self, tmp_path):
        plain = self._compute(tmp_path, GOLDEN_31_TEXT)
        optimised = self._compute(tmp_path, GOLDEN_31_TEXT, "-O")
        assert plain.returncode == optimised.returncode == EXIT_OK
        assert optimised.stdout == plain.stdout

    def test_non_finite_is_input_error_under_dash_o(self, tmp_path):
        assert self._compute(tmp_path, "0 inf", "-O").returncode == EXIT_INPUT


class TestComputeCommand:
    def test_golden_31_json(self, tmp_path, capsys):
        path = _write(tmp_path, "row.txt", GOLDEN_31_TEXT)
        assert run(["compute", path]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["component_count"] == 4
        assert [b["size"] for b in doc["blocks"]] == [16, 5, 5, 5]
        assert doc["blocks"][1]["first_row"] == [0, 0, 1, 1, 1]

    def test_text_format_single_block(self, tmp_path, capsys):
        path = _write(tmp_path, "row.txt", "0 1")
        assert run(["compute", "--format", "text", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "components 1" in out
        assert "block 1 size=2 vertices=1,2 first_row=0,1" in out

    def test_all_zero_row_gives_singletons(self, tmp_path, capsys):
        path = _write(tmp_path, "row.txt", " ".join(["0"] * 31))
        assert run(["compute", path]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["component_count"] == 31
        assert all(b["size"] == 1 and b["first_row"] == [0] for b in doc["blocks"])

    def test_trace_flag(self, tmp_path, capsys):
        path = _write(tmp_path, "row.txt", GOLDEN_31_TEXT)
        assert run(["compute", "--trace", path]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert [s["kind"] for s in doc["trace"]] == ["beta", "alpha", "beta", "beta"]
        assert [s["d"] for s in doc["trace"]] == [6, 5, 2, 1]

    def test_deterministic_output(self, tmp_path, capsys):
        path = _write(tmp_path, "row.txt", GOLDEN_31_TEXT)
        run(["compute", "--trace", path])
        first = capsys.readouterr().out
        run(["compute", "--trace", path])
        second = capsys.readouterr().out
        assert first == second

    def test_tolerance_cleans_noise(self, tmp_path, capsys):
        path = _write(tmp_path, "row.txt", "0 1e-12 0 1")
        run(["compute", "--tolerance", "1e-9", path])
        cleaned = json.loads(capsys.readouterr().out)
        run(["compute", path])
        raw = json.loads(capsys.readouterr().out)
        assert cleaned["component_count"] == 3  # only the offset-3 edge survives
        assert raw["component_count"] == 1

    def test_tolerance_must_be_nonnegative(self, tmp_path, capsys):
        path = _write(tmp_path, "row.txt", "0 1e-12 0 1")
        for eps in ("-1", "nan", "-inf"):
            assert run(["compute", f"--tolerance={eps}", path]) == EXIT_INPUT
            assert "tolerance" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, capsys):
        assert run(["compute", "/nonexistent/row.txt"]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_stdin_input(self, monkeypatch, capsys):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("0 1"))
        assert run(["compute", "-"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["component_count"] == 1

    def test_unexpected_failure_is_internal_error(self, tmp_path, capsys, monkeypatch):
        def broken(row):
            raise RuntimeError("synthetic fault")

        monkeypatch.setattr(cli, "compute_fnf", broken)
        path = _write(tmp_path, "row.txt", "0 1")
        assert run(["compute", path]) == cli.EXIT_INTERNAL
        assert "internal error" in capsys.readouterr().err


class TestVerifyCommand:
    def test_golden_31_passes(self, tmp_path, capsys):
        path = _write(tmp_path, "row.txt", GOLDEN_31_TEXT)
        assert run(["verify", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "result: PASS" in out

    def test_weighted_row_passes_with_two_blocks(self, tmp_path, capsys):
        path = _write(tmp_path, "row.txt", "0 0 3 0 8 0 9")
        assert run(["verify", path]) == EXIT_OK
        assert "components=2" in capsys.readouterr().out

    def test_order_one_trivially_passes(self, tmp_path):
        path = _write(tmp_path, "row.txt", "42")
        assert run(["verify", path]) == EXIT_OK

    def test_budget_refusal(self, tmp_path, capsys):
        path = _write(tmp_path, "row.txt", " ".join(["0"] * 50))
        assert run(["verify", "--budget", "10", path]) == EXIT_INPUT
        assert "budget" in capsys.readouterr().err

    def test_detects_corrupted_pipeline(self, tmp_path, capsys, monkeypatch):
        # swap two labels so one vertex lands in the wrong block
        import toeplitz_fnf.cli as cli_mod
        real = cli_mod.compute_fnf

        def corrupted(row):
            res = real(row)
            rho = res.cis.rho.copy()
            rho[0], rho[1] = rho[1], rho[0]
            object.__setattr__(res.cis, "rho", rho)
            return res

        monkeypatch.setattr(cli_mod, "compute_fnf", corrupted)
        path = _write(tmp_path, "row.txt", "0 0 3 0 8 0 9")
        assert run(["verify", path]) == EXIT_VERIFY_FAILED
        assert "FAIL" in capsys.readouterr().out

    def test_structural_mode_above_dense_limit(self, monkeypatch):
        monkeypatch.setattr(cli, "DENSE_CHECK_LIMIT", 16)
        report = verify_row(row_from_offsets(40, [13, 17]))
        assert report.passed
        assert report.checks[-1] == ("reconstruction_sampled", True,
                                     "16 of 40 vertices in 1 of 1 blocks")
        # no block above the limit: every entry is compared, so the check is exact
        report = verify_row(row_from_offsets(40, [30]))
        assert report.passed
        assert report.checks[-1] == ("reconstruction_exact", True, "structural")


class TestBenchCommand:
    def test_single_size_table(self, capsys):
        assert run(["bench", "--sizes", "2000", "--reps", "2", "--seed", "7"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "n=2000" in out
        assert "loglog_slope" not in out

    def test_multi_size_slope_and_stats(self, capsys):
        assert run(["bench", "--sizes", "500,1000,2000", "--reps", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "loglog_slope" in out
        assert out.count("median=") == 3
        assert out.count("min=") == 3

    def test_scientific_sizes_accepted(self, capsys):
        assert run(["bench", "--sizes", "1e3,2e3", "--reps", "1"]) == EXIT_OK
        assert "n=1000" in capsys.readouterr().out

    def test_sizes_must_ascend(self, capsys):
        assert run(["bench", "--sizes", "2000,1000"]) == EXIT_INPUT

    @pytest.mark.parametrize("sizes", ["inf", "1e400", "nan", "0", "-5", "1.7,2.9"])
    def test_sizes_must_be_whole_and_positive(self, sizes, capsys):
        assert run(["bench", "--sizes", sizes, "--reps", "1"]) == EXIT_INPUT
        assert "size" in capsys.readouterr().err

    def test_run_bench_rejects_sizes_below_one(self):
        with pytest.raises(InputError):
            run_bench([0, 400], reps=1)

    def test_policies_generate_valid_offsets(self):
        rng = np.random.default_rng(3)
        for policy in ("uniform", "clustered"):
            offs = generate_offsets(1000, 9, policy, rng)
            assert offs.size == 9
            assert offs.min() >= 1 and offs.max() <= 999
            assert np.all(np.diff(offs) > 0)
        clustered = generate_offsets(1000, 9, "clustered", np.random.default_rng(4))
        assert clustered.min() >= 750

    def test_reports_are_reproducible_structurally(self):
        a = run_bench([400, 800], seed=5, reps=2)
        b = run_bench([400, 800], seed=5, reps=2)
        assert [(r.n, r.k) for r in a.rows] == [(r.n, r.k) for r in b.rows]


class TestVerifyReportOrdering:
    def test_report_lists_all_checks(self):
        report = verify_row(FirstRow([0, 0, 3, 0, 8, 0, 9]))
        names = [name for name, _, _ in report.checks]
        assert names == ["partition_matches_oracle", "blocks_connected", "reconstruction_exact"]
        assert report.passed
