import dataclasses
import json
import os
import subprocess
import sys
import time
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from conftest import LABEL_DTYPE_ROWS
from toeplitz_fnf import ComponentIndexSequence, FirstRow, row_from_offsets
from toeplitz_fnf import cli, core
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

    def test_rejects_bytes_that_are_not_utf8(self):
        for data in (b"0 1 \xff", b'{"first_row": [0, 1], "k\xff": 1}'):
            with pytest.raises(InputError, match="not UTF-8"):
                parse_input(data)

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


class TestReaderContract:
    """What the reader accepts and refuses, through ``parse_input`` and through a file."""

    @staticmethod
    def _compute(tmp_path, capsys, data: bytes, *flags):
        path = tmp_path / "row.in"
        path.write_bytes(data)
        code = run(["compute", *flags, str(path)])
        return code, capsys.readouterr()

    def test_no_break_space_separates(self):
        assert parse_input("0 1\u00a02 0").tolist() == [0.0, 1.0, 2.0, 0.0]

    def test_information_separators_separate(self):
        assert parse_input("\x1c0\x1d1\x1e2\x1f0").tolist() == [0.0, 1.0, 2.0, 0.0]
        # str.lstrip() skips them too, so a document after them is read as JSON
        with pytest.raises(InputError, match="invalid JSON input"):
            parse_input('\x1c{"first_row": [0, 1]}')

    def test_unicode_digits_follow_float(self):
        assert parse_input("0 \u0661 \u0662.5").tolist() == [0.0, 1.0, 2.5]

    def test_crlf_line_endings(self, tmp_path, capsys):
        for data in (b"0 0\r\n1\r\n0\r\n", b'{"first_row": [0, 0,\r\n 1, 0]}\r\n'):
            code, out = self._compute(tmp_path, capsys, data, "--format", "text")
            assert code == EXIT_OK
            assert "block 1 size=2 vertices=1,3 first_row=0,1" in out.out

    def test_non_utf8_stdin_is_input_error_in_the_c_locale(self):
        # there, stdin's text layer would pass the byte through as a surrogate
        env = dict(os.environ, LC_ALL="C",
                   PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        env.pop("PYTHONUTF8", None)
        env.pop("PYTHONIOENCODING", None)
        done = subprocess.run([sys.executable, "-m", "toeplitz_fnf", "compute", "-"],
                              input=b'{"first_row": [0, 1], "k\xff": 1}', capture_output=True,
                              env=env)
        assert done.returncode == EXIT_INPUT and b"cannot read -" in done.stderr

    def test_byte_order_mark_is_input_error(self, tmp_path, capsys):
        for data in (b"\xef\xbb\xbf0 1", b'\xef\xbb\xbf{"first_row": [0, 1]}'):
            code, out = self._compute(tmp_path, capsys, data)
            assert code == EXIT_INPUT and "error:" in out.err

    def test_json_keys_are_read_as_json_reads_them(self):
        # the last duplicate wins, other keys are ignored, and escapes name keys
        assert parse_input('{"first_row": [1, 2], "first_row": [0, 3, 4]}').tolist() == [0, 3, 4]
        assert parse_input('{"n": 5, "n": 2, "first_row": [0, 1]}').tolist() == [0, 1]
        assert parse_input('{"first_row": [0, 1], "note": {"x": [1]}}').tolist() == [0, 1]
        assert parse_input('{"first\\u005frow": [0, 1]}').tolist() == [0, 1]

    @pytest.mark.parametrize("array", ["[]", "[ ]", "[,]", "[0,,1]", "[0 1]", "[01]", "[1.]",
                                       "[.5]", "[+1]", "[1e]", "[-]"])
    def test_malformed_arrays_are_input_errors(self, array, tmp_path, capsys):
        code, out = self._compute(tmp_path, capsys, b'{"first_row": %s}' % array.encode())
        assert code == EXIT_INPUT and "error:" in out.err

    @pytest.mark.parametrize("doc", ['{"first_row": [0, 1%s]}', '{"n": 1%s, "first_row": [0]}'])
    def test_json_integer_past_the_digit_limit_is_input_error(self, doc, tmp_path, capsys):
        # json.loads refuses integers of more than 4300 digits with a plain ValueError
        code, out = self._compute(tmp_path, capsys, (doc % ("0" * 4300)).encode())
        assert code == EXIT_INPUT and "error:" in out.err

    def test_negative_zero_writes_as_zero(self, tmp_path, capsys):
        row = [0, 1, -0.0, 0, 1.5, -0.0, 0]
        texts = {"0": " ".join(map(str, row)).replace("-0.0", "0"),
                 "-0": " ".join(map(str, row)).replace("-0.0", "-0")}
        for fmt in ("json", "text"):
            outputs = set()
            for text in texts.values():
                document = '{"first_row": [%s]}' % text.replace(" ", ", ")
                for data in (text.encode(), document.encode()):
                    code, out = self._compute(tmp_path, capsys, data, "--format", fmt)
                    assert code == EXIT_OK
                    outputs.add(out.out)
            assert len(outputs) == 1


# Documents near the byte reader's edges: number bytes, commas, both sets of
# whitespace, and the frames a "first_row" array sits in.
_JSON_SPACE = " \t\n\r"
_SPLIT_SPACE = " \t\n\v\f\r\x1c\x1d\x1e\x1f"
_UNICODE_SPACE = "\x85\xa0\u2003\u3000"


def _joined(tokens, separators):
    """Tokens, at least one, with a separator drawn between each two."""
    return st.builds(lambda ts, ss: "".join(t + s for t, s in zip(ts, ss)) + ts[-1],
                     st.lists(tokens, min_size=1, max_size=8),
                     st.lists(separators, min_size=7, max_size=7))


_JSON_BODIES = st.one_of(
    st.text("0123456789-+.eE,/" + _SPLIT_SPACE, max_size=30),
    _joined(st.one_of(st.sampled_from(["0", "0", "0", "-0", "1", "0.5", "-2.5e3", "1E-2"]),
                      st.text("0123456789-+.eE", max_size=4)),
            st.builds(lambda a, comma, b: a + comma + b, st.text(_SPLIT_SPACE, max_size=1),
                      st.sampled_from([",", ",", ",", "", ",,"]),
                      st.text(_SPLIT_SPACE, max_size=1))))
_JSON_FRAMES = st.sampled_from([
    '{"first_row": [%s]}', '{"n": %%d, "first_row": [%s]}', '{"first_row": [%s], "n": %%d}',
    '{"first_row": [1], "first_row": [%s]}', '{"first_row": [%s], "x": [1]}',
    '{"first_row": 0, "x": [%s]}', '{"x": [%s], "first_row": []}',
    '{"first_row": {"y": [%s]}}', '{"first_row": "[%s]"}',
    '%%s{"first_row": [%s]}', '{"first_row": [%s]} %%s', '[%s]'])
_TEXT_DOCUMENTS = st.one_of(
    st.text("0123456789._+-einfx" + _SPLIT_SPACE + _UNICODE_SPACE, max_size=30),
    _joined(st.one_of(st.sampled_from(["0", "0", "0", "-0", "1", "2.5", "1_000", "inf"]),
                      st.text("0123456789._+-einfx", max_size=5)),
            st.text(_SPLIT_SPACE + _UNICODE_SPACE, min_size=1, max_size=2)))


@st.composite
def _json_documents(draw):
    frame = draw(_JSON_FRAMES) % draw(_JSON_BODIES)
    if "%d" in frame:
        return frame % draw(st.integers(0, 9))
    if "%s" in frame:
        return frame % draw(st.text(_JSON_SPACE + "\x1c,x", max_size=2))
    return frame


class TestReaderMatchesReference:
    """The byte reader refuses exactly what the token-by-token reader refuses, and
    otherwise reads the same row."""

    @staticmethod
    def _judge(doc: str) -> None:
        try:
            want = reference.parse_input(doc)
        except reference.InputRefused:
            want = None
        for given_doc in (doc, doc.encode("utf-8")):
            if want is None:
                with pytest.raises(InputError):
                    parse_input(given_doc)
            else:
                got = parse_input(given_doc)
                assert got.dtype == np.float64 and np.array_equal(got, want), (doc, got, want)

    @settings(max_examples=400, deadline=None)
    @given(_json_documents())
    def test_json_documents(self, doc):
        self._judge(doc)

    @settings(max_examples=400, deadline=None)
    @given(_TEXT_DOCUMENTS)
    def test_text_documents(self, doc):
        self._judge(doc)

    def test_every_ascii_byte_beside_tokens(self):
        for c in map(chr, range(128)):
            for doc in (f"1{c}0{c}2", f"{c}0 1{c}", f"0{c}", '{"first_row": [1,%s0%s, 2]}' % (c, c),
                        '{"first_row": [1%s, 0%s]}' % (c, c), '{"first_row": [%s0]}' % c,
                        '{"first_row": [1,%s2]}' % c):
                self._judge(doc)
                try:
                    reference.parse_input(doc)
                except reference.InputRefused:
                    continue
                # what the reference reads, the byte reader reads itself
                assert cli._read_ascii(doc.encode()) is not None, doc

    def test_documents_across_windows(self):
        """Rows of several windows, some with 0 tokens and some without, and faults at the edges."""
        rng = np.random.default_rng(7)
        quarter = cli.CHUNK // 2
        share = np.repeat([0.0, 0.9, 0.0, 1.0], quarter)  # of 0 tokens, quarter by quarter
        tokens = np.where(rng.random(share.size) < share, "0",
                          rng.integers(1, 10**4, share.size).astype(str)).tolist()
        for row in (tokens, tokens[:3 * quarter]):  # ending in 0 tokens, and in others
            for sep in (" ", "\n", "\x1c", ", ", ",\r\n"):
                text = sep.join(row)
                self._judge('{"first_row": [%s]}' % text if "," in sep else text)
            body = ", ".join(row)
            self._judge('{"first_row": [%s, ]}' % body)
            self._judge('{"first_row": [%s,%s]}' % (body, " " * cli.CHUNK))
        # the first window is cut past the second comma of ",,", and only 0 tokens follow
        m = (cli.CHUNK + 1) // 3
        head = ", ".join(["7" * (cli.CHUNK + 2 - 3 * m)] + ["7"] * (m - 1))
        assert len(head) == cli.CHUNK - 1
        self._judge('{"first_row": [%s,, %s]}' % (head, ", ".join(["0"] * m)))
        body, text = ", ".join(tokens), " ".join(tokens)
        for at in (cli.CHUNK - 1, cli.CHUNK, len(body) // 2, len(body) - 2 * cli.CHUNK):
            for fault in ("0 0", "0,,0", "1 2", ", ,", "01", "0x1"):
                self._judge('{"first_row": [%s%s%s]}' % (body[:at], fault, body[at:]))
                self._judge(text[:at] + fault + text[at:])


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

def _thirds_row():
    """Order ``3 * CHUNK``, every nonzero offset a multiple of 3.

    The three residue classes are the blocks, so both inner block bounds sit
    on chunk edges.  The block rows hold fractional, ``-0.0`` and integral
    values beyond ``2**63``.
    """
    entries = np.zeros(3 * cli.CHUNK)
    entries[0] = -0.0
    entries[30::33] = -0.0
    entries[[3, 6, 9, 12, 300, 120_000]] = [0.5, 2.0**63, -1e22, 2.5e-7, 7.0, -(2.0**64)]
    return entries.tolist()


def _dense_row(n, seed):
    """No zero entry, so every entry is its own token: the tokens fill several chunks."""
    rng = np.random.default_rng(seed)
    entries = rng.integers(1, 10**6, size=n) / 64 - 7812.5
    entries[entries == 0] = 0.25
    return entries.tolist()


def _long_tokens_row(n, seed):
    """One block (``a_1 != 0``) whose entries print as integers of about 300 digits."""
    rng = np.random.default_rng(seed)
    return (rng.integers(1, 10**6, size=n) * 1e294).tolist()


def _two_class_row(n):
    """Offsets {2, 6, 1000}: the odd and the even vertices are the two blocks."""
    entries = np.zeros(n)
    entries[[0, 2, 6, 1000]] = [1.5, 2.0, -0.25, 7.0]
    return entries.tolist()


WRITER_ROWS = {
    "golden-31": _golden_31(),
    "weighted-7": [0.0, 0.0, 3.0, 0.0, 8.0, 0.0, 9.0],
    "order-1": [42.0],
    "all-zero-31": [0.0] * 31,
    "two-fractional": [0.75, 0.0, 0.5, 0.0, 0.0, 0.0, 1.25, 0.0, 0.0, 0.0, -3.125, 0.0, 0.0],
    "special-values": SPECIAL_VALUES,
    "clustered-3001": _clustered_row(3001, 11),
    # past two chunk edges, and past every digit width up to 10**5
    "thirds-3-chunks": _thirds_row(),
    "all-zero-2-chunks+1": [0.0] * (2 * cli.CHUNK + 1),
    "dense-2-chunks+7": _dense_row(2 * cli.CHUNK + 7, 13),
    # one block whose texts each span several passes
    "one-block-long-tokens": _long_tokens_row(cli.CHUNK, 17),
    # two blocks of exactly PASS entries, each a pass, and of PASS + 1, each streamed
    "two-class-2-passes": _two_class_row(2 * cli.PASS),
    "two-class-2-passes+2": _two_class_row(2 * cli.PASS + 2),
}

#: The most text one write may hold, whatever the order: a pass holds at most
#: ``PASS`` entries, each with a vertex of about 10 characters, a row token of
#: at most about 310 (an integral float near 1e308) and a block header of about
#: 50; the labels go ``CHUNK`` at a time, at most about 12 characters each.
WRITE_BOUND = 64 * cli.CHUNK


class _OnlyWriteStdout:
    """A stdout with only ``write(str)`` and ``flush()``, as a traced benchmark child has."""

    def __init__(self):
        self.writes = []
        self.write = self.writes.append

    def flush(self):
        pass


class _FailingFlush:
    """A stdout that records its calls and raises ``error``, unless None, at ``flush()``."""

    def __init__(self, error):
        self.error, self.calls = error, []

    def write(self, text):
        self.calls.append("write")

    def flush(self):
        self.calls.append("flush")
        if self.error is not None:
            raise self.error


class TestWriterBytes:
    @pytest.mark.parametrize("name", sorted(WRITER_ROWS))
    def test_matches_per_entry_reference(self, name, tmp_path, capsys, monkeypatch):
        values = WRITER_ROWS[name]
        result = compute_fnf(FirstRow(values))
        inputs = (_write(tmp_path, "row.txt", " ".join(map(repr, values))),
                  _write(tmp_path, "row.json", json.dumps({"first_row": values})))
        references = {(fmt, trace): reference(result, trace)
                      for fmt, reference in (("json", _reference_json), ("text", _reference_text))
                      for trace in (False, True)}
        for path in inputs:
            for (fmt, trace), want in references.items():
                argv = ["compute", "--format", fmt] + ["--trace"] * trace + [path]
                assert run(argv) == EXIT_OK
                got = capsys.readouterr().out
                if got != want:
                    # a short excerpt: a full diff of long lines takes minutes
                    i = len(os.path.commonprefix([got, want]))
                    pytest.fail(f"{argv}: first difference at character {i}: "
                                f"{got[i - 30:i + 30]!r} != {want[i - 30:i + 30]!r}")
                # the same bytes in bounded writes to a stdout with only write and flush
                stdout = _OnlyWriteStdout()
                with monkeypatch.context() as patch:
                    patch.setattr(cli, "sys",
                                  types.SimpleNamespace(stdout=stdout, stderr=sys.stderr))
                    assert run(argv) == EXIT_OK
                assert "".join(stdout.writes) == want, argv
                assert max(map(len, stdout.writes)) <= WRITE_BOUND, argv

    def test_rows_at_the_pass_edge(self):
        for name, size in (("two-class-2-passes", cli.PASS),
                           ("two-class-2-passes+2", cli.PASS + 1)):
            result = compute_fnf(FirstRow(WRITER_ROWS[name]))
            assert np.diff(result.block_bounds).tolist() == [size, size]

    def test_rows_cut_into_several_blocks(self):
        assert compute_fnf(FirstRow(WRITER_ROWS["special-values"])).component_count == 2
        assert compute_fnf(FirstRow(WRITER_ROWS["clustered-3001"])).component_count > 1000

    def test_rows_cross_chunk_edges(self):
        chunk = cli.CHUNK
        thirds = compute_fnf(FirstRow(WRITER_ROWS["thirds-3-chunks"]))
        assert thirds.block_bounds.tolist() == [0, chunk, 2 * chunk, 3 * chunk]
        assert thirds.n > 10**5
        zero = compute_fnf(FirstRow(WRITER_ROWS["all-zero-2-chunks+1"]))
        assert zero.component_count == zero.n > 2 * chunk
        dense = compute_fnf(FirstRow(WRITER_ROWS["dense-2-chunks+7"]))
        assert dense.component_count == 1 and np.count_nonzero(dense.row.entries) > 2 * chunk
        long = compute_fnf(FirstRow(WRITER_ROWS["one-block-long-tokens"]))
        assert long.component_count == 1
        assert len(cli.render_text(long)) > 4 * WRITE_BOUND

    def test_labels_go_a_chunk_at_a_time(self):
        # the labels are written as they are formatted, CHUNK at a time; the
        # vertex texts are held for the permutation and stay PASS at a time
        result = compute_fnf(row_from_offsets(4 * cli.CHUNK, [2]))
        for render, sep, before, after in ((cli.render_json, ", ", None, '], "blocks": ['),
                                           (cli.render_text, ",", "\ncis ", "\n")):
            stdout = _OnlyWriteStdout()
            render(result, out=stdout)
            writes = stdout.writes
            lo = 1 + (writes.index(before) if before else 0)
            labels = writes[lo:writes.index(after, lo)]
            assert "".join(labels) == sep.join(map(str, result.cis.rho.tolist()))
            assert len(labels) == 4, render
            assert max(map(len, writes)) <= WRITE_BOUND

    @pytest.mark.parametrize("nonzeros", [0, 2, cli.PASS // 32, cli.PASS // 32 + 1, cli.PASS])
    def test_sparse_and_dense_row_passes_write_the_same_bytes(self, nonzeros):
        # a pass with at most one nonzero token in 32 joins slices of a text of
        # zero tokens, a denser one gathers bytes: both give the tokens joined
        entries = np.zeros(cli.PASS)
        at = [0, -1] if nonzeros == 2 else np.random.default_rng(nonzeros).permutation(
            cli.PASS)[:nonzeros]
        entries[at] = (np.arange(nonzeros) + 0.5) / 8  # no integral value: each token is its repr
        ids, write = cli._row_tokens(FirstRow(entries), ", ")
        for lo, hi in ((0, cli.PASS), (1, cli.PASS // 2), (cli.PASS - 3, cli.PASS)):
            tokens = [("0" if x == 0 else repr(x)) + ", " for x in entries[lo:hi].tolist()]
            data, count = write(ids[lo:hi])
            assert str(data, "ascii") == "".join(tokens)
            assert count.tolist() == list(map(len, tokens))

    def test_sparse_row_is_read_in_its_live_windows_only(self):
        # the row's four nonzeros lie in three of its 128 windows; a dead window
        # holds only +0.0, so the tokens are found without reading it
        n, w = 1 << 23, core._WINDOW
        at = [2, 50 * w + 6, 100 * w + 8, 101 * w - 2]
        entries = np.zeros(n)
        entries[at] = [1.0, 2.5, -3.0, 4.0]
        row = FirstRow(entries)
        scanned = []

        class Counted(np.ndarray):
            """Entries that count the positions each slice of them holds."""

            def __getitem__(self, key):
                part = super().__getitem__(key)
                scanned.append(np.size(part))
                return part
        row.entries = row.entries.view(Counted)
        ids, write = cli._row_tokens(row, ",")
        assert 0 < sum(scanned) <= 3 * w + len(at)
        assert np.flatnonzero(ids).tolist() == at
        assert str(write(ids[at])[0], "ascii") == "1,2.5,-3,4,"  # integral values as integers

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
    def test_decimal_matches_str(self, dtype):
        top = int(np.iinfo(dtype).max)
        powers = [10**k for k in range(19) if 10**k <= top]
        passes = [[7], list(range(10)), [0, 9, 5], [top] * 3, [1, top],
                  [p - 1 for p in powers[1:]] + powers + [top],  # both sides of each width
                  *([p, 10 * p - 1, p + 7] for p in powers if 10 * p - 1 <= top),  # uniform
                  *([p - 1, p] for p in powers[1:])]
        for values in passes:
            for sep in (", ", ","):
                for array in (np.array(values, dtype=dtype),
                              np.broadcast_to(dtype(values[0]), 5)):  # as the c = 1 labels
                    data, count = cli._decimal(array, sep)
                    texts = list(map(str, array.tolist()))
                    assert str(data, "ascii") == sep.join(texts) + sep, (values, sep)
                    assert count.tolist() == [len(t) + len(sep) for t in texts]

    @pytest.mark.parametrize("n, offsets, dtype", LABEL_DTYPE_ROWS)
    def test_narrow_labels_write_as_int64_labels_do(self, n, offsets, dtype):
        result = compute_fnf(row_from_offsets(n, offsets))
        assert result.cis.rho.dtype == dtype
        wide = dataclasses.replace(result, cis=ComponentIndexSequence(
            n, result.component_count, result.cis.rho.astype(np.int64)))
        assert cli.render_json(result) == cli.render_json(wide)
        assert cli.render_text(result, True) == cli.render_text(wide, True)

    def test_compute_reads_no_block_objects(self, tmp_path, monkeypatch):
        def refuse(self):
            raise RuntimeError("result.blocks read")

        monkeypatch.setattr(FnfResult, "blocks", property(refuse))
        path = _write(tmp_path, "row.txt", GOLDEN_31_TEXT)
        for fmt in ("json", "text"):
            assert run(["compute", "--trace", "--format", fmt, path]) == EXIT_OK


class _CountingStream:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.length = 0

    def write(self, piece):
        self.length += len(piece)


MEMORY_ROWS = {
    "all-zero": [0.0] * (4 * cli.CHUNK),
    "two-class": _two_class_row(4 * cli.CHUNK),
    "one-block": row_from_offsets(4 * cli.CHUNK, [1]).entries.tolist(),
    "clustered": _clustered_row(4 * cli.CHUNK, 19),
}


class TestWriterMemory:
    @pytest.mark.parametrize("render", [cli.render_json, cli.render_text])
    @pytest.mark.parametrize("name", sorted(MEMORY_ROWS))
    def test_writer_holds_less_than_the_document(self, name, render):
        # the writer keeps the permutation's text and one pass; a whole-document
        # text, or both whole texts of the blocks, would take more than this
        result = compute_fnf(FirstRow(MEMORY_ROWS[name]))
        stream = _CountingStream()
        tracemalloc.start()
        try:
            render(result, out=stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.8 * stream.length, (peak, stream.length)


class TestOptimisedInterpreter:
    """``python -O`` strips asserts; no check may depend on one."""

    @staticmethod
    def _run(tmp_path, text, *flags, command="compute"):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        path = _write(tmp_path, "row.txt", text)
        return subprocess.run([sys.executable, *flags, "-m", "toeplitz_fnf", command, path],
                              capture_output=True, env=env)

    def test_same_output_under_dash_o(self, tmp_path):
        plain = self._run(tmp_path, GOLDEN_31_TEXT)
        optimised = self._run(tmp_path, GOLDEN_31_TEXT, "-O")
        assert plain.returncode == optimised.returncode == EXIT_OK
        assert optimised.stdout == plain.stdout

    def test_verify_same_output_under_dash_o(self, tmp_path):
        plain = self._run(tmp_path, GOLDEN_31_TEXT, command="verify")
        optimised = self._run(tmp_path, GOLDEN_31_TEXT, "-O", command="verify")
        assert plain.returncode == optimised.returncode == EXIT_OK, plain.stdout[-300:]
        assert optimised.stdout == plain.stdout

    def test_non_finite_is_input_error_under_dash_o(self, tmp_path):
        assert self._run(tmp_path, "0 inf", "-O").returncode == EXIT_INPUT


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

    def test_row_adopts_the_parsed_array(self, tmp_path, monkeypatch):
        # load_row hands FirstRow the array parse_input made, snapped by
        # --tolerance first, and the row holds it read-only without a copy
        parsed = []

        def parse(text):
            parsed.append(parse_input(text))
            return parsed[-1]
        monkeypatch.setattr(cli, "parse_input", parse)
        path = _write(tmp_path, "row.txt", "0 1e-12 0 -1e-10 2")
        row = cli.load_row(path, tolerance=1e-9)
        assert np.shares_memory(row.entries, parsed[0])
        assert not row.entries.flags.writeable
        assert row.entries.tolist() == [0.0, 0.0, 0.0, 0.0, 2.0]

    def test_tolerance_snaps_as_the_whole_row_rule(self, tmp_path, capsys):
        # only nonzero entries are snapped, yet the row equals the rule
        # |x| <= eps -> 0 applied to every entry, and so do the output bytes
        values = [0.0, -0.0, 1e-12, -1e-9, 1e-9, 2e-9, -3.5, 0.0, 7.0, -1e-10]
        path = _write(tmp_path, "row.txt", " ".join(map(repr, values)))
        row = cli.load_row(path, tolerance=1e-9)
        whole = np.array(values)
        whole[np.abs(whole) <= 1e-9] = 0.0
        assert row.entries.tolist() == whole.tolist()
        for fmt in ("json", "text"):
            assert run(["compute", "--tolerance", "1e-9", "--format", fmt, path]) == EXIT_OK
            render = cli.render_json if fmt == "json" else cli.render_text
            assert capsys.readouterr().out == render(compute_fnf(FirstRow(whole)))

    def test_tolerance_must_be_nonnegative(self, tmp_path, capsys):
        path = _write(tmp_path, "row.txt", "0 1e-12 0 1")
        for eps in ("-1", "nan", "-inf"):
            assert run(["compute", f"--tolerance={eps}", path]) == EXIT_INPUT
            assert "tolerance" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, capsys):
        assert run(["compute", "/nonexistent/row.txt"]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_input_is_input_error(self, tmp_path, capsys, monkeypatch):
        import io
        path = tmp_path / "row.txt"
        path.write_bytes(b"0 1 \xff")
        assert run(["compute", str(path)]) == EXIT_INPUT
        assert "cannot read" in capsys.readouterr().err
        strict = io.TextIOWrapper(io.BytesIO(b"0 1 \xff"), encoding="utf-8", errors="strict")
        monkeypatch.setattr("sys.stdin", strict)
        assert run(["compute", "-"]) == EXIT_INPUT
        assert "cannot read" in capsys.readouterr().err

    def test_stdin_input(self, monkeypatch, capsys):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("0 1"))
        assert run(["compute", "-"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["component_count"] == 1

    def test_unexpected_failure_is_internal_error(self, tmp_path, capsys, monkeypatch):
        def broken(row):
            raise RuntimeError("synthetic fault")

        monkeypatch.setattr(cli, "compute_fnf", broken)
        monkeypatch.delenv("FNF_DEBUG", raising=False)
        path = _write(tmp_path, "row.txt", "0 1")
        assert run(["compute", path]) == cli.EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "internal error: synthetic fault" in err
        assert "Traceback" not in err

    def test_debug_switch_prints_the_traceback(self, tmp_path, capsys, monkeypatch):
        def broken(row):
            raise RuntimeError("synthetic fault")

        monkeypatch.setattr(cli, "compute_fnf", broken)
        monkeypatch.setenv("FNF_DEBUG", "1")
        path = _write(tmp_path, "row.txt", "0 1")
        assert run(["compute", path]) == cli.EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "internal error: synthetic fault" in err
        assert "Traceback (most recent call last)" in err
        assert "in broken" in err and "RuntimeError: synthetic fault" in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("debug", ["", "1"])
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("text", [GOLDEN_31_TEXT, " ".join(["0"] * 20000)],
                             ids=["short", "long"])
    def test_write_failure_is_internal_error(self, tmp_path, text, unbuffered, debug):
        # a short document fails at the final flush when stdout is buffered, a
        # long one in run() and then again at that flush; either way one line,
        # and the traceback only with FNF_DEBUG=1
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered, FNF_DEBUG=debug,
                   PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        path = _write(tmp_path, "row.txt", text)
        with open("/dev/full", "wb") as full:
            done = subprocess.run([sys.executable, "-m", "toeplitz_fnf", "compute", path],
                                  stdout=full, stderr=subprocess.PIPE, env=env)
        assert done.returncode == cli.EXIT_INTERNAL
        lines = done.stderr.decode().splitlines()
        assert lines[0] == "internal error: [Errno 28] No space left on device"
        if debug:
            assert lines[1] == "Traceback (most recent call last):"
            assert lines[-1] == "OSError: [Errno 28] No space left on device"
        else:
            assert len(lines) == 1, lines

    @pytest.mark.parametrize("debug", ["", "1"])
    def test_a_failed_final_flush_is_internal_error(self, tmp_path, capsys, monkeypatch, debug):
        monkeypatch.setenv("FNF_DEBUG", debug)
        monkeypatch.setattr(sys, "stdout", _FailingFlush(OSError(28, "No space left on device")))
        path = _write(tmp_path, "row.txt", GOLDEN_31_TEXT)
        assert run(["compute", path]) == cli.EXIT_INTERNAL
        lines = capsys.readouterr().err.splitlines()
        assert lines[0] == "internal error: [Errno 28] No space left on device"
        if debug:
            assert lines[1] == "Traceback (most recent call last):"
            assert lines[-1] == "OSError: [Errno 28] No space left on device"
        else:
            assert len(lines) == 1, lines

    def test_a_closed_pipe_at_the_final_flush_ends_quietly(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _FailingFlush(BrokenPipeError(32, "Broken pipe")))
        path = _write(tmp_path, "row.txt", GOLDEN_31_TEXT)
        assert run(["compute", path]) == cli.EXIT_CLOSED_PIPE
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", [["compute", "--trace"], ["verify"]],
                             ids=["compute", "verify"])
    def test_run_flushes_after_its_last_write(self, tmp_path, monkeypatch, argv):
        stdout = _FailingFlush(None)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert run([*argv, _write(tmp_path, "row.txt", GOLDEN_31_TEXT)]) == EXIT_OK
        assert stdout.calls[-1] == "flush" and "write" in stdout.calls

    def test_closed_stdin_is_input_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", None)  # as Python sets it when fd 0 is closed
        assert run(["compute", "-"]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: cannot read -: stdin is closed\n"

    def test_main_flushes_the_whole_document(self, tmp_path, capsys):
        # python -m toeplitz_fnf ends the process by os._exit, which flushes nothing itself
        env = dict(os.environ, PYTHONUNBUFFERED="",
                   PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        path = _write(tmp_path, "row.txt", " ".join(["0"] * 3001))
        for fmt in ("json", "text"):
            assert run(["compute", "--trace", "--format", fmt, path]) == EXIT_OK
            want = capsys.readouterr().out
            done = subprocess.run([sys.executable, "-m", "toeplitz_fnf", "compute", "--trace",
                                   "--format", fmt, path], capture_output=True, env=env)
            assert (done.returncode, done.stdout.decode(), done.stderr) == (EXIT_OK, want, b"")

    @pytest.mark.parametrize("entry", ["toeplitz_fnf.__main__"])
    def test_only_the_package_entry_skips_the_teardown(self, tmp_path, entry):
        # the entry of python -m toeplitz_fnf and the console script ends the
        # process, so its caller's atexit handlers never run
        env = dict(os.environ, PYTHONUNBUFFERED="",
                   PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        path = _write(tmp_path, "row.txt", GOLDEN_31_TEXT)
        code = ("import atexit, sys; atexit.register(sys.stderr.write, 'teardown'); "
                f"sys.argv[1:] = ['compute', {path!r}]; from {entry} import main; main()")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)
        assert done.returncode == EXIT_OK and json.loads(done.stdout)["n"] == 31
        assert done.stderr == b""

    @pytest.mark.parametrize("entry", ["toeplitz_fnf.__main__"])
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("zeros", [31, 20000])
    def test_a_closed_pipe_ends_quietly(self, tmp_path, entry, unbuffered, zeros):
        # no reader from the start: a short document fails at run()'s final
        # flush when stdout is buffered, a long one at a write before it;
        # neither is an internal error
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
                   PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        path = _write(tmp_path, "row.txt", " ".join(["0"] * zeros))
        code = f"import sys; sys.argv[1:] = ['compute', {path!r}]; from {entry} import main; main()"
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run([sys.executable, "-c", code], stdout=write,
                                  stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (cli.EXIT_CLOSED_PIPE, b"")

    def test_writes_through_a_stdout_with_only_write_and_flush(
            self, tmp_path, capsys, monkeypatch):
        """perfbench's CLI child times the output through such a stand-in for ``sys``."""
        class WriteOnly:
            def __init__(self):
                self.parts = []

            def write(self, text):
                if not isinstance(text, str):
                    raise TypeError(f"write() argument must be str, not {type(text).__name__}")
                self.parts.append(text)

            def flush(self):
                pass

        class SysWithStdout:
            def __init__(self, stdout):
                self.stdout = stdout

            def __getattr__(self, name):
                return getattr(sys, name)

        path = _write(tmp_path, "row.txt", GOLDEN_31_TEXT)
        for fmt in ("json", "text"):
            argv = ["compute", "--trace", "--format", fmt, path]
            assert run(argv) == EXIT_OK
            want = capsys.readouterr().out
            stdout = WriteOnly()
            with monkeypatch.context() as patch:
                patch.setattr(cli, "sys", SysWithStdout(stdout))
                assert run(argv) == EXIT_OK
            assert "".join(stdout.parts) == want
            assert capsys.readouterr().out == ""


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

    def test_order_5000_is_checked_exactly(self):
        # one block of 5000 vertices: every nonzero pair is read, none sampled
        report = verify_row(row_from_offsets(5000, [1, 7, 40]))
        assert report.passed, report.checks
        assert report.checks[-1] == ("reconstruction_exact", True,
                                     "14952 nonzero pairs; the 1 blocks hold 14952")

    @staticmethod
    def _tampered(monkeypatch, tamper):
        """Make ``verify`` judge ``tamper(compute_fnf(row))`` instead of the result."""
        monkeypatch.setattr(cli, "compute_fnf", lambda row: tamper(compute_fnf(row)))

    @staticmethod
    def _with_permutation(result, edit):
        perm = result.permutation.copy()
        edit(perm)
        return dataclasses.replace(result, permutation=perm)

    def test_swapped_permutation_entries_fail(self, tmp_path, capsys, monkeypatch):
        # n = 5000, offsets [1, 7, 40]: two neighbouring positions of the one block swapped
        def swap(perm):
            perm[5], perm[6] = perm[6], perm[5]

        self._tampered(monkeypatch, lambda res: self._with_permutation(res, swap))
        row = row_from_offsets(5000, [1, 7, 40])
        path = _write(tmp_path, "row.txt", " ".join(map(repr, row.entries.tolist())))
        code = run(["verify", path])
        out = capsys.readouterr().out
        assert code == EXIT_VERIFY_FAILED, out[-300:]
        assert "check reconstruction_exact: FAIL" in out, out[-300:]

    def test_duplicated_permutation_entry_fails(self, monkeypatch):
        # n = 5000, offsets [1, 7, 40]: vertex perm[6] listed twice, perm[5] missing
        def duplicate(perm):
            perm[5] = perm[6]

        self._tampered(monkeypatch, lambda res: self._with_permutation(res, duplicate))
        report = verify_row(row_from_offsets(5000, [1, 7, 40]))
        assert report.checks[-1] == ("reconstruction_exact", False, "the permutation does not "
                                     "list the components block by block"), report.checks

    def test_blocks_coarser_than_components_fail(self, monkeypatch):
        # all-zero row of order 3 cut into one block: the zero matrix is its
        # direct sum, but the block is reducible
        def one_block(res):
            object.__setattr__(res, "block_bounds", np.array([0, 3]))
            return res

        self._tampered(monkeypatch, one_block)
        report = verify_row(FirstRow([0.0, 0.0, 0.0]))
        assert report.checks[-1] == ("reconstruction_exact", False, "the permutation does not "
                                     "list the components block by block"), report.checks

    def test_block_diagonal_other_than_a0_fails(self, monkeypatch):
        # row 0 0 3 0 8 0 9: the blocks read a result row whose a_0 is 5, not 0
        def diagonal(res):
            entries = res.row.entries.copy()
            entries[0] = 5.0
            return dataclasses.replace(res, row=FirstRow(entries))

        self._tampered(monkeypatch, diagonal)
        report = verify_row(FirstRow([0, 0, 3, 0, 8, 0, 9]))
        assert report.checks[0][1], report.checks
        assert report.checks[-1] == ("reconstruction_exact", False,
                                     "a pair at offset 0 is no entry a_0 of a block")

    def test_block_entry_missing_from_the_row_fails(self, monkeypatch):
        # n = 40, offsets [2]: every pair reads right, but the blocks also
        # read a_4 = 1, which the row does not have; only the count sees it
        def extra(res):
            entries = res.row.entries.copy()
            entries[4] = 1.0
            return dataclasses.replace(res, row=FirstRow(entries))

        self._tampered(monkeypatch, extra)
        report = verify_row(row_from_offsets(40, [2]))
        assert report.checks[0][1], report.checks
        assert report.checks[-1] == ("reconstruction_exact", False,
                                     "38 nonzero pairs; the 2 blocks hold 74")

    def test_budget_counts_work_units(self, tmp_path, capsys):
        # n = 300, offsets 1..299: 300 + 44850 work units, though only order 300
        row = row_from_offsets(300, range(1, 300))
        path = _write(tmp_path, "row.txt", " ".join(map(repr, row.entries.tolist())))
        assert run(["verify", "--budget", "1000", path]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "budget" in err and "45150" in err, err

    @staticmethod
    def _verify_at_order_1e6(offsets, c):
        row = row_from_offsets(10**6, offsets)
        start = time.perf_counter()
        report = verify_row(row)
        elapsed = time.perf_counter() - start
        assert [(name, ok) for name, ok, _ in report.checks] == [
            ("partition_matches_oracle", True), ("reconstruction_exact", True)], report.checks
        assert report.component_count == c
        assert elapsed < 2.0, f"verify took {elapsed:.2f} s"

    def test_two_class_row_at_order_1e6(self):
        # n = 1e6, offset 2 plus 19 even offsets (seed 7): two blocks
        offsets = generate_offsets(10**6, 20, "two-class", np.random.default_rng(7))
        self._verify_at_order_1e6(offsets, 2)

    @pytest.mark.parametrize("offsets, c", [
        ([2000], 2000),  # 2 sqrt(n): the top beta undo has more groups than rows
        ([400001, 600001], 2),  # few wide groups
    ])
    def test_beta_undo_shapes_at_order_1e6(self, offsets, c):
        self._verify_at_order_1e6(offsets, c)


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
        # an empty token between commas is skipped
        assert run(["bench", "--sizes", "1e2,,1e3", "--reps", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "n=100 " in out and "n=1000" in out and out.count("median=") == 2

    def test_sizes_must_ascend(self, capsys):
        assert run(["bench", "--sizes", "2000,1000"]) == EXIT_INPUT

    @pytest.mark.parametrize("sizes", ["inf", "1e400", "nan", "0", "-5", "1.7,2.9", ",",
                                       "1e2,abc"])
    def test_sizes_must_be_whole_and_positive(self, sizes, capsys):
        assert run(["bench", "--sizes", sizes, "--reps", "1"]) == EXIT_INPUT
        assert "size" in capsys.readouterr().err

    def test_run_bench_rejects_sizes_below_one(self):
        with pytest.raises(InputError):
            run_bench([0, 400], reps=1)

    def test_unknown_policy_rejected_at_every_size(self):
        # sizes below 2 draw no offsets, yet the policy is still checked
        with pytest.raises(InputError, match="policy"):
            run_bench([1], policy="bogus", reps=1)
        with pytest.raises(InputError, match="policy"):
            generate_offsets(1, 3, "bogus", np.random.default_rng(0))

    def test_reps_must_be_positive(self, capsys):
        assert run(["bench", "--sizes", "10", "--reps", "0"]) == EXIT_INPUT
        assert "reps must be at least 1" in capsys.readouterr().err

    def test_seed_must_be_nonnegative(self, capsys):
        assert run(["bench", "--sizes", "10", "--reps", "1", "--seed", "-1"]) == EXIT_INPUT
        assert "seed" in capsys.readouterr().err
        with pytest.raises(InputError):
            run_bench([10], seed=-1, reps=1)

    def test_sizes_have_a_maximum(self, capsys, monkeypatch):
        # every case is refused before a row is built
        assert run(["bench", "--sizes", "1e20", "--reps", "1"]) == EXIT_INPUT
        assert "size" in capsys.readouterr().err
        with pytest.raises(InputError):
            run_bench([10, 10**20], reps=1)
        assert run(["bench", "--sizes", f"{cli.MAX_BENCH_SIZE + 1}"]) == EXIT_INPUT
        with pytest.raises(InputError):
            run_bench([cli.MAX_BENCH_SIZE + 1], reps=1)
        # the maximum itself is accepted
        seen = []

        def fake_bench(sizes, **kwargs):
            seen.append(sizes)
            return cli.BenchReport(seed=0, policy="uniform", reps=1, rows=[], slope=None)

        monkeypatch.setattr(cli, "run_bench", fake_bench)
        assert run(["bench", "--sizes", "1e8"]) == EXIT_OK
        assert seen == [[cli.MAX_BENCH_SIZE]]

    def test_policies_generate_valid_offsets(self):
        rng = np.random.default_rng(3)
        for policy in ("uniform", "clustered"):
            offs = generate_offsets(1000, 9, policy, rng)
            assert offs.size == 9
            assert offs.min() >= 1 and offs.max() <= 999
            assert np.all(np.diff(offs) > 0)
        clustered = generate_offsets(1000, 9, "clustered", np.random.default_rng(4))
        assert clustered.min() >= 750

    def test_component_count_policies(self):
        rng = np.random.default_rng(5)
        for n in range(1, 200):
            two = generate_offsets(n, 9, "two-class", rng)
            assert np.all(two % 2 == 0) and np.all(np.diff(two) > 0)
            assert compute_fnf(row_from_offsets(n, two)).component_count == min(n, 2)
            none = generate_offsets(n, 9, "singletons", rng)
            assert compute_fnf(row_from_offsets(n, none)).component_count == n
        assert generate_offsets(1000, 9, "two-class", rng).size == 9

    def test_reports_are_reproducible_structurally(self):
        a = run_bench([400, 800], seed=5, reps=2)
        b = run_bench([400, 800], seed=5, reps=2)
        assert [(r.n, r.k) for r in a.rows] == [(r.n, r.k) for r in b.rows]


class TestVerifyReportOrdering:
    def test_report_lists_all_checks(self):
        report = verify_row(FirstRow([0, 0, 3, 0, 8, 0, 9]))
        names = [name for name, _, _ in report.checks]
        assert names == ["partition_matches_oracle", "reconstruction_exact"]
        assert report.passed
