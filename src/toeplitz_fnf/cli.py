"""Command-line front end: compute, verify, and bench.

``compute`` parses a first row, runs the pipeline, and prints the result as
JSON or text.  ``verify`` judges that result exactly, at every order, by
two vectorised checks that share no code with the pipeline.
``bench`` times the pipeline over a list of sizes and reports the log-log
slope of the median runtimes.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 unexpected
internal failure, which prints its traceback to stderr if ``FNF_DEBUG=1``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass

import numpy as np

from .core import FirstRow, row_from_offsets
from .fnf import FnfResult, compute_fnf
from . import oracle

__all__ = [
    "InputError",
    "parse_input",
    "load_row",
    "render_json",
    "result_to_document",
    "document_to_json",
    "render_text",
    "verify_row",
    "run_bench",
    "run",
    "main",
]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

#: Work units (see :func:`verify_row`) ``verify`` allows by default: n = 1e7 at k = 24.
DEFAULT_VERIFY_BUDGET = 3 * 10**8

BENCH_POLICIES = ("uniform", "clustered", "two-class", "singletons")
#: Largest size ``bench`` accepts: ten times the largest size of the scaling
#: gates, and a row of 800 MB.
MAX_BENCH_SIZE = 10**8
#: Entries formatted, or input bytes read, per vectorised pass; it bounds the
#: passes' temporaries.
CHUNK = 1 << 16
#: Bytes of output text decoded at a time; with ``CHUNK`` it bounds each write.
SPAN = 4 * CHUNK


class InputError(ValueError):
    """Raised for malformed or out-of-contract input documents."""


# ---------------------------------------------------------------------------
# input parsing

def parse_input(text: str | bytes) -> np.ndarray:
    """Parse an input document, a ``str`` or UTF-8 bytes, into the raw first-row values.

    Two formats are auto-detected: a JSON object ``{"first_row": [...]}``
    with an optional ``"n"`` that must match the row length, or plain text
    whose whitespace-separated decimals form the row.  Text tokens are read
    by the rules of ``float()``.  An ASCII document is read by
    :func:`_read_ascii` where it can; the ``str`` reader judges the rest.
    """
    values = None
    if text.isascii():
        values = _read_ascii(text if isinstance(text, bytes) else text.encode("ascii"))
    if values is None:
        values = _read_str(text if isinstance(text, str) else text.decode("utf-8"))
    if not np.isfinite(values).all():
        raise InputError("first row entries must be finite")
    return values


def _read_str(text: str) -> np.ndarray:
    """The row of a document read from ``str`` objects, token by token."""
    stripped = text.lstrip()
    if not stripped:
        raise InputError("empty input")
    if stripped[0] != "{":
        try:
            return np.array(text.split(), dtype=np.float64)
        except ValueError as exc:
            raise InputError(f"invalid numeric token: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also json's limit of 4300 digits on an integer
        raise InputError(f"invalid JSON input: {exc}") from exc
    if not isinstance(doc, dict) or "first_row" not in doc:
        raise InputError('JSON input must be an object with a "first_row" array')
    raw = doc["first_row"]
    if not isinstance(raw, list) or not raw:
        raise InputError('"first_row" must be a nonempty array of numbers')
    # bool is a subclass of int, so compare exact types
    if not set(map(type, raw)) <= {float, int}:
        raise InputError('"first_row" must contain only numbers')
    try:
        values = np.array(raw, dtype=np.float64)
    except OverflowError as exc:
        raise InputError(f'"first_row" entries must be finite: {exc}') from exc
    _check_order(doc, values.size)
    return values


def _check_order(doc: dict, size: int) -> None:
    if "n" in doc:
        if type(doc["n"]) is not int:
            raise InputError(f'declared order {doc["n"]!r} must be an integer')
        if doc["n"] != size:
            raise InputError(f'declared order {doc["n"]} does not match row length {size}')


#: str.split()'s ASCII separators: \t \n \v \f \r, \x1c-\x1f and space
_LEADING_SPACE = re.compile(rb"[\t-\r\x1c- ]*")
#: a token ends at one of them or at a comma, which separates a JSON row's tokens
_SEPARATOR = re.compile(rb"[\t-\r\x1c- ,]")


def _read_ascii(data: bytes) -> np.ndarray | None:
    """The row of an ASCII document, or None where :func:`_read_str` must judge it.

    A text document's tokens are those of ``str.split()``; one holding a comma
    goes to the ``str`` reader, as ``float()`` refuses every token that holds
    one.  A JSON document is checked through its frame: the text up to its
    first ``[`` and from its last ``]``, which must parse as an object whose
    ``"first_row"`` is ``[]``.  The frame holds no other bracket, so that array
    is the row.  The row's bytes may hold only number bytes (``0-9 + - . e
    E``), commas and JSON whitespace, and its tokens and commas alternate.
    """
    at = _LEADING_SPACE.match(data).end()
    if at == len(data):
        return None
    if data[at] != ord("{"):
        if b"," in data:
            return None
        return _scan(data, 0, len(data), lambda texts: b"".join(texts).replace(b",", b" ").split())
    lo, hi = data.find(b"["), data.rfind(b"]")
    if not 0 <= lo < hi:
        return None
    frame = data[:lo + 1] + data[hi:]
    try:
        doc = json.loads(frame)
    except ValueError:
        return None
    if not isinstance(doc, dict) or doc.get("first_row") != []:
        return None
    # without its whitespace the row must be tokens of number bytes between single commas
    row = data[lo + 1:hi].translate(None, b" \t\n\r")
    if (not row or row.translate(None, b"0123456789+-.eE,") or row.startswith(b",")
            or row.endswith(b",") or b",," in row):
        return None
    values = _scan(data, lo + 1, hi, lambda texts: json.loads(b"".join([b"[", *texts, b"]"])))
    if values is None or values.size != row.count(b",") + 1:
        return None
    _check_order(doc, values.size)
    return values


def _scan(data: bytes, lo: int, hi: int, convert) -> np.ndarray | None:
    """The values of the tokens of ``data[lo:hi]``, or None where one is no number.

    The bytes are scanned in windows of about ``CHUNK``, each ending past a
    separator.  A one-byte ``0`` token is 0.0 without a Python object.  Each
    window writes its other tokens, each followed by a comma but the last, and
    spaces for the rest of its bytes.  ``convert`` reads the list of these
    texts, in one call, into a list of numbers or of tokens for ``float()``.
    """
    count, rest, texts = 0, [], []
    while lo < hi:
        found = _SEPARATOR.search(data, lo + CHUNK, hi)
        end = found.end() if found else hi
        b = np.frombuffer(data, dtype=np.uint8, count=end - lo, offset=lo)
        lo = end
        # a separator is a comma or a byte in 9..13 or 28..32: the subtractions wrap below
        word = ((b - 9) >= 5) & ((b - 28) >= 5) & (b != ord(","))
        start = word.copy()
        start[1:] &= ~word[:-1]
        zero = start & (b == ord("0"))
        zero[:-1] &= ~word[1:]
        tokens, zeros = np.count_nonzero(start), np.count_nonzero(zero)
        if zeros < tokens:
            kept = word ^ zero
            text = (b - 32) * kept.view(np.uint8) + 32  # the kept tokens, spaces for the rest
            comma = kept[:-1] > word[1:]  # on booleans, > is "and not": the byte after each one
            text[1:] += comma.view(np.uint8) * 12
            texts.append(text.tobytes())
            at = np.arange(tokens) if not zeros else np.flatnonzero(~zero[np.flatnonzero(start)])
            rest.append(at + count)
        count += tokens
    values = np.zeros(count)
    if texts:
        texts[-1] = texts[-1].rstrip().removesuffix(b",")  # the last token's comma
        try:
            values[np.concatenate(rest)] = np.array(convert(texts), dtype=np.float64)
        except (ValueError, OverflowError):  # a token float() or json refuses, or beyond float64
            return None
    return values


def load_row(source: str, tolerance: float = 0.0) -> FirstRow:
    """Read an input document from a path (or ``-`` for stdin) into a row.

    The input is read as bytes (stdin as text if it has no byte buffer), and
    decoded as UTF-8 unless it is ASCII.  Entries with absolute value at most
    ``tolerance`` are snapped to exact zero before the row is built.
    """
    try:
        if source == "-":
            text = getattr(sys.stdin, "buffer", sys.stdin).read()
        else:
            with open(source, "rb") as fh:
                text = fh.read()
        if isinstance(text, bytes) and not text.isascii():
            text = text.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {source}: {exc}") from exc
    if not tolerance >= 0:  # also rejects NaN
        raise InputError(f"tolerance must be nonnegative, got {tolerance}")
    values = parse_input(text)
    if tolerance > 0:
        values[np.abs(values) <= tolerance] = 0.0
    return FirstRow(values, _adopt=True)  # parse_input made it and checked it finite


# ---------------------------------------------------------------------------
# output rendering


def _decimal(values: np.ndarray, sep: str) -> tuple[np.ndarray, np.ndarray]:
    """Nonnegative integers in decimal, each followed by ``sep``, and each one's byte count.

    The digits fill a grid a column per pass, right-aligned before ``sep``;
    dropping the leading zeros lays the entries end to end.
    """
    width = len(str(values.max()))
    grid = np.empty((values.size, width + len(sep)), dtype=np.uint8)
    for column, byte in enumerate(sep.encode("ascii"), start=width):
        grid[:, column] = byte
    keep = np.ones(grid.shape, dtype=bool)
    count = np.full(values.size, 1 + len(sep))
    rest = values
    for column in range(width - 1, -1, -1):
        rest, whole = rest // 10, rest
        grid[:, column] = whole - rest * 10 + ord("0")
        if column:  # the digit left of this one is a leading zero once nothing is left
            keep[:, column - 1] = rest > 0
            count += keep[:, column - 1]
    return grid[keep], count


def _row_tokens(entries: np.ndarray, sep: str):
    """Each row entry's token id, and a writer of ids as bytes with each one's byte count.

    Each nonzero entry is formatted once: integral values as plain integers
    (``1e300`` in full), others by their float repr.  All zeros (``-0.0``
    too) share token 0, ``0``.  Every token is followed by ``sep``.
    """
    nonzero = np.flatnonzero(entries)
    texts, counts = [("0" + sep).encode("ascii")], [np.ones(1, dtype=np.int64)]
    for at in range(0, nonzero.size, CHUNK):
        chunk = [str(int(x)) if x.is_integer() else repr(x)
                 for x in entries[nonzero[at:at + CHUNK]].tolist()]
        texts.append((sep.join(chunk) + sep).encode("ascii"))
        counts.append(np.fromiter(map(len, chunk), dtype=np.int64, count=len(chunk)))
    table = np.frombuffer(b"".join(texts), dtype=np.uint8)
    count = np.concatenate(counts) + len(sep)
    end = np.cumsum(count)
    ids = np.zeros(entries.size, dtype=np.min_scalar_type(nonzero.size))
    ids[nonzero] = np.arange(1, nonzero.size + 1)

    def write(chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n_bytes = count[chunk]
        ends = np.cumsum(n_bytes)
        return table[np.repeat(end[chunk] - ends, n_bytes) + np.arange(ends[-1])], n_bytes
    return ids, write


def _text(values: np.ndarray, write, bounds: np.ndarray, sep: str):
    """The values' texts laid end to end, and where each block's text starts, then the end.

    ``write`` formats ``CHUNK`` values at a time (see :func:`_decimal`), each
    text followed by ``sep``, whose first byte is 0 after a block's last entry.
    Block ``k``'s text, that ``sep`` included, is ``text[ends[k]:ends[k + 1]]``.
    """
    text, ends, last = bytearray(), [np.zeros(1, dtype=np.int64)], bounds[1:] - 1
    for at in range(0, values.size, CHUNK):
        data, count = write(values[at:at + CHUNK])
        here = last[np.searchsorted(last, at):np.searchsorted(last, at + count.size)]
        stop = np.cumsum(count)[here - at]
        data[stop - len(sep)] = 0
        ends.append(len(text) + stop)
        text.extend(data)
    return memoryview(text), np.concatenate(ends)


def _slices(text: memoryview, lo: int, hi: int):
    """``text[lo:hi]`` decoded, ``SPAN`` bytes at a time."""
    for at in range(lo, hi, SPAN):
        yield str(text[at:min(at + SPAN, hi)], "ascii")


def _labels(rho: np.ndarray, sep: str):
    """The labels' text, ``CHUNK`` labels at a time."""
    for at in range(0, rho.size, CHUNK):
        data, _ = _decimal(rho[at:at + CHUNK], sep)
        yield str(data[:-len(sep)] if at + CHUNK >= rho.size else data, "ascii")


def _body(result: FnfResult, sep: str, joiner: str, middle: str, batch):
    """The blocks' text, ``joiner`` between blocks, then ``middle`` and the permutation's.

    The vertex texts, which are the permutation's, and the row texts are
    formatted once (see :func:`_text`).  The blocks go a pass at a time: at
    most ``CHUNK`` blocks and ``SPAN`` bytes of each text, each decoded once.
    ``batch(k, sizes, verts, rows)`` formats a pass whose first block is the
    ``k``-th (0-based), from its blocks' sizes and texts.  A block with more
    text than a pass goes alone, its texts in slices where ``batch`` put the
    markers ``\\1`` and ``\\2``.
    """
    perm, bounds = result.permutation, result.block_bounds
    sizes = np.diff(bounds)
    token, write_row = _row_tokens(result.row.entries, sep)
    # a block's row is read at each vertex's distance from the block's first vertex
    row_text = _text(token[perm - np.repeat(perm[bounds[:-1]], sizes)], write_row, bounds, sep)
    texts = _text(perm, lambda chunk: _decimal(chunk, sep), bounds, sep), row_text
    last_sep = "\0" + sep[1:]  # the separator after a block's last entry (see _text)
    start = 0
    while start < sizes.size:
        stop = min([start + CHUNK] + [int(ends.searchsorted(ends[start] + SPAN, "right")) - 1
                                      for _, ends in texts])
        if start:
            yield joiner
        if stop > start:
            verts, rows = (str(text[ends[start]:ends[stop]], "ascii").split(last_sep)
                           for text, ends in texts)
            yield joiner.join(batch(start, memoryview(sizes[start:stop]), verts, rows))
        else:
            stop = start + 1
            spans = {mark: (text, ends[start], ends[stop] - len(sep))
                     for mark, (text, ends) in zip("\1\2", texts)}
            one, = batch(start, sizes[start:stop], ["\1"], ["\2"])
            for piece in re.split("([\1\2])", one):
                yield from _slices(*spans[piece]) if piece in spans else (piece,)
        start = stop
    yield middle
    text, ends = texts[0]
    for piece in _slices(text, 0, ends[-1] - len(sep)):
        yield piece.replace("\0", sep[0])


def _emit(pieces, out):
    """``out.write`` each piece and return None, or without ``out`` return them joined."""
    if out is None:
        return "".join(pieces)
    for piece in pieces:
        out.write(piece)
    return None


def _json_batch(k, sizes, verts, rows):
    return [f'{{"size": {size}, "first_row": [{row}], "vertices": [{vertices}]}}'
            for size, vertices, row in zip(sizes, verts, rows)]


def _json_pieces(result: FnfResult, include_trace: bool):
    yield f'{{"n": {result.n}, "component_count": {result.component_count}, "cis": ['
    yield from _labels(result.cis.rho, ", ")
    yield '], "blocks": ['
    yield from _body(result, ", ", ", ", '], "permutation": [', _json_batch)
    yield "]"
    if include_trace:
        steps = [{"kind": s.kind, "n_before": s.n_before, "n_after": s.n_after,
                  "d": s.d, "c": s.c} for s in result.trace.steps]
        yield f', "trace": {json.dumps(steps, separators=(", ", ": "))}'
    yield "}\n"


def render_json(result: FnfResult, include_trace: bool = False, out=None) -> str | None:
    """The JSON document ``fnf compute`` prints, newline included.

    With ``out`` it is written there in pieces of bounded size (see
    :func:`_body`), and None is returned.
    """
    return _emit(_json_pieces(result, include_trace), out)


def result_to_document(result: FnfResult, include_trace: bool = False) -> dict:
    return json.loads(render_json(result, include_trace))


def document_to_json(doc: dict) -> str:
    return json.dumps(doc, separators=(", ", ": ")) + "\n"


def _text_batch(k, sizes, verts, rows):
    return [f"block {i} size={size} vertices={vertices} first_row={row}"
            for i, (size, vertices, row) in enumerate(zip(sizes, verts, rows), start=k + 1)]


def _text_pieces(result: FnfResult, include_trace: bool):
    yield f"n {result.n}\ncomponents {result.component_count}\n"
    yield from _body(result, ",", "\n", "\npermutation ", _text_batch)
    yield "\ncis "
    yield from _labels(result.cis.rho, ",")
    yield "\n"
    if include_trace:
        yield "".join(f"trace {s.kind} n={s.n_before}->{s.n_after} d={s.d} c={s.c}\n"
                      for s in result.trace.steps)


def render_text(result: FnfResult, include_trace: bool = False, out=None) -> str | None:
    """The text document ``fnf compute --format text`` prints; ``out`` as in :func:`render_json`."""
    return _emit(_text_pieces(result, include_trace), out)


# ---------------------------------------------------------------------------
# verify

@dataclass
class VerifyReport:
    n: int
    component_count: int
    checks: list[tuple[str, bool, str]]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def _reconstruction_exact(row: FirstRow, result: FnfResult, labels, offsets) -> tuple[bool, str]:
    """Whether the permuted matrix is the direct sum of the blocks, and a detail.

    Block ``k`` on vertices ``v_0, v_1, ...`` has first row
    ``b_t = result.row.entries[v_t - v_0]``.  Given a bijective permutation and
    block ``k`` holding the vertices labelled ``k + 1``, each pair ``(x, x + s)``
    with ``s`` zero or a nonzero offset sits in one block, whose ``b`` at the
    pair's position gap must be ``a_s``.  That maps the ``sum(n - s)`` nonzero
    pairs one-to-one into the ``sum(size - t)`` of the direct sum (over blocks
    and ``t >= 1`` with ``b_t != 0``): equal counts make it onto, so the matrices
    are equal, and each block, being the submatrix on a component, irreducible.
    """
    n = row.n
    perm = result.permutation - 1
    where = np.full(n, -1, dtype=perm.dtype)
    if perm.shape == (n,) and perm.min() >= 0 and perm.max() < n:
        where[perm] = np.arange(n, dtype=perm.dtype)
    bounds = result.block_bounds
    sizes = np.diff(bounds)
    if ((where < 0).any() or bounds[0] != 0 or (sizes < 1).any() or not np.array_equal(
            labels[perm], np.repeat(np.arange(1, sizes.size + 1, dtype=perm.dtype), sizes))):
        return False, "the permutation does not list the components block by block"
    home = np.repeat(bounds[:-1].astype(perm.dtype), sizes)  # block start per position
    rows = result.row.entries[perm - perm[home]]
    start = home[where]  # block start per vertex
    for s in [0, *offsets.tolist()]:
        at = start[s:] + np.abs(where[s:] - where[:n - s])  # b at the pair's position gap
        if not (rows[at] == row.entries[s]).all():
            return False, f"a pair at offset {s} is no entry a_{s} of a block"
    inner = np.arange(n, dtype=perm.dtype) - home  # n-sized temporaries in perm's dtype
    gaps = np.repeat(sizes.astype(perm.dtype), sizes) - inner  # a block's pairs at this gap
    held = int(gaps[(inner > 0) & (rows != 0)].sum(dtype=np.int64))
    pairs = int((n - offsets).sum())
    return held == pairs, f"{pairs} nonzero pairs; the {sizes.size} blocks hold {held}"


def verify_row(row: FirstRow, budget: int = DEFAULT_VERIFY_BUDGET) -> VerifyReport:
    """Judge ``compute_fnf(row)`` exactly if ``n + sum(n - s)``, nonzero ``s``, fits ``budget``."""
    n = row.n
    offsets = np.flatnonzero(row.entries[1:]) + 1
    units = n + int((n - offsets).sum())
    if units > budget:
        raise InputError(f"{units} work units exceed the budget {budget}; use --budget {units}")
    result = compute_fnf(row)
    labels = oracle.toeplitz_component_labels(n, offsets)
    checks = [("partition_matches_oracle", bool(np.array_equal(result.cis.rho, labels)),
               f"{labels.max()} components"),
              ("reconstruction_exact", *_reconstruction_exact(row, result, labels, offsets))]
    return VerifyReport(n=n, component_count=result.component_count, checks=checks)


# ---------------------------------------------------------------------------
# bench

def _sample_distinct(rng: np.random.Generator, lo: int, hi: int, k: int) -> np.ndarray:
    """``k`` distinct integers in ``[lo, hi]`` (all of them if fewer), sorted."""
    span = hi - lo + 1
    return np.sort(rng.choice(span, size=max(0, min(k, span)), replace=False)) + lo


def generate_offsets(n: int, k: int, policy: str, rng: np.random.Generator) -> np.ndarray:
    """Draw ``k`` distinct offsets for a size-``n`` bench instance.

    ``uniform`` samples anywhere in ``[1, n-1]``; ``clustered`` samples near
    the top of the range, which keeps the survivor filter and the
    isolated-band move busy.  ``two-class`` is offset 2 plus even offsets,
    so odd and even vertices form two components (``n >= 3``);
    ``singletons`` has no offsets, so every vertex is its own component.
    """
    if policy not in BENCH_POLICIES:
        raise InputError(f"unknown policy {policy!r}; expected one of {BENCH_POLICIES}")
    if n < 2 or policy == "singletons":
        return np.empty(0, dtype=np.int64)
    if policy == "uniform":
        return _sample_distinct(rng, 1, n - 1, k)
    if policy == "clustered":
        lo = max(1, (3 * n) // 4)
        return _sample_distinct(rng, lo, n - 1, k)
    if n < 3:  # two-class
        return np.empty(0, dtype=np.int64)
    halves = _sample_distinct(rng, 2, (n - 1) // 2, k - 1)
    return 2 * np.concatenate(([1], halves))


@dataclass
class BenchRow:
    n: int
    k: int
    median: float
    minimum: float
    maximum: float


@dataclass
class BenchReport:
    seed: int
    policy: str
    reps: int
    rows: list[BenchRow]
    slope: float | None

    def render(self) -> str:
        lines = [f"seed {self.seed} policy {self.policy} reps {self.reps}"]
        for r in self.rows:
            lines.append(
                f"n={r.n} k={r.k} median={r.median:.6f}s "
                f"min={r.minimum:.6f}s max={r.maximum:.6f}s"
            )
        if self.slope is not None:
            lines.append(f"loglog_slope {self.slope:.3f}")
        return "\n".join(lines) + "\n"


def run_bench(sizes: list[int], policy: str = "uniform", seed: int = 0,
              reps: int = 5) -> BenchReport:
    """Time the full pipeline per size and fit a log-log slope.

    One seeded instance is generated per size with ``ceil(log2 n)`` offsets;
    each is timed ``reps`` times and the median is used for the fit.
    """
    if not sizes:
        raise InputError("at least one size required")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise InputError("sizes must be strictly ascending")
    if sizes[0] < 1:
        raise InputError(f"sizes must be at least 1, got {sizes[0]}")
    if sizes[-1] > MAX_BENCH_SIZE:
        raise InputError(f"sizes must be at most {MAX_BENCH_SIZE}, got {sizes[-1]}")
    if reps < 1:
        raise InputError("reps must be at least 1")
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    rows = []
    for n in sizes:
        k = max(1, math.ceil(math.log2(n))) if n >= 2 else 0
        offsets = generate_offsets(n, k, policy, rng)
        row = row_from_offsets(n, offsets)
        compute_fnf(row)  # warm-up, excluded from timing
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            compute_fnf(row)
            times.append(time.perf_counter() - start)
        rows.append(BenchRow(n=n, k=int(offsets.size), median=float(np.median(times)),
                             minimum=min(times), maximum=max(times)))
    slope = None
    if len(rows) >= 2:
        logs_n = np.log([r.n for r in rows])
        logs_t = np.log([max(r.median, 1e-9) for r in rows])
        slope = float(np.polyfit(logs_n, logs_t, 1)[0])
    return BenchReport(seed=seed, policy=policy, reps=reps, rows=rows, slope=slope)


# ---------------------------------------------------------------------------
# command plumbing

def _cmd_compute(args: argparse.Namespace) -> int:
    row = load_row(args.input, tolerance=args.tolerance)
    result = compute_fnf(row)
    render = render_json if args.format == "json" else render_text
    render(result, args.trace, sys.stdout)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_row(load_row(args.input), budget=args.budget)
    print(f"n={report.n} components={report.component_count}")
    for name, ok, detail in report.checks:
        print(f"check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    print(f"result: {'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _cmd_bench(args: argparse.Namespace) -> int:
    sizes = []
    for tok in args.sizes.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            size = float(tok)
        except ValueError as exc:
            raise InputError(f"invalid size {tok!r}") from exc
        # is_integer() is False for inf and NaN, so int() cannot overflow;
        # run_bench refuses whole numbers out of range
        if not size.is_integer():
            raise InputError(f"size {tok!r} must be a whole number")
        sizes.append(int(size))
    report = run_bench(sizes, policy=args.policy, seed=args.seed, reps=args.reps)
    sys.stdout.write(report.render())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fnf",
        description="Frobenius normal form of symmetric Toeplitz matrices, "
                    "computed in linear time from the first row.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="decompose a first row")
    p_compute.add_argument("input", help="input file, or - for stdin")
    p_compute.add_argument("--trace", action="store_true",
                           help="include the reduction trace in the output")
    p_compute.add_argument("--format", choices=("json", "text"), default="json")
    p_compute.add_argument("--tolerance", type=float, default=0.0,
                           help="snap entries with |x| <= EPS to zero while parsing")
    p_compute.set_defaults(func=_cmd_compute)

    p_verify = sub.add_parser("verify", help="check a decomposition exactly")
    p_verify.add_argument("input", help="input file, or - for stdin")
    p_verify.add_argument("--budget", type=int, default=DEFAULT_VERIFY_BUDGET,
                          help="most work units to take on (default: %(default)s)")
    p_verify.set_defaults(func=_cmd_verify)

    p_bench = sub.add_parser("bench", help="time the pipeline over a list of sizes")
    p_bench.add_argument("--sizes", required=True,
                         help="comma-separated ascending sizes, e.g. 1e5,1e6,1e7")
    p_bench.add_argument("--policy", choices=BENCH_POLICIES, default="uniform")
    p_bench.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_bench.add_argument("--reps", type=int, default=5)
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - internal contract violations
        print(f"internal error: {exc}", file=sys.stderr)
        if os.environ.get("FNF_DEBUG") == "1":
            import traceback  # only on this path: it costs nothing when the switch is off
            traceback.print_exc()
        return EXIT_INTERNAL


def main() -> None:
    raise SystemExit(run())
