"""Command-line front end: compute, verify, and bench.

``compute`` parses a first row, runs the pipeline, and prints the result as
JSON or text.  ``verify`` re-derives the partition with the brute-force
oracle and checks the emitted blocks reassemble the input exactly.
``bench`` times the pipeline over a list of sizes and reports the log-log
slope of the median runtimes.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 unexpected
internal failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .core import FirstRow, offsets_from_row, row_from_offsets
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

DEFAULT_VERIFY_BUDGET = 20000
#: Above this order the verify command switches from a dense matrix
#: comparison to structural per-block checks.
DENSE_CHECK_LIMIT = 2048

BENCH_POLICIES = ("uniform", "clustered")


class InputError(ValueError):
    """Raised for malformed or out-of-contract input documents."""


# ---------------------------------------------------------------------------
# input parsing

def parse_input(text: str) -> np.ndarray:
    """Parse an input document into the raw first-row values.

    Two formats are auto-detected: a JSON object ``{"first_row": [...]}``
    with an optional ``"n"`` that must match the row length, or plain text
    whose whitespace-separated decimals form the row.  Text tokens are read
    by the rules of ``float()``.
    """
    stripped = text.lstrip()
    if not stripped:
        raise InputError("empty input")
    if stripped[0] == "{":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
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
        if "n" in doc:
            if type(doc["n"]) is not int:
                raise InputError(f'declared order {doc["n"]!r} must be an integer')
            if doc["n"] != values.size:
                raise InputError(
                    f'declared order {doc["n"]} does not match row length {values.size}')
    else:
        try:
            values = np.array(text.split(), dtype=np.float64)
        except ValueError as exc:
            raise InputError(f"invalid numeric token: {exc}") from exc
    if not np.isfinite(values).all():
        raise InputError("first row entries must be finite")
    return values


def load_row(source: str, tolerance: float = 0.0) -> FirstRow:
    """Read an input document from a path (or ``-`` for stdin) into a row.

    Entries with absolute value at most ``tolerance`` are snapped to exact
    zero before the row is built.
    """
    if source == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {source}: {exc}") from exc
    if not tolerance >= 0:  # also rejects NaN
        raise InputError(f"tolerance must be nonnegative, got {tolerance}")
    values = parse_input(text)
    if tolerance > 0:
        values[np.abs(values) <= tolerance] = 0.0
    return FirstRow(values)


# ---------------------------------------------------------------------------
# output rendering

def _python_numbers(entries: np.ndarray) -> np.ndarray:
    """The row as an object array of Python numbers, integral values as ints.

    Integral floats print as plain integers (``2.0`` as ``2``, ``-0.0`` as
    ``0``, ``1e300`` in full); every other value keeps its float repr.
    """
    whole = np.trunc(entries) == entries
    small = whole & (np.abs(entries) < 2.0**63)
    nums = np.where(small, entries, 0.0).astype(np.int64).astype(object)
    fractional = ~whole
    nums[fractional] = entries[fractional].astype(object)
    for i in np.flatnonzero(whole & ~small).tolist():
        nums[i] = int(entries[i])
    return nums


def _slices(text: str, bounds: np.ndarray, sep: str):
    """Yield the joined ``[e0<sep>e1...]`` text cut into one slice per block.

    No formatted number holds a comma, so the ``i``-th comma ends entry
    ``i``.  Only the cuts at the block bounds are kept, and the memoryview
    makes each a Python int only when it is read.
    """
    start = 1
    if bounds.size > 2:
        commas = np.frombuffer(text.encode("ascii"), dtype=np.uint8) == ord(",")
        cuts = memoryview(np.flatnonzero(commas)[bounds[1:-1] - 1])
        del commas  # not held while the generator waits between blocks
        for cut in cuts:
            yield text[start:cut]
            start = cut + len(sep)
    yield text[start:-1]


def _pieces(result: FnfResult, sep: str):
    """Joined label and permutation texts, and per block its size, vertices and first row.

    The labels, the permutation and the block rows laid end to end are each
    formatted once by ``json.dumps``; a block's vertices and first row are
    slices of the permutation and block-row texts.
    """
    perm = result.permutation
    bounds = result.block_bounds
    sizes = np.diff(bounds)
    rows = _python_numbers(result.row.entries)[perm - np.repeat(perm[bounds[:-1]], sizes)]

    def join(values) -> str:
        return json.dumps(values.tolist(), separators=(sep, ":"))

    perm_text = join(perm)
    blocks = zip(sizes.tolist(), _slices(perm_text, bounds, sep),
                 _slices(join(rows), bounds, sep))
    return join(result.cis.rho), perm_text, blocks


def render_json(result: FnfResult, include_trace: bool = False) -> str:
    """The JSON document ``fnf compute`` prints, newline included."""
    cis, perm, blocks = _pieces(result, ", ")
    parts = [f'{{"n": {result.n}, "component_count": {result.component_count}, '
             f'"cis": {cis}, "blocks": [',
             ", ".join([f'{{"size": {size}, "first_row": [{row}], "vertices": [{verts}]}}'
                        for size, verts, row in blocks]),
             f'], "permutation": {perm}']
    if include_trace:
        steps = [{"kind": s.kind, "n_before": s.n_before, "n_after": s.n_after,
                  "d": s.d, "c": s.c} for s in result.trace.steps]
        parts.append(f', "trace": {json.dumps(steps, separators=(", ", ": "))}')
    parts.append("}\n")
    return "".join(parts)


def result_to_document(result: FnfResult, include_trace: bool = False) -> dict:
    return json.loads(render_json(result, include_trace))


def document_to_json(doc: dict) -> str:
    return json.dumps(doc, separators=(", ", ": ")) + "\n"


def render_text(result: FnfResult, include_trace: bool = False) -> str:
    cis, perm, blocks = _pieces(result, ",")
    lines = [f"n {result.n}", f"components {result.component_count}"]
    lines += [f"block {k} size={size} vertices={verts} first_row={row}"
              for k, (size, verts, row) in enumerate(blocks, start=1)]
    lines.append(f"permutation {perm[1:-1]}")
    lines.append(f"cis {cis[1:-1]}")
    if include_trace:
        for s in result.trace.steps:
            lines.append(f"trace {s.kind} n={s.n_before}->{s.n_after} d={s.d} c={s.c}")
    lines.append("")  # the final newline, without copying the joined text
    return "\n".join(lines)


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


def _toeplitz_consistent(row: FirstRow, block) -> bool:
    """Entry ``(i, j)`` of the induced submatrix must read ``block.first_row[|i-j|]``.

    Exact for blocks up to :data:`DENSE_CHECK_LIMIT` vertices; larger blocks
    are checked on an evenly spaced sample of that many vertices.
    """
    verts = block.vertices
    if verts.size > DENSE_CHECK_LIMIT:
        pick = np.unique(np.linspace(0, verts.size - 1, DENSE_CHECK_LIMIT).astype(np.int64))
    else:
        pick = np.arange(verts.size)
    sub = verts[pick] - verts[0]
    inner = pick[:, None] - pick[None, :]
    got = row.entries[np.abs(sub[:, None] - sub[None, :])]
    want = np.asarray(block.first_row)[np.abs(inner)]
    return bool(np.array_equal(got, want))


def verify_row(row: FirstRow, budget: int = DEFAULT_VERIFY_BUDGET) -> VerifyReport:
    """Cross-check the fast pipeline against the explicit-graph oracle."""
    if row.n > budget:
        raise InputError(
            f"order {row.n} exceeds the oracle budget {budget}; "
            f"re-run with --budget {row.n} to force the check"
        )
    result = compute_fnf(row)
    checks: list[tuple[str, bool, str]] = []

    offsets = offsets_from_row(row)
    oracle_parts = oracle.partition_from_labels(
        oracle.toeplitz_component_labels(row.n, offsets.offsets))
    fast_parts = oracle.partition_from_labels(result.cis.rho)
    checks.append(("partition_matches_oracle", fast_parts == oracle_parts,
                   f"{len(oracle_parts)} components"))

    connected = all(
        max(oracle.toeplitz_component_labels(b.size, b.offsets)) == 1
        for b in result.blocks
    )
    checks.append(("blocks_connected", connected, f"{len(result.blocks)} blocks"))

    if row.n <= DENSE_CHECK_LIMIT:
        dense = oracle.dense_matrix(row.entries)
        perm = result.permutation - 1
        permuted = dense[np.ix_(perm, perm)]
        direct = oracle.block_diagonal(b.first_row for b in result.blocks)
        checks.append(("reconstruction_exact", bool(np.array_equal(permuted, direct)),
                       "dense"))
    else:
        ok = all(_toeplitz_consistent(row, b) for b in result.blocks)
        sizes = np.diff(result.block_bounds)
        sampled = sizes[sizes > DENSE_CHECK_LIMIT]
        if sampled.size:
            checks.append(("reconstruction_sampled", ok,
                           f"{DENSE_CHECK_LIMIT * sampled.size} of {sampled.sum()} vertices "
                           f"in {sampled.size} of {sizes.size} blocks"))
        else:
            checks.append(("reconstruction_exact", ok, "structural"))

    return VerifyReport(n=row.n, component_count=result.component_count, checks=checks)


# ---------------------------------------------------------------------------
# bench

def _sample_distinct(rng: np.random.Generator, lo: int, hi: int, k: int) -> np.ndarray:
    """``k`` distinct integers in ``[lo, hi]``, sorted."""
    span = hi - lo + 1
    k = min(k, span)
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    if span <= 4 * k:
        return np.sort(rng.permutation(span)[:k]) + lo
    chosen: list[int] = []
    seen: set[int] = set()
    while len(chosen) < k:
        for x in rng.integers(lo, hi + 1, size=2 * (k - len(chosen))):
            x = int(x)
            if x not in seen:
                seen.add(x)
                chosen.append(x)
                if len(chosen) == k:
                    break
    return np.sort(np.array(chosen, dtype=np.int64))


def generate_offsets(n: int, k: int, policy: str, rng: np.random.Generator) -> np.ndarray:
    """Draw ``k`` distinct offsets for a size-``n`` bench instance.

    ``uniform`` samples anywhere in ``[1, n-1]``; ``clustered`` samples near
    the top of the range, which keeps the survivor filter and the
    isolated-band move busy.
    """
    if n < 2:
        return np.empty(0, dtype=np.int64)
    if policy == "uniform":
        return _sample_distinct(rng, 1, n - 1, k)
    if policy == "clustered":
        lo = max(1, (3 * n) // 4)
        return _sample_distinct(rng, lo, n - 1, k)
    raise InputError(f"unknown policy {policy!r}; expected one of {BENCH_POLICIES}")


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
    if reps < 1:
        raise InputError("reps must be at least 1")
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
    sys.stdout.write(render(result, args.trace))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    row = load_row(args.input)
    report = verify_row(row, budget=args.budget)
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
        # is_integer() is False for inf and NaN, so int() cannot overflow
        if not (size.is_integer() and size >= 1):
            raise InputError(f"size {tok!r} must be a whole number of at least 1")
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

    p_verify = sub.add_parser("verify", help="cross-check against the brute-force oracle")
    p_verify.add_argument("input", help="input file, or - for stdin")
    p_verify.add_argument("--budget", type=int, default=DEFAULT_VERIFY_BUDGET,
                          help=f"largest order the oracle will accept "
                               f"(default: {DEFAULT_VERIFY_BUDGET})")
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
        return EXIT_INTERNAL


def main() -> None:
    raise SystemExit(run())
