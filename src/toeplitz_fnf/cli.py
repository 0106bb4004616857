"""Command-line front end: compute, verify, and bench.

``compute`` parses a first row, runs the pipeline, and prints the result as
JSON or text.  ``verify`` judges that result exactly, at every order, by
two vectorised checks that share no code with the pipeline.
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
        where[perm] = np.arange(n)
    bounds = result.block_bounds
    sizes = np.diff(bounds)
    if ((where < 0).any() or bounds[0] != 0 or (sizes < 1).any() or not np.array_equal(
            labels[perm], np.repeat(np.arange(1, sizes.size + 1), sizes))):
        return False, "the permutation does not list the components block by block"
    home = np.repeat(bounds[:-1].astype(perm.dtype), sizes)  # block start per position
    rows = result.row.entries[perm - perm[home]]
    start = home[where]  # block start per vertex
    for s in [0, *offsets.tolist()]:
        at = start[s:] + np.abs(where[s:] - where[:n - s])  # b at the pair's position gap
        if not (rows[at] == row.entries[s]).all():
            return False, f"a pair at offset {s} is no entry a_{s} of a block"
    inner = np.arange(n) - home
    held = int((np.repeat(sizes, sizes) - inner)[(inner > 0) & (rows != 0)].sum())
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
    labels = oracle.hook_and_jump_labels(n, offsets)
    checks = [("partition_matches_oracle", bool(np.array_equal(result.cis.rho, labels)),
               f"{labels.max()} components"),
              ("reconstruction_exact", *_reconstruction_exact(row, result, labels, offsets))]
    return VerifyReport(n=n, component_count=result.component_count, checks=checks)


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
    isolated-band move busy.  ``two-class`` is offset 2 plus even offsets,
    so odd and even vertices form two components (``n >= 3``);
    ``singletons`` has no offsets, so every vertex is its own component.
    """
    if n < 2 or policy == "singletons":
        return np.empty(0, dtype=np.int64)
    if policy == "uniform":
        return _sample_distinct(rng, 1, n - 1, k)
    if policy == "clustered":
        lo = max(1, (3 * n) // 4)
        return _sample_distinct(rng, lo, n - 1, k)
    if policy == "two-class":
        if n < 3:
            return np.empty(0, dtype=np.int64)
        halves = _sample_distinct(rng, 2, (n - 1) // 2, k - 1)
        return 2 * np.concatenate(([1], halves))
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
    if sizes[-1] > MAX_BENCH_SIZE:
        raise InputError(f"sizes must be at most {MAX_BENCH_SIZE}, got {sizes[-1]}")
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
        # is_integer() is False for inf and NaN, so int() cannot overflow
        if not (size.is_integer() and 1 <= size <= MAX_BENCH_SIZE):
            raise InputError(f"size {tok!r} must be a whole number from 1 to "
                             f"{MAX_BENCH_SIZE}")
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
        return EXIT_INTERNAL


def main() -> None:
    raise SystemExit(run())
