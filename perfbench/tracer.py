"""Spans recorded around calls into the package, from outside it.

The package looks its collaborators up in module globals at call time
(``fnf.compute_fnf`` calls ``reduce`` from the ``fnf`` namespace, ``cli``
calls ``parse_input`` from its own), so replacing those names with timing
wrappers traces every layer boundary without editing the package.  Spans
stay in memory; :meth:`Tracer.summary` turns one operation's spans into
per-name self and inclusive times.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

# (module attribute looked up by the caller, span name)
FNF_WRAPS = (
    ("offsets_from_row", "core.offsets"),
    ("reduce", "reduction.reduce"),
    ("recover_cis", "recovery.recover"),
)
CLI_WRAPS = (
    ("load_row", "cli.load"),
    ("parse_input", "cli.parse"),
    ("FirstRow", "core.first_row"),
    ("compute_fnf", "fnf.compute"),
    ("result_to_document", "cli.document"),
    ("document_to_json", "cli.json"),
    ("render_text", "cli.text"),
)


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index]
        self.spans: list[list] = []
        self.exceptions: Counter = Counter()
        # last value returned per span name, read for the layer counts
        self.last: dict = {}
        self._open: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.exceptions[name.split(".")[0]] += 1
                raise
            finally:
                rec[2] = perf_counter()
                self._open.pop()
            self.last[name] = out
            return out
        return traced

    def patch(self, owner, wraps) -> None:
        for attr, name in wraps:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Self and inclusive seconds per span name; clears the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            total, own = out.get(name, (0.0, 0.0))
            out[name] = (total + end - start, own + end - start - inner)
        self.spans.clear()
        return out


def layer_counts(tracer: Tracer) -> dict:
    """Work counts read off the values the wrapped calls returned."""
    counts = {}
    offsets = tracer.last.get("core.offsets")
    if offsets is not None:
        counts["core.offsets_k"] = len(offsets)
    reduced = tracer.last.get("reduction.reduce")
    if reduced is not None:
        steps = reduced[0].steps
        counts["reduction.steps"] = len(steps)
        counts["reduction.alpha_steps"] = sum(s.kind == "alpha" for s in steps)
        counts["reduction.beta_steps"] = sum(s.kind == "beta" for s in steps)
    cis = tracer.last.get("recovery.recover")
    if cis is not None and reduced is not None:
        trace = reduced[0]
        replayed = sum(s.n_before for s in trace.steps)
        counts["recovery.replayed_vertices"] = replayed
        # every replay step writes a full label vector, after the terminal arange
        counts["recovery.bytes_computed"] = (replayed + trace.n_final) * cis.rho.itemsize
    result = tracer.last.get("fnf.compute")
    if result is not None:
        sizes = [b.size for b in result.blocks]
        counts["fnf.blocks"] = len(sizes)
        counts["fnf.singletons"] = sizes.count(1)
        counts["fnf.largest_block"] = max(sizes)
    tracer.last.clear()
    return counts
