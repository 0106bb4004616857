"""Run the ``fnf`` command line with every layer boundary traced.

Usage: ``python cli_child.py RECORD ARGS...``, where ``ARGS`` are the
arguments of ``python -m toeplitz_fnf``.  The command runs unchanged apart
from the timing wrappers; afterwards the span times, layer counts and the
time to import ``toeplitz_fnf.cli`` are written to ``RECORD`` as JSON, and
the process exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from tracer import CLI_WRAPS, FNF_WRAPS, Tracer, layer_counts


class _TimedStdout:
    def __init__(self, tracer: Tracer, stream) -> None:
        self.write = tracer.wrap("cli.write", stream.write)
        self.flush = tracer.wrap("cli.write", stream.flush)


class _SysWithTimedStdout:
    """Stands in for the ``sys`` module the cli module writes its output through."""

    def __init__(self, stdout) -> None:
        self.stdout = stdout

    def __getattr__(self, name):
        return getattr(sys, name)


def main() -> int:
    record, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import toeplitz_fnf.cli as cli
    import toeplitz_fnf.fnf as fnf
    startup = perf_counter() - start

    tracer = Tracer()
    tracer.patch(cli, CLI_WRAPS)
    tracer.patch(fnf, FNF_WRAPS)
    stdout = _TimedStdout(tracer, sys.stdout)
    cli.sys = _SysWithTimedStdout(stdout)
    code = cli.run(argv)
    stdout.flush()

    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"startup_s": startup, "spans": tracer.summary(),
                   "counts": layer_counts(tracer),
                   "exceptions": dict(tracer.exceptions)}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
