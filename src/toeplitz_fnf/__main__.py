"""``python -m toeplitz_fnf`` and the ``fnf`` console script: :func:`cli.run`, which
returns with stdout flushed, then an exit by ``os._exit`` that skips the interpreter's
teardown (tens of ms with numpy loaded), as mypy's console entry does."""

import os
import sys

from .cli import run


def main() -> None:
    code = run()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
