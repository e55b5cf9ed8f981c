"""Console-script shim: applies --threads before numpy is imported.

BLAS thread caps only take effect through environment variables read at
library load time, so the flag has to be handled before ``fpeit.cli`` (and
through it numpy) is imported.
"""

from __future__ import annotations

import os
import sys

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _peek_threads(argv):
    for i, arg in enumerate(argv):
        if arg == "--threads" and i + 1 < len(argv):
            nxt = argv[i + 1]
            try:
                return int(nxt)
            except ValueError:
                return None
        if arg.startswith("--threads="):
            try:
                return int(arg.split("=", 1)[1])
            except ValueError:
                return None
    return None


def _apply_threads(k: int) -> None:
    """Cap every thread variable at K, overriding values inherited from the shell."""
    for var in _THREAD_VARS:
        os.environ[var] = str(k)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    k = _peek_threads(argv)
    if k is not None and k > 0:
        _apply_threads(k)
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
