"""Console-script shim: applies --threads before numpy is imported.

BLAS thread caps only take effect through environment variables read at
library load time, so the flag has to be handled before ``fpeit.cli`` (and
through it numpy) is imported. The package ``__init__`` loads its names
lazily for the same reason. ``python -m fpeit`` runs this shim too.
"""

from __future__ import annotations

import argparse
import os
import sys

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _peek_threads(argv):
    """The integer ``--threads`` of argv, abbreviations included, as ``fpeit.cli`` parses it.

    None when the flag is absent or its value is not an integer; ``fpeit.cli``
    parses argv again and reports a bad value.
    """
    parser = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    parser.add_argument("--threads", type=int)
    try:
        return parser.parse_known_args(argv)[0].threads
    except argparse.ArgumentError:
        return None


def _apply_threads(k: int) -> None:
    """Cap every thread variable at min(K, usable cores), overriding the shell's values."""
    k = min(k, len(os.sched_getaffinity(0)))
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
