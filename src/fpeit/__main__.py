"""``python -m fpeit``: the console script, with ``--threads`` applied before numpy loads."""

import sys

from ._entry import main

if __name__ == "__main__":
    sys.exit(main())
