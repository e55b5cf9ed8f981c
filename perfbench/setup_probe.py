"""Time the set-up of one workload batch in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds taken to import ``fpeit.cli`` and build the config,
field and boundary data of every operation in the batch.
"""

import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402  (standard library only)


def main(workload: str, seed: int) -> None:
    ops = workloads.batch(workload, random.Random(seed))
    t0 = time.perf_counter()
    import fpeit.cli  # noqa: F401

    workloads.prepare(ops)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
