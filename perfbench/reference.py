"""Fixed reference work, run as a fresh process next to every CLI invocation.

The benchmark divides each invocation's wall time by the mean wall time of
this script run just before and just after it. On a shared machine speed
can drift by tens of percent from minute to minute, and the ratio cancels
most of that drift. The work mixes what the workloads do: interpreter start-up and the
numpy import, Python loops over dicts and strings, small numpy row updates
and word-wise XOR over a large uint64 array. Editing this file changes every
ratio, so it must stay as it is.
"""

import numpy as np


def main() -> int:
    rows = np.zeros((64, 4), dtype=np.uint64)
    table: dict[str, int] = {}
    acc = 0
    for i in range(12000):
        rows[i % 64, i % 4] ^= np.uint64(i)
        table[f"k{i % 500}"] = i
        acc += i * i % 7
    words = np.arange(1 << 18, dtype=np.uint64)
    for _ in range(30):
        words ^= words >> np.uint64(1)
    return (acc + int(words[-1]) + len(table)) & 1


if __name__ == "__main__":
    main()
