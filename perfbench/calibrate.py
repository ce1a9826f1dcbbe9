"""Fixed exact-integer kernel that measures the speed of the machine.

A shared host can change speed by up to 1.8x for minutes at a time (seen
on a 2-core container), and every latforge workload slows with it.  run.py
times this script in its own process before and after every workload run
and scales each run's time by CALIBRATION_REF_S over the mean of the two,
so that the reported numbers follow the program rather than the host.  It
imports nothing from latforge, so no change to the program can move it: it
is fraction-free Gaussian elimination on fixed pseudo-random 26 x 26
matrices of 64-bit integers, the same kind of big-integer work as the LLL
kernel and ``gram_det``.
"""

from __future__ import annotations

REPEATS = 12
SIZE = 26


def bareiss_last_pivot(a: list[list[int]]) -> int:
    prev = 1
    n = len(a)
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[n - 1][n - 1]


def main() -> int:
    state = 12345
    result = 0
    for _ in range(REPEATS):
        rows = []
        for _ in range(SIZE):
            row = []
            for _ in range(SIZE):
                state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
                row.append(state - 2**63)
            rows.append(row)
        result ^= bareiss_last_pivot(rows)
    return result


if __name__ == "__main__":
    main()
