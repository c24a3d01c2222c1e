"""A fixed pure-Python job that measures how fast this machine runs Python right now.

    python3 perfbench/calibrate.py

It imports nothing from the repository, so no change to msgkit can move
its time.  The benchmark runs it in a fresh process next to every
workload run and divides by its wall time, which cancels spells when a
shared machine runs every process slower.
"""

from fractions import Fraction


def job(rounds: int = 2000) -> int:
    p = 10007
    rows = [[(i * 31 + j * 17) % p for j in range(24)] for i in range(24)]
    acc = 0
    for r in range(rounds):
        pivot = rows[r % 24]
        rows = [[(a - b * (r + 1)) % p for a, b in zip(row, pivot)] for row in rows]
        acc += sum(map(sum, rows)) % p
    q = Fraction(1)
    for i in range(1, 400):
        q = q * Fraction(i + 1, i + 2) + Fraction(1, i * i + 1)
    return acc + q.numerator % p


if __name__ == "__main__":
    job()
