"""Integer primality test.

Used for validating prime moduli and for choosing the prime from which
rational roots are lifted.  Miller-Rabin with the first twelve prime bases
is deterministic below 3.3e24, which covers every integer this package
ever feeds it in practice; larger inputs get a probabilistic answer with
error below 2^-72.
"""

from __future__ import annotations

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
