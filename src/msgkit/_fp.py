"""F_p kernels on lists of plain-int rows of residues in [0, p), trusted as
given: `PrimeField` overrides `Field`'s generic row kernels with them."""

from __future__ import annotations

import struct
from operator import mul as _times

_WORDS = {1: "B", 2: "H", 4: "I", 8: "Q"}  # slot bytes: the struct format that cuts them


def draw(rng, p: int, count: int) -> list[int]:
    """`count` values of `rng.randrange(p)`: its own getrandbits loop, without its frames."""
    bits, getrandbits, out = p.bit_length(), rng.getrandbits, []
    for _ in range(count):
        r = getrandbits(bits)
        while r >= p:
            r = getrandbits(bits)
        out.append(r)
    return out


def mul(p: int, A, B) -> list[list[int]]:
    """A B, one dot product per entry, reduced once; B has at least one row."""
    cols = list(zip(*B))
    return [[sum(map(_times, row, col)) % p for col in cols] for row in A]


def multiplier(p: int, B):
    """A -> A B for a fixed B with at least one row, by Kronecker substitution: each row
    of B is packed once into an int, a slot per column that holds len(B) (p - 1)^2, the
    largest dot product, so a row of A B is one int dot product cut into slots mod p."""
    size = -(-(len(B) * (p - 1) ** 2).bit_length() // 8)
    size = min((w for w in _WORDS if w >= size), default=size)  # a machine word if one holds it
    length = size * len(B[0])
    if size in _WORDS:
        words = struct.Struct(f"<{len(B[0])}{_WORDS[size]}")
        pack, cut = lambda row: words.pack(*row), words.unpack
    else:  # wider than any machine word: cut by byte slices
        pack = lambda row: b"".join(x.to_bytes(size, "little") for x in row)
        cut = lambda b: [int.from_bytes(b[i:i + size], "little") for i in range(0, length, size)]
    packed = [int.from_bytes(pack(row), "little") for row in B]
    return lambda A: [[y % p for y in cut(sum(map(_times, a, packed)).to_bytes(length, "little"))]
                      for a in A]


def rref(p: int, rows) -> tuple[list[list[int]], tuple[int, ...]]:
    """The nonzero RREF rows and their pivots.  Each row is reduced by the kept RREF of
    the rows before it, scaled and cleared from it, until every column has a pivot.
    An RREF depends only on the row space, so this is the one `Field.rref` gives."""
    kept = {}  # pivot column: its row
    for v in rows:
        if len(kept) == len(v):
            break
        for c, row in kept.items():
            f = v[c]
            if f:
                v = [(x - f * y) % p for x, y in zip(v, row)]
        for c, x in enumerate(v):
            if x:
                break
        else:
            continue
        if x != 1:
            f = pow(x, p - 2, p)
            v = [f * y % p for y in v]
        for pc, row in kept.items():
            f = row[c]
            if f:
                kept[pc] = [(x - f * y) % p for x, y in zip(row, v)]
        kept[c] = list(v)
    pivots = sorted(kept)
    return [kept[c] for c in pivots], tuple(pivots)


def rank(p: int, rows) -> int:
    """Rank by forward elimination alone: a pivot clears its column in the other
    rows, every row then drops that leading column, and zero rows drop out."""
    rows, count = [r for r in rows if any(r)], 0
    while rows:
        for i, pivot in enumerate(rows):
            if pivot[0]:
                break
        else:  # a zero leading column holds no pivot
            rows = [r[1:] for r in rows]
            continue
        del rows[i]
        inv = pow(pivot[0], p - 2, p)
        tail = pivot[1:]
        rest = []
        for r in rows:
            f = r[0]
            if f:
                f = f * inv % p
                r = [(x - f * y) % p for x, y in zip(r[1:], tail)]
            else:
                r = r[1:]
            if any(r):
                rest.append(r)
        rows = rest
        count += 1
    return count
