"""Exact ground fields: odd prime fields F_p and the rationals.

Scalars are plain Python values -- int residues in [0, p) for F_p,
``fractions.Fraction`` for Q -- and a ``Field`` object owns
canonicalization, arithmetic, JSON encoding and the row kernels.
Keeping scalars unboxed makes the dense linear algebra cheap;
the cost is that the field object must travel alongside the values,
which every container in this package does.

Characteristic 2 is excluded on purpose: the symplectic facts the rest
of the package relies on (alternating == skew with zero diagonal, even
rank) degenerate there.

Below the fields sit `_Record`, the base of every value type, and `is_prime`.
"""

from __future__ import annotations

import re
import struct
import sys
from fractions import Fraction
from math import lcm
from operator import mul as _times

MAX_PRIME = 2**31
_RATIONAL_STRING = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_SHOWN = 40  # characters of a rejected input that an error message repeats
_WORDS = {1: "B", 2: "H", 4: "I", 8: "Q"}  # slot bytes: the struct format that cuts them


def _shown(x) -> str:
    """repr of a rejected input for an error message; a long one is cut to a
    prefix and its length, so that no input file can flood stderr."""
    if isinstance(x, str) and len(x) > _SHOWN:
        return f"{x[:_SHOWN]!r}... ({len(x)} characters)"
    text = repr(x)
    return text if len(text) <= _SHOWN else f"{text[:_SHOWN]}... ({len(text)} characters)"


def _digit_limit_error(what: str, text: str) -> ValueError:
    """The interpreter's refusal to convert a long digit string, restated to
    name the string (cut short) and the limit."""
    return ValueError(f"{what} {_shown(text)} exceeds the limit of"
                      f" {sys.get_int_max_str_digits()} digits per integer")


class FieldMismatchError(ValueError):
    """Raised when operands belong to different fields."""


class _Record:
    """Equality ("same class, equal fields"), hash and repr over the fields named in
    `__slots__`, written once for every value type: fields, matrices, forms, subspaces,
    binary forms and result records.  A class whose repr is printed output defines its
    own `__repr__`.  `dataclasses` would cost every CLI start its import.  A record
    holding a list is unhashable, as its fields are."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({body})"


class Field(_Record):
    """Common interface; see PrimeField and RationalField.

    The row kernels (draw, matmul, multiplier, extend, rref, rank, kernel) take and return
    lists of canonical scalars.  Their bodies here are generic elimination through the
    field calls; PrimeField overrides all but `rref` and `kernel` with plain-int F_p bodies,
    so this module is the one place that picks F_p or generic code.  `lift` and `quotients`
    take alternating rows to ints for `matrices._skew_schur` and back.
    """

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def require_same(self, other: "Field") -> None:
        if other is not self and self != other:
            raise FieldMismatchError(f"mixed fields: {self} vs {other}")

    # subclasses provide: element, zero, one, add, sub, mul, neg, inv, random,
    # lift, quotients, encode, decode, spec

    def draw(self, rng, count: int) -> list:
        return [self.random(rng) for _ in range(count)]

    def matmul(self, A, B) -> list[list]:
        """A B; B has at least one row, which gives the column count."""
        add, mul, zero = self.add, self.mul, self.zero
        out = []
        for arow in A:
            acc = [zero] * len(B[0])
            for a, brow in zip(arow, B):
                if a:
                    acc = [add(x, mul(a, y)) for x, y in zip(acc, brow)]
            out.append(acc)
        return out

    def multiplier(self, B):
        """A -> A B for a fixed B with at least one row; PrimeField packs B once."""
        return lambda A: self.matmul(A, B)

    def extend(self, kept: dict, v) -> int | None:
        """Grow the live RREF `kept` (pivot column -> row) by the row v: v is reduced by the
        kept rows, and a remainder is scaled to a leading 1, cleared from the kept rows and
        kept.  Returns its pivot column, or None, with `kept` unchanged, if v is in the span."""
        sub, mul = self.sub, self.mul
        for c, row in kept.items():
            f = v[c]
            if f:
                v = [sub(x, mul(f, y)) for x, y in zip(v, row)]
        for c, x in enumerate(v):
            if x:
                break
        else:
            return None
        if x != self.one:
            f = self.inv(x)
            v = [mul(f, y) for y in v]
        for pc, row in kept.items():
            f = row[c]
            if f:
                kept[pc] = [sub(x, mul(f, y)) for x, y in zip(row, v)]
        kept[c] = list(v)
        return c

    def rref(self, rows) -> tuple[list[list], tuple[int, ...]]:
        """The nonzero rows of the reduced row echelon form and their pivot columns: each
        row extends the kept RREF of the rows before it, until every column has a pivot.
        An RREF depends only on the row space, so the order of the rows does not matter."""
        kept = {}
        for v in rows:
            if len(kept) == len(v):
                break
            self.extend(kept, v)
        pivots = sorted(kept)
        return [kept[c] for c in pivots], tuple(pivots)

    def rank(self, rows) -> int:
        return len(self.rref(rows)[1])

    def kernel(self, rows, pivots, n: int) -> list[list]:
        """The null space basis read off RREF `rows` with `pivots`: per free
        column, a 1 there and minus that column of the rows at the pivots, so
        the vectors are independent by construction."""
        out = []
        for fc in sorted(set(range(n)).difference(pivots)):
            v = [self.zero] * n
            v[fc] = self.one
            for row, pc in zip(rows, pivots):
                v[pc] = self.neg(row[fc])
            out.append(v)
        return out


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: deterministic below 3.3e24,
    which covers every modulus and lifting prime this package picks; a larger n
    gets a probabilistic answer with error below 2^-72."""
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


class PrimeField(Field):
    """F_p for an odd prime p, 3 <= p < 2**31.  Scalars are ints in [0, p)."""

    __slots__ = ("p",)

    zero = 0
    one = 1

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 3 or p % 2 == 0 or p >= MAX_PRIME:
            raise ValueError(f"modulus must be an odd prime in [3, 2^31): {p}")
        if not is_prime(p):
            raise ValueError(f"modulus is not prime: {p}")
        self.p = p

    def element(self, x) -> int:
        if isinstance(x, bool) or not isinstance(x, int):
            raise TypeError(f"F_{self.p} scalar must be an int, got {_shown(x)}")
        return x % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def random(self, rng) -> int:
        return rng.randrange(self.p)

    def draw(self, rng, count: int) -> list[int]:
        """`count` values of `rng.randrange(p)`: its own getrandbits loop, without its frames."""
        p = self.p
        bits, getrandbits, out = p.bit_length(), rng.getrandbits, []
        for _ in range(count):
            r = getrandbits(bits)
            while r >= p:
                r = getrandbits(bits)
            out.append(r)
        return out

    def matmul(self, A, B) -> list[list[int]]:
        """A B, one dot product per entry, reduced once; B has at least one row."""
        p, cols = self.p, list(zip(*B))
        return [[sum(map(_times, row, col)) % p for col in cols] for row in A]

    def multiplier(self, B):
        """A -> A B for a fixed B with at least one row, by Kronecker substitution: each row
        of B is packed once into an int, a slot per column that holds len(B) (p - 1)^2, the
        largest dot product, so a row of A B is one int dot product cut into slots mod p."""
        p = self.p
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

    def extend(self, kept: dict, v) -> int | None:
        """`Field.extend` on plain ints mod p."""
        p = self.p
        for c, row in kept.items():
            f = v[c]
            if f:
                v = [(x - f * y) % p for x, y in zip(v, row)]
        for c, x in enumerate(v):
            if x:
                break
        else:
            return None
        if x != 1:
            f = pow(x, p - 2, p)
            v = [f * y % p for y in v]
        for pc, row in kept.items():
            f = row[c]
            if f:
                kept[pc] = [(x - f * y) % p for x, y in zip(row, v)]
        kept[c] = list(v)
        return c

    def rank(self, rows) -> int:
        """The reduction half of `extend`, by echelon insertion: each row is reduced by the
        rows kept so far at their pivot columns, and a nonzero remainder is kept unscaled,
        with the inverse of its leading entry.  The rank is the number of rows kept."""
        p, kept = self.p, []
        for v in rows:
            for c, inv, row in kept:
                f = v[c]
                if f:
                    f = f * inv % p
                    v = [(x - f * y) % p for x, y in zip(v, row)]
            for c, x in enumerate(v):
                if x:
                    kept.append((c, pow(x, p - 2, p), v))
                    break
        return len(kept)

    def lift(self, *matrices) -> tuple:
        """p, scales 1, and each matrix's upper triangle as residues, negated below."""
        p, n = self.p, len(matrices[0])
        return (p, [1] * n, *([[x % p if i < j else -(-x % p) for j, x in enumerate(r)]
                              for i, r in enumerate(M)] for M in matrices))

    def quotients(self, xs, num: int, den: int) -> list[int]:
        f = num * pow(den, -1, self.p) % self.p
        return [x * f % self.p for x in xs]

    def elements(self):
        return range(self.p)

    def encode(self, a: int) -> int:
        return a

    def decode(self, obj) -> int:
        if isinstance(obj, bool) or not isinstance(obj, int):
            raise ValueError(f"F_{self.p} scalar must decode from an int: {_shown(obj)}")
        return obj % self.p

    def spec(self) -> dict:
        return {"kind": "prime", "p": self.p}

    def __repr__(self) -> str:
        return f"F_{self.p}"


class RationalField(Field):
    """The rationals with arbitrary-precision numerators and denominators."""

    __slots__ = ()

    zero = Fraction(0)
    one = Fraction(1)

    def element(self, x) -> Fraction:
        if isinstance(x, bool):
            raise TypeError("rational scalar cannot be a bool")
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        if isinstance(x, str):
            # only what encode writes; Fraction alone would also take "2.5" and
            # "1e100000000", whose integer part has 10^8 digits
            m = _RATIONAL_STRING.fullmatch(x)
            if m is None:
                raise ValueError(
                    f"rational scalar string must be an integer or 'a/b': {_shown(x)}")
            try:
                return Fraction(int(m[1]), int(m[2] or 1))
            except ZeroDivisionError:
                raise ValueError(f"rational scalar has zero denominator: {_shown(x)}") from None
            except ValueError:  # the grammar passed, so only the digit limit is left
                raise _digit_limit_error("rational scalar", x) from None
        raise TypeError(f"rational scalar must be int, Fraction, or 'a/b': {_shown(x)}")

    def add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def sub(self, a: Fraction, b: Fraction) -> Fraction:
        return a - b

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def neg(self, a: Fraction) -> Fraction:
        return -a

    def inv(self, a: Fraction) -> Fraction:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return 1 / a

    def lift(self, *matrices) -> tuple:
        """0 (over Z), scales d_i = lcm of the denominators in row i of every matrix, D M D."""
        D = [lcm(*(x.denominator for M in matrices for x in M[i])) for i in range(len(matrices[0]))]
        return (0, D, *([[x.numerator * (di // x.denominator) * dj for x, dj in zip(row, D)]
                         for row, di in zip(M, D)] for M in matrices))

    def quotients(self, xs, num: int, den: int) -> list[Fraction]:
        return [Fraction(x * num, den) for x in xs]

    def random(self, rng) -> Fraction:
        # small numerators/denominators keep downstream coefficient growth sane
        return Fraction(rng.randint(-9, 9), rng.randint(1, 3))

    def encode(self, a: Fraction):
        if a.denominator == 1:
            return int(a)
        return f"{a.numerator}/{a.denominator}"

    def decode(self, obj) -> Fraction:
        if isinstance(obj, bool):
            raise ValueError("rational scalar cannot decode from bool")
        if isinstance(obj, (int, str)):
            return self.element(obj)
        raise ValueError(f"rational scalar must be int or 'a/b' string: {_shown(obj)}")

    def spec(self) -> dict:
        return {"kind": "rational"}

    def __repr__(self) -> str:
        return "Q"


QQ = RationalField()


def field_from_spec(spec: dict) -> Field:
    """Inverse of Field.spec(); accepts {'kind': 'prime', 'p': p} or {'kind': 'rational'}."""
    if not isinstance(spec, dict):
        raise ValueError(f"field spec must be an object: {_shown(spec)}")
    kind = str(spec.get("kind", "")).lower()
    if kind == "prime":
        if "p" not in spec:
            raise ValueError("prime field spec needs 'p'")
        return PrimeField(spec["p"])
    if kind == "rational":
        return QQ
    raise ValueError(f"unknown field kind: {_shown(spec.get('kind'))}")
