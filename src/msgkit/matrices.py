"""Dense exact linear algebra over a msgkit field.

Matrices are immutable (tuple-of-tuples of raw scalars plus the owning
field), so they hash and deduplicate structurally.  Elimination uses
first-nonzero pivoting: with exact arithmetic there is nothing numerical
to stabilize, and a fixed pivot rule keeps every result reproducible.
``Matrix(...)`` checks every scalar (``field.element``) and the shape at
the public boundary; internal code that built canonical scalars itself
passes ``_trusted=True`` to skip both, as ``Matrix.decode`` does after
``field.decode``, keeping only its shape check.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .fields import Field, _Record
from .polynomials import _linear_grid, pmat_det

__all__ = [
    "Matrix",
    "SingularMatrixError",
    "skew_normal_form",
    "canonical_alternating",
    "random_matrix",
    "random_invertible",
]


class SingularMatrixError(ValueError):
    """A square matrix that must be nonsingular is not: raised by `SymplecticForm`
    for a degenerate Gram matrix."""


class Matrix(_Record):
    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, nrows: int, ncols: int, rows, _trusted: bool = False):
        if _trusted:
            rows = tuple(map(tuple, rows))
        else:
            rows = tuple(tuple(field.element(x) for x in row) for row in rows)
            if len(rows) != nrows or any(len(r) != ncols for r in rows):
                raise ValueError(f"shape mismatch: expected {nrows}x{ncols}")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        z = field.zero
        return cls(field, nrows, ncols, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls(field, n, n, [[o if i == j else z for j in range(n)] for i in range(n)])

    # -- structure ----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def to_lists(self) -> list[list]:
        return [list(r) for r in self.rows]

    def transpose(self) -> "Matrix":
        cols = zip(*self.rows) if self.nrows else [()] * self.ncols
        return Matrix(self.field, self.ncols, self.nrows, cols, _trusted=True)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix({self.field}, {self.nrows}x{self.ncols}: {body})"

    def is_zero(self) -> bool:
        return all(not x for row in self.rows for x in row)

    # -- arithmetic ---------------------------------------------------------

    def add(self, other: "Matrix") -> "Matrix":
        self.field.require_same(other.field)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} + {other.shape}")
        F = self.field
        return Matrix(F, self.nrows, self.ncols,
                      [[F.add(a, b) for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.rows, other.rows)], _trusted=True)

    def neg(self) -> "Matrix":
        F = self.field
        return Matrix(F, self.nrows, self.ncols,
                      [[F.neg(x) for x in row] for row in self.rows], _trusted=True)

    def scale(self, c) -> "Matrix":
        F = self.field
        c = F.element(c)
        return Matrix(F, self.nrows, self.ncols,
                      [[F.mul(c, x) for x in row] for row in self.rows], _trusted=True)

    def mul(self, other: "Matrix") -> "Matrix":
        self.field.require_same(other.field)
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.shape} * {other.shape}")
        F = self.field
        if not other.nrows:  # the kernel reads the column count off B's first row
            return Matrix(F, self.nrows, other.ncols, [[F.zero] * other.ncols] * self.nrows,
                          _trusted=True)
        return Matrix(F, self.nrows, other.ncols, F.matmul(self.rows, other.rows), _trusted=True)

    # -- elimination --------------------------------------------------------

    def rref(self) -> tuple["Matrix", int, tuple[int, ...]]:
        """Reduced row echelon form, rank, and pivot columns: `Field.rref`'s
        nonzero rows, padded with zero rows to this shape."""
        F = self.field
        rows, pivots = F.rref(self.rows)
        rows += [[F.zero] * self.ncols] * (self.nrows - len(rows))
        return Matrix(F, self.nrows, self.ncols, rows, _trusted=True), len(pivots), pivots

    def rank(self) -> int:
        """Number of pivots, by `Field.rank`: over F_p, `PrimeField.rank`'s echelon insertion."""
        return self.field.rank(self.rows)

    def kernel_basis(self) -> "Matrix":
        """Rows form a basis of the right null space (empty matrix if trivial),
        read by `Field.kernel` off the RREF."""
        F, n = self.field, self.ncols
        vecs = F.kernel(*F.rref(self.rows), n)
        return Matrix(F, len(vecs), n, vecs, _trusted=True)

    # -- structure tests and invariants --------------------------------------

    def is_alternating(self) -> bool:
        """True iff the matrix is skew-symmetric with zero diagonal, tested on its lift."""
        if not self.is_square():
            raise ValueError("alternating test needs a square matrix")
        return _alternating(self.field.lift(self.rows)[2])

    def char_poly(self) -> list:
        """Coefficients of det(x*I - M), monic, c[i] = coefficient of x^i.

        The determinant of the linear grid -M + x*I, by fraction-free
        (Bareiss) elimination over F[x]; no root-finding, and no division
        by integers that could vanish in small characteristic.
        """
        if not self.is_square():
            raise ValueError("characteristic polynomial needs a square matrix")
        F = self.field
        det = pmat_det(F, _linear_grid(self.neg().rows, Matrix.identity(F, self.nrows).rows))
        if len(det) != self.nrows + 1 or det[-1] != F.one:
            raise ArithmeticError("characteristic polynomial is not monic of full degree")
        return det

    # -- JSON ----------------------------------------------------------------

    def encode(self) -> list:
        """Array of row arrays of scalar encodings."""
        enc = self.field.encode
        return [[enc(x) for x in row] for row in self.rows]

    @classmethod
    def decode(cls, field: Field, obj, ncols: int | None = None) -> "Matrix":
        if not isinstance(obj, list) or any(not isinstance(r, list) for r in obj):
            raise ValueError("matrix JSON must be an array of row arrays")
        rows = [[field.decode(x) for x in row] for row in obj]  # canonical already
        if ncols is None:
            if not rows:
                raise ValueError("cannot infer column count of an empty matrix")
            ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError(f"shape mismatch: expected {len(rows)}x{ncols}")
        return cls(field, len(rows), ncols, rows, _trusted=True)


# ---------------------------------------------------------------------------
# alternating normal form
# ---------------------------------------------------------------------------

def canonical_alternating(field: Field, n: int, rank: int) -> Matrix:
    """Block diagonal: rank/2 copies of [[0,1],[-1,0]], then zeros."""
    if rank % 2 or rank > n:
        raise ValueError("rank must be even and at most n")
    M = [[field.zero] * n for _ in range(n)]
    for b in range(rank // 2):
        M[2 * b][2 * b + 1] = field.one
        M[2 * b + 1][2 * b] = field.neg(field.one)
    return Matrix(field, n, n, M, _trusted=True)


def _skew_schur(p: int, G: list):
    """Fraction-free 2x2-pivot elimination of an alternating int matrix mod p (over
    Z if p = 0), in place on G: m rows whose entries past column m ride along
    (Bunch, Math. Comp. 38, 1982; Bareiss, Math. Comp. 22, 1968).  Each step takes
    the first nonzero g = G[a][b] in row-major order, yields (a, b, d, g), d the pivot
    before (1 at first), drops rows and columns a, b and sets G[i][j] to
    (g G[i][j] + G[i][a] G[b][j] - G[i][b] G[a][j]) / d, exact over Z as this is a
    Pfaffian of [[A, X], [-X^T, 0]] (X the ride-along) on the pivots and {i, j}, and
    by d^-1 mod p.  G is the field's Schur complement times g: the same zero pattern."""
    d = 1
    while True:
        m = len(G)
        hit = next(((a, b, x) for a, row in enumerate(G) for b, x in enumerate(row[:m]) if x), None)
        if hit is None:
            return
        a, b, g = hit
        yield a, b, d, g
        Gb, Ga = G.pop(b), G.pop(a)
        Ga, Gb = (row[:a] + row[a + 1:b] + row[b + 1:] for row in (Ga, Gb))
        f = pow(d, -1, p) if p else None
        for i, Gi in enumerate(G):
            s, t, rest = Gi[a], Gi[b], Gi[:a] + Gi[a + 1:b] + Gi[b + 1:]
            G[i] = ([(g * x + s * y - t * z) * f % p for x, y, z in zip(rest, Gb, Ga)] if p
                    else [(g * x + s * y - t * z) // d for x, y, z in zip(rest, Gb, Ga)])
        d = g


def _alternating(G: list) -> bool:
    """G == -G^T (so a zero diagonal) for a square int matrix: on a field's lift, M alternating,
    as over Q the lift is D M D with D > 0 and over F_p x below the diagonal is -((-x) mod p)."""
    return all(a == -b for row, col in zip(G, zip(*G)) for a, b in zip(row, col))


def _skew_rank(p: int, G: list) -> int:
    """Rank of an alternating int matrix G mod p (over Z if p = 0): two per pivot of
    `_skew_schur`, on G reduced mod p first, as its pivot search reads residues.  Over Z
    G itself is consumed."""
    if p:
        G = [[x % p for x in row] for row in G]
    return 2 * sum(1 for _ in _skew_schur(p, G))


def _pfaffian(G: list) -> int:
    """Pf of an alternating int matrix G, which it consumes: the last pivot of
    `_skew_schur` over Z, signed by (-1)^(a+b-1) at each step, or 0 if rows are
    left (a zero row stays).  On a field's lift D M D it is Pf(M) * prod(D)."""
    sign = pf = 1
    for a, b, _, pf in _skew_schur(0, G):
        sign = sign if (a + b) % 2 else -sign
    return 0 if G else sign * pf


def skew_normal_form(M: Matrix) -> tuple[Matrix, int]:
    """Congruence transform of an alternating matrix to canonical block form.

    Returns (P, r) with P invertible, P^T M P = canonical_alternating(n, r),
    and r = rank(M), which is automatically even: symplectic Gram-Schmidt as
    `_skew_schur` on the field's lift D M D, the pairings of the d_i e_i, each
    vector riding along in its row.  A pivot g at rows a, b after pivot d keeps
    v = G[a] / (d d_a) and w = G[b] d_a / g, which are u_a and u_b / <u_a, u_b>
    over the field; every other u_i moves onto their orthogonal complement, so
    no pairing is evaluated from M.  The G[i] / (g d_i) left form the radical.
    """
    if not M.is_square():
        raise ValueError("alternating test needs a square matrix")
    F, n = M.field, M.nrows
    p, D, G = F.lift(M.rows)
    if not _alternating(G):
        raise ValueError("matrix is not alternating (skew with zero diagonal)")
    G = [row + [di if j == i else 0 for j in range(n)] for i, (row, di) in enumerate(zip(G, D))]
    chosen, g = [], 1
    for a, b, d, g in _skew_schur(p, G):  # the vectors are the last n columns
        del D[b]  # D keeps the scales of the rows left in G
        da = D.pop(a)
        chosen += [F.quotients(G[a][-n:], 1, d * da), F.quotients(G[b][-n:], da, g)]
    radical = [F.quotients(row[-n:], 1, g * di) for row, di in zip(G, D)]
    P = Matrix(F, n, n, chosen + radical, _trusted=True).transpose()
    return P, len(chosen)


def _congruent(M: Matrix, P: Matrix, C: Matrix) -> bool:
    """P^T M P == C, recomputed from M and P on ints.  With M's lift A = D M D,
    P^T M P = Q^T A Q for Q = D^-1 P, whose column c is q_c / s_c with q_c an int
    vector; so the test is q_c^T A q_e == s_c s_e C[c][e] (mod p over F_p)."""
    p, D, A = M.field.lift(M.rows)
    Q = [[Fraction(x, d) for x, d in zip(col, D)] for col in zip(*P.rows)]
    S = [lcm(*(x.denominator for x in q)) for q in Q]
    Q = [[x.numerator * (s // x.denominator) for x in q] for q, s in zip(Q, S)]
    AQ = [[sum(a * y for a, y in zip(row, q)) for row in A] for q in Q]  # A q_e, by e
    for q, s, Cc in zip(Q, S, C.rows):
        for Aq, t, x in zip(AQ, S, Cc):
            g = sum(a * y for a, y in zip(q, Aq)) - s * t * x
            if g % p if p else g:
                return False
    return True


# ---------------------------------------------------------------------------
# random matrices
# ---------------------------------------------------------------------------

def random_matrix(field: Field, nrows: int, ncols: int, rng) -> Matrix:
    rows = [field.draw(rng, ncols) for _ in range(nrows)]
    return Matrix(field, nrows, ncols, rows, _trusted=True)


def random_invertible(field: Field, n: int, rng) -> Matrix:
    """Rejection sampling; over F_p a draw is singular with probability < 1/(p-1)."""
    while True:
        M = random_matrix(field, n, n, rng)
        if M.rank() == n:
            return M
