import os
from itertools import product

import pytest

from msgkit import (
    FormSpace,
    Matrix,
    PointContext,
    QQ,
    Subspace,
    SymplecticForm,
    random_matrix,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def golden_compare(name: str, text: str) -> None:
    """Byte-compare against a committed golden file.

    A missing golden fails; set MSGKIT_REGEN_GOLDEN=1 to (re)write it.
    """
    path = os.path.join(GOLDEN_DIR, name)
    if os.environ.get("MSGKIT_REGEN_GOLDEN") == "1":
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    if not os.path.exists(path):
        pytest.fail(f"missing golden {name}; set MSGKIT_REGEN_GOLDEN=1 to record it")
    with open(path, "r", encoding="utf-8") as fh:
        assert fh.read() == text, f"golden mismatch: {name}"


def random_alternating(field, n, rng):
    rows = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = field.random(rng)
            rows[i][j] = v
            rows[j][i] = field.neg(v)
    return Matrix(field, n, n, rows)


def random_alternating_nonsingular(field, n, rng):
    while True:
        M = random_alternating(field, n, rng)
        if M.rank() == n:
            return M


def random_complement(V, rng):
    """A random complement of V; rejection-sampled until the stacked basis is invertible."""
    while True:
        C = random_matrix(V.field, V.n - V.k, V.n, rng)
        if V.basis.stack(C).rank() == V.n:
            return C


def degenerate_instance():
    """The recorded n=4, k=2, m=2 instance over Q.

    Both restriction matrices are the identity, so the two tangent
    constraints coincide and the whole pencil contracts onto u + v.
    """
    w1 = Matrix(QQ, 4, 4, [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
    w2 = Matrix(QQ, 4, 4, [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 1], [0, -1, -1, 0]])
    fs = FormSpace([SymplecticForm(w1), SymplecticForm(w2)])
    V = Subspace(Matrix(QQ, 2, 4, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    return fs, V


def chart_differential_rank(V, fs):
    """An independent tangent oracle: the rank of the differential at V of
    X -> (B(X) G_t B(X)^T)_{i<j}, one upper triangle per form, in the affine
    chart where B(X) is V's RREF basis with X added at its non-pivot columns.

    The column for the unit direction E at row i and non-pivot column c is
    the upper triangle of E G_t B^T + B G_t E^T, written out entrywise: its
    (a, b) entry is [a = i] (G_t B^T)[c][b] + [b = i] (B G_t)[a][c].  The
    tangent space is the kernel of this map, so its rank is the constraint
    rank; nothing here reads msgkit's constraint rows or restrictions.
    """
    F, n, k, B = V.field, V.n, V.k, V.basis.rows
    grams = [G.rows for G in fs.grams()]

    def dot(u, w):
        acc = F.zero
        for x, y in zip(u, w):
            acc = F.add(acc, F.mul(x, y))
        return acc

    columns = []
    for i in range(k):
        for c in (c for c in range(n) if c not in V.pivots):
            column = []
            for G in grams:
                Gcol = [G[l][c] for l in range(n)]
                for a in range(k):
                    for b in range(a + 1, k):
                        x = dot(G[c], B[b]) if a == i else F.zero
                        y = dot(B[a], Gcol) if b == i else F.zero
                        column.append(F.add(x, y))
            columns.append(column)
    rows = len(grams) * (k * (k - 1) // 2)
    if not columns or not rows:
        return 0
    return Matrix(F, len(columns), rows, columns).rank()


def isotropic_plane_count(fs):
    """The number of 2-planes isotropic for every form of `fs` over F_q, q odd, in
    closed form from the q^m ranks of the combinations G_a = sum_t a_t G_t.

    By orthogonality of the additive characters, the ordered pairs (v, w) with
    v^T G_t w = 0 for all t number S = q^(n-m) sum_a q^(n - rank G_a).  The
    q^n + (q^n - 1) q dependent pairs are all isotropic, and each 2-plane has
    (q^2 - 1)(q^2 - q) ordered bases.  Nothing here walks a subspace.
    """
    F, n, m = fs.field, fs.dim, fs.m
    q, grams = F.p, [G.rows for G in fs.grams()]
    S = 0
    for a in product(range(q), repeat=m):
        G = [[sum(c * Gt[i][j] for c, Gt in zip(a, grams)) % q for j in range(n)]
             for i in range(n)]
        S += q ** (n - Matrix(F, n, n, G).rank())
    count, rest = divmod(q ** (n - m) * S - q ** n - (q ** n - 1) * q,
                         (q * q - 1) * (q * q - q))
    assert rest == 0
    return count


@pytest.fixture
def degenerate_ctx():
    fs, V = degenerate_instance()
    return PointContext(V, fs)
