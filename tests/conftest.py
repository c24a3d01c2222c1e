import os
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, product
from math import lcm, prod

import pytest

from msgkit import (
    FormSpace,
    Matrix,
    PointContext,
    PrimeField,
    QQ,
    SingularMatrixError,
    Subspace,
    SymplecticForm,
    random_matrix,
)
from msgkit.fields import is_prime
from msgkit.matrices import _pfaffian
from msgkit.polynomials import (_prime_roots, padd, pdeg, pdivmod, pgcd, pmonic, pmul, proots,
                                ptrim)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
PRIMES = [q for q in range(2, 1000) if all(q % r for r in range(2, int(q ** 0.5) + 1))]
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


def inverse(M):
    """The right half of the RREF of [M | I]: M is invertible iff its pivots are 0..n-1."""
    if not M.is_square():
        raise ValueError("inverse of a non-square matrix")
    F, n = M.field, M.nrows
    rows, pivots = F.rref([r + e for r, e in zip(M.rows, Matrix.identity(F, n).rows)])
    if pivots != tuple(range(n)):
        raise SingularMatrixError("matrix is singular")
    return Matrix(F, n, n, [row[n:] for row in rows])


def stack(A, B):
    """The rows of A above the rows of B."""
    A.field.require_same(B.field)
    if A.ncols != B.ncols:
        raise ValueError("column counts differ")
    return Matrix(A.field, A.nrows + B.nrows, A.ncols, A.rows + B.rows)


def encode_point(F, V):
    """The point-file JSON that `decode_point` and `check-point` read: field, n,
    Gram matrices, subspace basis."""
    return {
        "field": F.field.spec(),
        "n": F.dim,
        "forms": [g.encode() for g in F.grams()],
        "subspace": V.basis.encode(),
    }


def random_alternating(field, n, rng):
    rows = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = field.random(rng)
            rows[i][j] = v
            rows[j][i] = field.neg(v)
    return Matrix(field, n, n, rows)


def distinct_denominator_alternating(n, rng, numerators=9):
    """An n x n alternating matrix over Q whose C(n, 2) upper entries are nonzero,
    each over its own prime denominator from PRIMES."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    dens = iter(rng.sample(PRIMES, n * (n - 1) // 2))
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = Fraction(rng.choice((-1, 1)) * rng.randint(1, numerators), next(dens))
            rows[j][i] = -rows[i][j]
    return Matrix(QQ, n, n, rows)


def reference_is_alternating(M):
    """The field-level alternation test, kept as the oracle of the lift-based
    `Matrix.is_alternating`: a zero diagonal and M[i][j] == -M[j][i] above it,
    compared through the field's own negation (Fractions over Q)."""
    F = M.field
    for i in range(M.nrows):
        if M.rows[i][i]:
            return False
        for j in range(i + 1, M.nrows):
            if M.rows[i][j] != F.neg(M.rows[j][i]):
                return False
    return True


def random_alternating_nonsingular(field, n, rng):
    while True:
        M = random_alternating(field, n, rng)
        if M.rank() == n:
            return M


def random_complement(V, rng):
    """A random complement of V; rejection-sampled until the stacked basis is invertible."""
    while True:
        C = random_matrix(V.field, V.n - V.k, V.n, rng)
        if stack(V.basis, C).rank() == V.n:
            return C


def reference_rref(F, rows, ncols):
    """Gauss-Jordan with first-nonzero pivots, column by column, through F.sub, F.mul
    and F.inv only: the RREF padded with zero rows, the rank and the pivot columns."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        below = [i for i in range(r, len(rows)) if rows[i][c] != F.zero]
        if not below:
            continue
        rows[r], rows[below[0]] = rows[below[0]], rows[r]
        f = F.inv(rows[r][c])
        rows[r] = [F.mul(f, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                g = rows[i][c]
                rows[i] = [F.sub(x, F.mul(g, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, len(pivots), tuple(pivots)


def reference_isotropic_subspace(k, fs, rng, retries=64):
    """The greedy sampler as it was before it kept live RREFs, in field calls: at every
    step it builds the kernel basis K of the perp system's RREF, tries `retries` draws
    c K, each kept if the rank of the span with it grows, then sweeps K; None when no
    vector of K leaves the span."""
    field, n = fs.field, fs.dim
    span, perp, perp_pivots = [], [], ()

    def times(c, rows):
        v = [field.zero] * len(rows[0])
        for a, row in zip(c, rows):
            v = [field.add(x, field.mul(a, y)) for x, y in zip(v, row)]
        return v

    while True:
        K = []
        for fc in (j for j in range(n) if j not in perp_pivots):
            v = [field.zero] * n
            v[fc] = field.one
            for row, pc in zip(perp, perp_pivots):
                v[pc] = field.neg(row[fc])
            K.append(v)
        draws = (times([field.random(rng) for _ in K], K) for _ in range(retries))
        for v in chain(draws, K):
            rows, rank, pivots = reference_rref(field, span + [v], n)
            if rank > len(span):
                break
        else:
            return None
        span = rows[:rank]
        if rank == k:
            return Subspace(Matrix(field, k, n, span), pivots)
        rows, rank, perp_pivots = reference_rref(
            field, perp + [times(v, g.rows) for g in fs.grams()], n)
        perp = rows[:rank]


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


def chart_differential_columns(F, B, pivots, grams):
    """The columns of the differential at B of X -> (B(X) G_t B(X)^T)_{i<j}, one upper
    triangle per Gram matrix G_t, in the affine chart where B(X) is the RREF basis B,
    of pivot columns `pivots`, with X added at its non-pivot columns; F gives the
    field's zero, add and mul.

    The column for the unit direction E at row i and non-pivot column c is
    the upper triangle of E G_t B^T + B G_t E^T, written out entrywise: its
    (a, b) entry is [a = i] (G_t B^T)[c][b] + [b = i] (B G_t)[a][c].  The
    tangent space is the kernel of this map, so its rank is the constraint
    rank; nothing here reads msgkit's constraint rows or restrictions.
    """
    n, k = len(grams[0]), len(B)

    def dot(u, w):
        acc = F.zero
        for x, y in zip(u, w):
            acc = F.add(acc, F.mul(x, y))
        return acc

    columns = []
    for i in range(k):
        for c in (c for c in range(n) if c not in pivots):
            column = []
            for G in grams:
                Gcol = [G[l][c] for l in range(n)]
                for a in range(k):
                    for b in range(a + 1, k):
                        x = dot(G[c], B[b]) if a == i else F.zero
                        y = dot(B[a], Gcol) if b == i else F.zero
                        column.append(F.add(x, y))
            columns.append(column)
    return columns


def chart_differential_rank(V, fs):
    """An independent tangent oracle: the rank of `chart_differential_columns` at V."""
    columns = chart_differential_columns(V.field, V.basis.rows, V.pivots,
                                         [G.rows for G in fs.grams()])
    if not columns or not columns[0]:
        return 0
    return Matrix(V.field, len(columns), len(columns[0]), columns).rank()


def _reference_remainder(p, a, g):
    """a mod the monic g over F_p, coefficient lists low degree first."""
    a = list(a)
    for i in reversed(range(len(a) - len(g) + 1)):
        c = a[i + len(g) - 1]
        for j, x in enumerate(g):
            a[i + j] = (a[i + j] - c * x) % p
    return a[:len(g) - 1]


class ReferenceField:
    """F_(p^e) = F_p[x]/(f), built from definitions and sharing no code with msgkit.

    f is the first monic polynomial of degree e with no monic factor of degree 1..e/2,
    found by trial division (Lidl and Niederreiter, Finite Fields, ch. 1-3).  An element
    is the int whose base-p digits are its coefficients, low degree first, so F_p sits
    inside with its own values.  Sums, products, negatives and inverses are tables.
    """

    def __init__(self, p, e):
        q = self.q = p ** e
        self.zero = 0
        digits = [[a // p ** i % p for i in range(e)] for a in range(q)]
        value = lambda d: sum(x * p ** i for i, x in enumerate(d))
        monic = lambda d: (list(c) + [1] for c in product(range(p), repeat=d))
        f = next(f for f in monic(e)
                 if all(any(_reference_remainder(p, f, g)) for d in range(1, e // 2 + 1)
                        for g in monic(d)))

        def times(a, b):
            c = [0] * (2 * e - 1)
            for i, x in enumerate(digits[a]):
                for j, y in enumerate(digits[b]):
                    c[i + j] = (c[i + j] + x * y) % p
            return value(_reference_remainder(p, c, f))

        self._add = [[value([(x + y) % p for x, y in zip(digits[a], digits[b])])
                      for b in range(q)] for a in range(q)]
        self._mul = [[times(a, b) for b in range(q)] for a in range(q)]
        self._neg = [self._add[a].index(0) for a in range(q)]
        self._inv = [None] + [self._mul[a].index(1) for a in range(1, q)]

    def add(self, a, b):
        return self._add[a][b]

    def mul(self, a, b):
        return self._mul[a][b]

    def rank(self, rows):
        """Forward elimination: each pivot clears its column from the rows below it."""
        rows, r = [list(row) for row in rows], 0
        for c in range(len(rows[0]) if rows else 0):
            i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
            if i is None:
                continue
            rows[r], rows[i] = rows[i], rows[r]
            pivot = [self.mul(self._inv[rows[r][c]], x) for x in rows[r]]
            for j in range(r + 1, len(rows)):
                f = self._neg[rows[j][c]]
                rows[j] = [self.add(x, self.mul(f, y)) for x, y in zip(rows[j], pivot)]
            r += 1
        return r


@cache
def reference_field(p, e):
    return ReferenceField(p, e)


def reference_pencil_degenerate(p, R1, R2):
    """Whether rank(l R1 + m R2) <= k - 2 at some point (l : m) over the algebraic closure
    of F_p, for k x w matrices R1, R2 over F_p: the pencil oracle from the definition.

    Such a point is a common root of the (k-1)-minors, binary forms of degree k - 1, so
    it lies in F_(p^e) for some e <= k - 1 (every point does when the minors all vanish),
    and the points of P^1(F_(p^e)), e = 1..k-1, decide it with no minor.
    """
    k = len(R1)
    for e in range(1, k):
        F = reference_field(p, e)
        for l, m in [(0, 1)] + [(1, x) for x in range(F.q)]:
            if F.rank([[F.add(F.mul(l, x), F.mul(m, y)) for x, y in zip(r1, r2)]
                       for r1, r2 in zip(R1, R2)]) <= k - 2:
                return True
    return False


def reference_verify_points(fs, k):
    """Exhaustive verify of the pencil `fs` over F_p at k from definitions, sharing no
    code with msgkit: per simultaneously isotropic k-subspace, in RREF enumeration
    order, (pivots, RREF rows, restrictions R_t, constraint rank, degenerate).

    The RREF bases are enumerated a row at a time, each row's free entries filled in
    every way and the row kept when it pairs to zero, by plain dot products, with the
    rows above under every form.  R_t is B G_t at the non-pivot columns, the rank is
    that of `chart_differential_columns` by `ReferenceField`'s elimination over F_p,
    and the pencil side is `reference_pencil_degenerate`.
    """
    p, n = fs.field.p, fs.dim
    grams = [[list(row) for row in G.rows] for G in fs.grams()]
    Fp = reference_field(p, 1)

    def bases(pivots, B, BG):  # BG[i][t] = B[i] G_t
        i = len(B)
        if i == k:
            yield B, BG
            return
        cols = [c for c in range(pivots[i] + 1, n) if c not in pivots]
        for values in product(range(p), repeat=len(cols)):
            row = [int(c == pivots[i]) for c in range(n)]
            for c, x in zip(cols, values):
                row[c] = x
            if not any(sum(x * y for x, y in zip(w, row)) % p for ws in BG for w in ws):
                yield from bases(pivots, B + [row], BG + [
                    [[sum(row[a] * G[a][b] for a in range(n)) % p for b in range(n)]
                     for G in grams]])

    points = []
    for pivots in combinations(range(n), k):
        cols = [c for c in range(n) if c not in pivots]
        for B, BG in bases(pivots, [], []):
            R = [[[rowG[t][c] for c in cols] for rowG in BG] for t in range(len(grams))]
            rank = Fp.rank(chart_differential_columns(Fp, B, pivots, grams))
            points.append((pivots, B, R, rank, reference_pencil_degenerate(p, *R)))
    return points


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


def isotropic_count_by_double_counting(fs, j, bases):
    """N_(j+1), the number of (j+1)-subspaces isotropic for every form of `fs` over F_q,
    from the bases of all its isotropic j-subspaces W, by counting the pairs W < U twice.

    Every subspace of an isotropic U is isotropic, so each U holds (q^(j+1) - 1)/(q - 1)
    of the W.  W lies in (q^(n - r) - q^j)/(q^(j+1) - q^j) of the U, the (j+1)-subspaces
    of its perp: the kernel of the m j rows G_t w^T, w in W's basis, of rank r, formed
    here by plain dot products.
    """
    F, n = fs.field, fs.dim
    q, grams = F.p, [G.rows for G in fs.grams()]
    total = 0
    for basis in bases:
        r = F.rank([[sum(g * x for g, x in zip(G_row, w)) % q for G_row in G]
                    for G in grams for w in basis])
        total += (q ** (n - r) - q ** j) // (q ** (j + 1) - q ** j)
    count, rest = divmod(total * (q - 1), q ** (j + 1) - 1)
    assert rest == 0
    return count


def reference_skew_schur(F, G):
    """The 2x2-pivot elimination of an alternating matrix through the field's own
    operations (Fractions over Q), kept as the oracle of the fraction-free
    `matrices._skew_schur`: in place on G, m rows whose entries past column m
    ride along.  Each step takes the first nonzero G[a][b] = c in row-major
    order, yields (a, b, 1/c) and leaves the Schur complement of
    [[0, c], [-c, 0]]: rows and columns a, b dropped,
    G[i] += (G[i][a] G[b] - G[i][b] G[a]) / c."""
    add, sub, mul = F.add, F.sub, F.mul
    while True:
        m = len(G)
        hit = next(((a, b) for a, row in enumerate(G) for b, x in enumerate(row[:m]) if x), None)
        if hit is None:
            return
        a, b = hit
        ci = F.inv(G[a][b])
        yield a, b, ci
        Gb, Ga = G.pop(b), G.pop(a)
        Ga, Gb = (row[:a] + row[a + 1:b] + row[b + 1:] for row in (Ga, Gb))
        for i, Gi in enumerate(G):
            s, t = mul(Gi[a], ci), mul(Gi[b], ci)
            G[i] = [add(x, sub(mul(s, y), mul(t, z)))
                    for x, y, z in zip(Gi[:a] + Gi[a + 1:b] + Gi[b + 1:], Gb, Ga)]


def reference_skew_rank(F, rows):
    return 2 * sum(1 for _ in reference_skew_schur(F, list(rows)))


def reference_pfaffian(F, rows):
    """The product of the pivots, each signed by (-1)^(a+b-1); 0 once a pivot is
    off the first remaining row, as that row is zero."""
    pf, G = F.one, list(rows)
    for a, b, _ in reference_skew_schur(F, G):
        if a:
            return F.zero
        pf = F.mul(pf, G[a][b] if b % 2 else F.neg(G[a][b]))
    return F.zero if G else pf


def reference_skew_normal_form(M):
    """(P, rank): a pivot G[a][b] = c keeps v = u_a and w = u_b / c, the basis
    vectors riding along in the last n columns; the vectors left form the radical."""
    F, n = M.field, M.nrows
    G = [list(row) + list(e) for row, e in zip(M.rows, Matrix.identity(F, n).rows)]
    chosen = []
    for a, b, ci in reference_skew_schur(F, G):
        chosen += [G[a][-n:], [F.mul(ci, x) for x in G[b][-n:]]]
    P = Matrix(F, n, n, chosen + [row[-n:] for row in G]).transpose()
    return P, len(chosen)


def peval(F, a, x):
    acc = F.zero
    for c in reversed(a):
        acc = F.add(F.mul(acc, x), c)
    return acc


def pderiv(F, a):
    return ptrim([F.mul(F.element(i), a[i]) for i in range(1, len(a))])


def _interpolate(F, ys):
    """The polynomial of degree < len(ys) through (x, ys[x]), x = 0, 1, ..., in Newton
    form, by the field's own operations."""
    c = list(ys)
    for k in range(1, len(c)):
        c[k:] = [F.div(F.sub(y, x), F.element(k)) for x, y in zip(c[k - 1:], c[k:])]
    poly = []
    for k in reversed(range(len(c))):  # poly * (x - k) + c[k]
        poly = padd(F, pmul(F, poly, [F.element(-k), F.one]), [c[k]])
    return poly


def pfaffian(F, rows):
    """Pf(M) in the field's scalars: the library's integer Pfaffian of the field's
    lift D M D, divided by prod(D) in the field."""
    _, D, G = F.lift(rows)
    return F.quotients([_pfaffian(G)], 1, prod(D))[0]


def reference_pencil_pfaffian(M1, M2):
    """Pf(x*M1 - M2) interpolated from x = 0..n/2 over the field, or over Q from
    the skew lift of the upper triangles when F_p has too few nodes."""
    F, d = M1.field, M1.nrows // 2
    R = QQ if isinstance(F, PrimeField) and F.p <= d else F
    A1, A2 = (M.rows if R is F else [[QQ.element(x) if i < j else -QQ.element(M.rows[j][i])
                                      for j, x in enumerate(row)] for i, row in enumerate(M.rows)]
              for M in (M1, M2))
    pf = _interpolate(R, [reference_pfaffian(R, [[R.sub(R.mul(x, u), v) for u, v in zip(r1, r2)]
                                                 for r1, r2 in zip(A1, A2)])
                          for x in range(d + 1)])
    return pf if R is F else ptrim([c.numerator % F.p for c in pf])


def reference_lifted_pencil_pfaffian(M1, M2):
    """Pf(x*M1 - M2) from the Pfaffians of x*A1 - A2 on the field's lift, mapped into
    the field (into Q when F_p has too few nodes) and interpolated there by
    `_interpolate`: the oracle of `_pencil_pfaffian`'s interpolation over Z."""
    F, n = M1.field, M1.nrows
    p, D, A1, A2 = F.lift(M1.rows, M2.rows)
    R = QQ if 0 < p <= n // 2 else F
    pf = _interpolate(R, R.quotients([_pfaffian([[x * u - v for u, v in zip(r1, r2)]
                                                 for r1, r2 in zip(A1, A2)])
                                      for x in range(n // 2 + 1)], 1, prod(D)))
    return pf if R is F else ptrim([c.numerator % p for c in pf])


def reference_rational_roots(f):
    """Sorted distinct rational roots of a nonzero f over Q, the oracle of `proots`
    over Q, which runs on integers: the radical f / gcd(f, f') by Euclid in
    Fractions, Cantor-Zassenhaus over F_q for the first usable prime q >= 10007,
    Newton lifting, and an evaluation of each candidate in Fractions."""
    f = pmonic(QQ, f)
    if pdeg(f) > 1:
        g = pgcd(QQ, f, pderiv(QQ, f))
        if pdeg(g) > 0:
            f = pmonic(QQ, pdivmod(QQ, f, g)[0])
    roots = []
    if f[0] == 0:
        roots.append(Fraction(0))
        f = f[1:]
    scale = lcm(*[c.denominator for c in f])
    ints = [int(c * scale) for c in f]
    q = 10007
    while True:
        if is_prime(q) and ints[-1] % q:
            Fq = PrimeField(q)
            fq = [c % q for c in ints]
            if pdeg(pgcd(Fq, fq, pderiv(Fq, fq))) == 0:
                break
        q += 2
    bound = 2 * abs(ints[0] * ints[-1])
    for r in _prime_roots(Fq, fq):
        m = q
        while m <= bound:
            m *= m
            fr = dfr = 0
            for c in reversed(ints):
                dfr = (dfr * r + fr) % m
                fr = (fr * r + c) % m
            r = (r - fr * pow(dfr, -1, m)) % m
        s = ints[-1] * r % m
        if 2 * s > m:
            s -= m
        cand = Fraction(s, ints[-1])
        if peval(QQ, f, cand) == 0:
            roots.append(cand)
    return sorted(roots)


def reference_eigenspaces(M1, M2):
    """(eigenvalues, nullities) of the pencil by the reference Pfaffian, roots and
    skew rank of d*M1 - M2, formed in the field; None if M1 or M2 is singular."""
    F, n = M1.field, M1.nrows
    pf = reference_pencil_pfaffian(M1, M2)
    if len(pf) != n // 2 + 1 or not pf[0]:
        return None
    eigenvalues = reference_rational_roots(pf) if F == QQ else proots(F, pf)
    return tuple(eigenvalues), tuple(
        n - reference_skew_rank(F, [[F.sub(F.mul(d, x), y) for x, y in zip(r1, r2)]
                                    for r1, r2 in zip(M1.rows, M2.rows)]) for d in eigenvalues)


@pytest.fixture
def degenerate_ctx():
    fs, V = degenerate_instance()
    return PointContext(V, fs)
