import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from random import Random

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from msgkit import (
    Matrix,
    PointContext,
    PrimeField,
    QQ,
    SingularMatrixError,
    canonical_alternating,
    decode_kernel_element,
    enumerate_subspaces,
    gaussian_binomial,
    random_invertible,
    random_matrix,
    skew_normal_form,
    standard_form,
    tangent_report,
)
from msgkit import cli
from msgkit.fields import Field, PrimeField as PrimeFieldClass, RationalField
from msgkit.matrices import _congruent, _skew_rank
from msgkit.polynomials import pmat_det
from conftest import (DATA_DIR, PRIMES, degenerate_instance, distinct_denominator_alternating,
                      inverse, pfaffian, random_alternating, reference_is_alternating,
                      reference_pfaffian, reference_rref, reference_skew_normal_form,
                      reference_skew_rank)


# --- rref / rank --------------------------------------------------------------

def test_rref_identity_and_zero():
    F = PrimeField(7)
    I3 = Matrix.identity(F, 3)
    R, rank, pivots = I3.rref()
    assert R == I3 and rank == 3 and pivots == (0, 1, 2)
    Z = Matrix.zeros(F, 4, 4)
    assert Z.rank() == 0


def test_rref_dependent_rows_mod_5():
    F = PrimeField(5)
    # second row is 3 * first row mod 5
    M = Matrix(F, 2, 2, [[1, 2], [3, 6]])
    assert M.rank() == 1


def test_rank_equals_transpose_rank():
    rng = Random(31)
    for F in (PrimeField(3), PrimeField(11), QQ):
        for _ in range(50):
            M = random_matrix(F, rng.randrange(1, 6), rng.randrange(1, 6), rng)
            assert M.rank() == M.transpose().rank()


def test_rref_is_idempotent_and_reduced():
    rng = Random(37)
    F = PrimeField(7)
    for _ in range(50):
        M = random_matrix(F, rng.randrange(1, 5), rng.randrange(1, 6), rng)
        R, rank, pivots = M.rref()
        assert R.rref()[0] == R
        for i, c in enumerate(pivots):
            col = [R.entry(r, c) for r in range(M.nrows)]
            assert col[i] == 1 and all(x == 0 for r, x in enumerate(col) if r != i)


# --- kernel --------------------------------------------------------------------

def test_kernel_identity_empty():
    F = PrimeField(5)
    K = Matrix.identity(F, 4).kernel_basis()
    assert K.shape == (0, 4)


def test_kernel_zero_matrix_full():
    F = PrimeField(5)
    K = Matrix.zeros(F, 2, 3).kernel_basis()
    assert K.shape == (3, 3) and K.rank() == 3


def test_kernel_vectors_annihilated():
    rng = Random(41)
    for F in (PrimeField(3), QQ):
        for _ in range(60):
            M = random_matrix(F, rng.randrange(1, 5), rng.randrange(1, 6), rng)
            K = M.kernel_basis()
            assert K.nrows == M.ncols - M.rank()
            assert K.nrows == 0 or K.rank() == K.nrows
            if K.nrows:
                assert M.mul(K.transpose()).is_zero()


# --- inverse --------------------------------------------------------------------

def test_inverse_rotation():
    M = Matrix(QQ, 2, 2, [[0, 1], [-1, 0]])
    assert inverse(M) == Matrix(QQ, 2, 2, [[0, -1], [1, 0]])


def test_inverse_identity():
    F = PrimeField(11)
    I = Matrix.identity(F, 5)
    assert inverse(I) == I


def test_inverse_remultiplies():
    rng = Random(43)
    F = PrimeField(7)
    for _ in range(20):
        M = random_invertible(F, 5, rng)
        assert M.mul(inverse(M)) == Matrix.identity(F, 5)
        assert inverse(M).mul(M) == Matrix.identity(F, 5)


def test_inverse_singular_raises():
    F = PrimeField(5)
    with pytest.raises(SingularMatrixError):
        inverse(Matrix(F, 2, 2, [[1, 2], [3, 6]]))
    with pytest.raises(SingularMatrixError):
        inverse(Matrix.zeros(F, 3, 3))


# --- alternating ------------------------------------------------------------------

def test_is_alternating_examples():
    assert Matrix(QQ, 2, 2, [[0, 1], [-1, 0]]).is_alternating()
    assert not Matrix.identity(QQ, 2).is_alternating()
    assert Matrix(PrimeField(5), 2, 2, [[0, 2], [-2, 0]]).is_alternating()
    # skew but nonzero diagonal is possible only in char 2, which is excluded;
    # a symmetric off-diagonal breaks it
    assert not Matrix(QQ, 2, 2, [[0, 1], [1, 0]]).is_alternating()


def test_alternating_rank_is_even():
    rng = Random(47)
    for F in (PrimeField(3), PrimeField(7), QQ):
        for _ in range(120):
            M = random_alternating(F, rng.randrange(1, 8), rng)
            assert M.rank() % 2 == 0


def _perturbed_alternating(M, rng):
    """M and matrices one entry away from it: an entry changed above or below the
    diagonal, a nonzero diagonal, a symmetric pair; over F_p also M given to
    Matrix(...) as non-canonical ints, its lower triangle as negatives."""
    F, n = M.field, M.nrows
    out = [M]
    if F == QQ:
        def nonzero():
            return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice(PRIMES))
    else:
        def nonzero():
            return rng.randrange(1, F.p)
    for _ in range(3 if n else 0):
        i, j = rng.randrange(n), rng.randrange(n)
        rows = M.to_lists()
        rows[i][j] = F.add(rows[i][j], nonzero())
        out.append(Matrix(F, n, n, rows))
        rows = M.to_lists()
        rows[j][i] = rows[i][j] = nonzero() if i == j else rows[i][j] or nonzero()
        out.append(Matrix(F, n, n, rows))
    if F != QQ:
        p = F.p
        out.append(Matrix(F, n, n, [[x + p * rng.randint(-3, 3) for x in row] for row in M.rows]))
        out.append(Matrix(F, n, n, [[x if i <= j else -M.rows[j][i] for j, x in enumerate(row)]
                                    for i, row in enumerate(M.rows)]))
        if n:
            rows = [[x + p * rng.randint(-3, 3) for x in row] for row in M.rows]
            rows[n - 1][0] += 1
            out.append(Matrix(F, n, n, rows))
    return out


@pytest.mark.parametrize("F", [QQ, PrimeField(3), PrimeField(5), PrimeField(2**31 - 1)], ids=str)
def test_is_alternating_on_the_lift_matches_the_field_reference(F):
    # the test runs on the field's integer lift; the oracle compares Fractions
    # (or residues) through the field's negation
    rng = Random(71)
    verdicts = []
    for n in range(9):
        for _ in range(12):
            M = distinct_denominator_alternating(n, rng) if F == QQ else random_alternating(F, n, rng)
            for C in _perturbed_alternating(M, rng):
                verdicts.append(C.is_alternating())
                assert verdicts[-1] == reference_is_alternating(C), C
    assert True in verdicts and False in verdicts


_REFUSALS = """
from msgkit import (QQ, Matrix, PhiKernelElement, PrimeField, SymplecticForm,
                    canonical_alternating, check_even_eigenspaces, skew_normal_form)
F5 = PrimeField(5)
J, I = canonical_alternating(QQ, 4, 4), Matrix.identity(QQ, 4)
D = Matrix(F5, 2, 2, [[1, 1], [4, 0]])  # skew off the diagonal, 1 on it
S = Matrix(F5, 2, 2, [[0, 1], [1, 0]])
calls = [
    lambda: skew_normal_form(I), lambda: skew_normal_form(D), lambda: skew_normal_form(S),
    lambda: skew_normal_form(Matrix.zeros(QQ, 2, 3)), lambda: Matrix.zeros(F5, 1, 2).is_alternating(),
    lambda: check_even_eigenspaces(J, I), lambda: check_even_eigenspaces(I, J),
    lambda: check_even_eigenspaces(canonical_alternating(F5, 2, 2), S),
    lambda: SymplecticForm(I), lambda: SymplecticForm(D),
    lambda: PhiKernelElement([canonical_alternating(QQ, 2, 2), I]),
    lambda: PhiKernelElement([S]),
]
for call in calls:
    try:
        call()
    except ValueError as e:
        print(f"{type(e).__name__}: {e}")
"""


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimized"])
def test_alternation_refusals_keep_their_messages(flags):
    proc = subprocess.run([sys.executable, *flags, "-c", _REFUSALS],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == (
        ["ValueError: matrix is not alternating (skew with zero diagonal)"] * 3
        + ["ValueError: alternating test needs a square matrix"] * 2
        + ["ValueError: both matrices must be alternating"] * 3
        + ["ValueError: Gram matrix must be alternating"] * 2
        + ["ValueError: coefficient matrices must be alternating"] * 2)


# --- skew normal form ----------------------------------------------------------

def test_skew_normal_form_trivial_cases():
    F = QQ
    J = Matrix(F, 2, 2, [[0, 1], [-1, 0]])
    P, r = skew_normal_form(J)
    assert r == 2 and P == Matrix.identity(F, 2)
    Z = Matrix.zeros(F, 3, 3)
    P, r = skew_normal_form(Z)
    assert r == 0 and P == Matrix.identity(F, 3)


def test_skew_normal_form_remultiplication():
    rng = Random(53)
    F = PrimeField(7)
    for _ in range(40):
        n = rng.randrange(2, 8)
        M = random_alternating(F, n, rng)
        P, r = skew_normal_form(M)
        assert r == M.rank() and r % 2 == 0
        assert P.rank() == n
        assert P.transpose().mul(M).mul(P) == canonical_alternating(F, n, r)


def test_skew_normal_form_rejects_non_alternating():
    with pytest.raises(ValueError):
        skew_normal_form(Matrix.identity(QQ, 2))


@pytest.mark.parametrize("F", [QQ, PrimeField(3), PrimeField(7), PrimeField(2**31 - 1)], ids=str)
def test_congruence_check_on_ints_matches_the_field_product(F):
    # `_congruent`, the re-verification of `normal-form`, against P^T M P in the
    # field: for the normal form, for P with one entry changed, and for a random
    # P against its own product and that product one entry off
    rng = Random(73)
    verdicts = []
    for n in range(9):
        for _ in range(4):
            M = distinct_denominator_alternating(n, rng) if F == QQ else random_alternating(F, n, rng)
            P, r = skew_normal_form(M)
            C = canonical_alternating(F, n, r)
            cases = [(P, C)]
            R = random_matrix(F, n, n, rng)
            cases.append((R, R.transpose().mul(M).mul(R)))
            if n:
                i, j = rng.randrange(n), rng.randrange(n)
                rows = P.to_lists()
                rows[i][j] = F.add(rows[i][j], F.one)
                cases.append((Matrix(F, n, n, rows), C))
                rows = cases[1][1].to_lists()
                rows[i][j] = F.add(rows[i][j], F.one)
                cases.append((R, Matrix(F, n, n, rows)))
            for Q, C in cases:
                verdicts.append(_congruent(M, Q, C))
                assert verdicts[-1] == (Q.transpose().mul(M).mul(Q) == C)
    assert True in verdicts and False in verdicts


def _reference_skew_normal_form(M):
    """Symplectic Gram-Schmidt that evaluates every pairing <x, y> from M."""
    F, n, rows = M.field, M.nrows, M.rows

    def pair(x, y):
        acc = F.zero
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        acc = F.add(acc, F.mul(xi, F.mul(rows[i][j], yj)))
        return acc

    basis = [tuple(F.one if i == j else F.zero for j in range(n)) for i in range(n)]
    chosen = []
    while True:
        hit = next(((a, b) for a in range(len(basis)) for b in range(a + 1, len(basis))
                    if pair(basis[a], basis[b])), None)
        if hit is None:
            break
        a, b = hit
        v = basis[a]
        ci = F.inv(pair(v, basis[b]))
        w = tuple(F.mul(ci, x) for x in basis[b])
        projected = []
        for u in (basis[i] for i in range(len(basis)) if i not in (a, b)):
            alpha, beta = F.neg(pair(u, w)), pair(u, v)
            projected.append(tuple(F.add(u[i], F.add(F.mul(alpha, v[i]), F.mul(beta, w[i])))
                                   for i in range(n)))
        chosen.extend([v, w])
        basis = projected
    return Matrix(F, n, n, chosen + basis).transpose(), len(chosen)


@st.composite
def _alternating_matrices(draw):
    """An n x n alternating matrix, n <= 9, over F_3, F_5, F_7, F_(2^31 - 1) or Q:
    dense, sparse (50-95% zero entries), or P^T C P of rank below n."""
    F = draw(st.sampled_from([PrimeField(3), PrimeField(5), PrimeField(7),
                              PrimeField(2**31 - 1), QQ]))
    n = draw(st.integers(0, 9))
    shape = draw(st.sampled_from(["dense", "sparse", "deficient"]))
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    if shape == "deficient":
        C = canonical_alternating(F, n, 2 * rng.randrange(max(1, (n + 1) // 2)))
        P = random_invertible(F, n, rng)
        return P.transpose().mul(C).mul(P)
    M = random_alternating(F, n, rng)
    if shape == "dense":
        return M
    zero = rng.uniform(0.5, 0.95)
    rows = [list(r) for r in M.rows]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < zero:
                rows[i][j] = rows[j][i] = F.zero
    return Matrix(F, n, n, rows)


@settings(max_examples=500, deadline=None)
@given(_alternating_matrices())
def test_skew_normal_form_matches_pairing_reference(M):
    P, r = skew_normal_form(M)
    assert (P, r) == _reference_skew_normal_form(M)
    assert P.transpose().mul(M).mul(P) == canonical_alternating(M.field, M.nrows, r)


# --- Pfaffian and skew rank -----------------------------------------------------

def test_pfaffian_small_cases():
    a, b, c, d, e, f = (Fraction(x) for x in (2, -3, 5, 7, -11, 13))
    M = Matrix(QQ, 4, 4, [[0, a, b, c], [-a, 0, d, e], [-b, -d, 0, f], [-c, -e, -f, 0]])
    assert pfaffian(QQ, M.rows) == a * f - b * e + c * d
    assert pfaffian(QQ, canonical_alternating(QQ, 2, 2).rows) == 1
    assert pfaffian(QQ, ()) == 1
    assert pfaffian(QQ, canonical_alternating(QQ, 4, 2).rows) == 0


@pytest.mark.parametrize("F", [PrimeField(3), PrimeField(5), PrimeField(2**31 - 1), QQ],
                         ids=str)
def test_pfaffian_of_a_congruence_is_the_determinant(F):
    # Pf(P^T J P) = det(P) Pf(J) and Pf(J) = 1: this pins the pivot signs
    rng = Random(61)
    for n in (2, 4, 6, 8):
        J = canonical_alternating(F, n, n)
        for _ in range(6):
            P = random_matrix(F, n, n, rng)
            det = pmat_det(F, [[[x] for x in row] for row in P.rows])
            assert pfaffian(F, P.transpose().mul(J).mul(P).rows) == (det[0] if det else 0)


@settings(max_examples=300, deadline=None)
@given(_alternating_matrices())
def test_skew_rank_and_pfaffian_match_the_matrix_rank(M):
    n, rank = M.nrows, M.rank()
    p, _, G = M.field.lift(M.rows)
    assert _skew_rank(p, G) == rank
    assert (pfaffian(M.field, M.rows) != 0) == (n % 2 == 0 and rank == n)


@st.composite
def _elimination_inputs(draw):
    """An n x n alternating matrix, n <= 10 and odd n too, over Q or F_p for p in
    3, 5, 7, 2^31 - 1, shaped for every branch of the fraction-free elimination:
    dense, over Q with a distinct prime denominator on every upper entry; a zero
    first row and column, so a pivot is off row 0; a perfect matching of pairs in
    shuffled order plus a few more entries, so pivots are not adjacent; or
    P^T C P of rank below n, over Q with distinct prime denominators in P."""
    F = draw(st.sampled_from([QQ, PrimeField(3), PrimeField(5), PrimeField(7),
                              PrimeField(2**31 - 1)]))
    n = draw(st.integers(0, 10))
    shape = draw(st.sampled_from(["dense", "zero-row", "nonadjacent", "deficient"]))
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    if shape == "deficient":
        C = canonical_alternating(F, n, 2 * rng.randrange(max(1, (n + 1) // 2)))
        while True:
            if F == QQ:
                dens = iter(rng.sample(PRIMES, n * n))
                P = Matrix(F, n, n, [[Fraction(rng.randint(-5, 5), next(dens)) for _ in range(n)]
                                     for _ in range(n)])
            else:
                P = random_matrix(F, n, n, rng)
            if P.rank() == n:
                return P.transpose().mul(C).mul(P)
    M = (distinct_denominator_alternating(n, rng) if F == QQ else random_alternating(F, n, rng))
    keep = {(i, j) for i in range(n) for j in range(i + 1, n)}
    if shape == "zero-row":
        keep = {(i, j) for i, j in keep if i}
    elif shape == "nonadjacent":
        order = rng.sample(range(n), n)
        keep = ({tuple(sorted(order[k:k + 2])) for k in range(0, n - 1, 2)}
                | {e for e in keep if rng.random() < 0.15})
    rows = [[x if (min(i, j), max(i, j)) in keep else F.zero for j, x in enumerate(row)]
            for i, row in enumerate(M.rows)]
    return Matrix(F, n, n, rows)


@settings(max_examples=400, deadline=None)
@given(_elimination_inputs())
def test_fraction_free_elimination_matches_the_field_reference(M):
    # the integer elimination on the field's lift gives exactly what the
    # elimination by the field's own operations gives, in the field's scalars
    F, rows, scalar = M.field, M.rows, type(M.field.zero)
    pf = pfaffian(F, rows)
    assert type(pf) is scalar and pf == reference_pfaffian(F, rows)
    p, _, G = F.lift(rows)
    assert _skew_rank(p, G) == reference_skew_rank(F, rows)
    P, r = skew_normal_form(M)
    assert (P, r) == reference_skew_normal_form(M)
    assert all(type(x) is scalar for row in P.rows for x in row)
    det = pmat_det(F, [[[x] for x in row] for row in rows])
    assert F.mul(pf, pf) == (det[0] if det else F.zero)


# --- characteristic polynomial ----------------------------------------------------

def test_char_poly_examples():
    assert Matrix.identity(QQ, 2).char_poly() == [1, -2, 1]  # x^2 - 2x + 1
    assert Matrix.zeros(QQ, 2, 2).char_poly() == [0, 0, 1]   # x^2
    assert Matrix(QQ, 2, 2, [[0, 1], [-1, 0]]).char_poly() == [1, 0, 1]  # x^2 + 1


def test_char_poly_small_characteristic():
    # p <= n would break any method dividing by integers up to n
    F = PrimeField(3)
    M = Matrix.identity(F, 5)
    cp = M.char_poly()
    assert len(cp) == 6 and cp[-1] == 1


def test_char_poly_vs_permutation_det():
    """Oracle: expand det(xI - M) by permutations, entirely independent code."""
    def perm_char_poly(M):
        F = M.field
        n = M.nrows
        total = {}
        for perm in permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            # product of entries of xI - M along the permutation
            terms = [(F.one, 0)]  # list of (coeff, degree) of partial product
            for i in range(n):
                e = F.neg(M.entry(i, perm[i]))
                new = []
                for c, d in terms:
                    if e:
                        new.append((F.mul(c, e), d))
                    if i == perm[i]:
                        new.append((c, d + 1))
                terms = new
            for c, d in terms:
                cur = total.get(d, F.zero)
                total[d] = F.add(cur, c if sign > 0 else F.neg(c))
        out = [total.get(d, F.zero) for d in range(n + 1)]
        return out

    rng = Random(59)
    for F in (PrimeField(5), QQ):
        for _ in range(25):
            n = rng.randrange(1, 5)
            M = random_matrix(F, n, n, rng)
            assert M.char_poly() == perm_char_poly(M)


# --- JSON ------------------------------------------------------------------------

def test_matrix_json_roundtrip():
    rng = Random(61)
    for F in (PrimeField(13), QQ):
        M = random_matrix(F, 3, 4, rng)
        assert Matrix.decode(F, M.encode()) == M


def test_matrix_decode_validation():
    F = PrimeField(5)
    with pytest.raises(ValueError):
        Matrix.decode(F, {"not": "a matrix"})
    with pytest.raises(ValueError):
        Matrix.decode(F, [])
    with pytest.raises(ValueError):
        Matrix.decode(F, [[1, "x"]])


def test_matrix_decode_keeps_its_shape_check():
    # decode trusts field.decode's scalars, not the row lengths
    for F in (PrimeField(5), QQ):
        for obj, ncols, shape in (([[1, 2], [3]], None, "2x2"), ([[1], [2, 3]], None, "2x1"),
                                  ([[0, 1], [-1, 0], [2]], None, "3x2"),
                                  ([[1, 2], [3, 4]], 3, "2x3"), ([[1, 2, 3]], 2, "1x2"),
                                  ([[]], 1, "1x1")):
            with pytest.raises(ValueError) as info:
                Matrix.decode(F, obj, ncols)
            assert str(info.value) == f"shape mismatch: expected {shape}"
        assert Matrix.decode(F, [], 2).shape == (0, 2)


def test_matrix_decode_canonicalizes_each_scalar_once(monkeypatch):
    # Q's decode canonicalizes by `element`; F_p's reduces by itself.  Neither
    # scalar goes through `element` a second time on its way into the rows.
    calls = {"element": 0, "decode": 0}
    for cls in (RationalField, PrimeFieldClass):
        for name in calls:
            method = getattr(cls, name)

            def counted(self, x, method=method, name=name):
                calls[name] += 1
                return method(self, x)

            monkeypatch.setattr(cls, name, counted)
    M = Matrix.decode(QQ, [[0, "1/2", "-3/6"], ["-2/4", 7, "+0/5"]])
    assert calls == {"element": 6, "decode": 6}
    assert M.rows == ((0, Fraction(1, 2), Fraction(-1, 2)), (Fraction(-1, 2), 7, 0))
    assert all(type(x) is Fraction for row in M.rows for x in row)
    calls.update(element=0, decode=0)
    assert Matrix.decode(PrimeField(5), [[1, -1, 7], [5, 0, 12]]).rows == ((1, 4, 2), (0, 0, 2))
    assert calls == {"element": 0, "decode": 6}


# --- trusted construction ------------------------------------------------------------

@pytest.fixture
def guarded_trust(monkeypatch):
    """Make every Matrix(..., _trusted=True) prove what it skips: each scalar
    is already canonical (field.element returns it unchanged, same type) and
    the rows have the declared shape."""
    init = Matrix.__init__

    def guarded(self, field, nrows, ncols, rows, _trusted=False):
        if _trusted:
            rows = [list(r) for r in rows]
            assert len(rows) == nrows and all(len(r) == ncols for r in rows), "shape"
            for x in (x for r in rows for x in r):
                y = field.element(x)
                assert type(y) is type(x) and y == x, f"non-canonical {x!r} in {field}"
        init(self, field, nrows, ncols, rows, _trusted=_trusted)

    monkeypatch.setattr(Matrix, "__init__", guarded)


def test_trust_guard_catches_a_non_canonical_scalar(guarded_trust):
    with pytest.raises(AssertionError, match="non-canonical"):
        Matrix(PrimeField(3), 1, 1, [[-1]], _trusted=True)
    with pytest.raises(AssertionError, match="non-canonical"):
        Matrix(QQ, 1, 1, [[1]], _trusted=True)  # an int, not a Fraction
    with pytest.raises(AssertionError, match="shape"):
        Matrix(QQ, 2, 1, [[QQ.one]], _trusted=True)
    assert Matrix(PrimeField(3), 1, 1, [[-1]]).rows == ((2,),)  # public: reduced


def test_internal_trusted_constructions_are_canonical(guarded_trust, tmp_path, capsys):
    # every subcommand that builds matrices, over F_p and Q, in both verify
    # scopes with and without the injected fault
    F7 = PrimeField(7)
    files = {
        "point_p": {"field": F7.spec(), "n": 4, "forms": [standard_form(4, F7).gram.encode()],
                    "subspace": [[1, 0, 0, 0], [0, 0, 1, 0]]},
        "alt_q": {"field": QQ.spec(), "matrix": [[0, "1/2", -3], ["-1/2", 0, 2], [3, -2, 0]]},
        "alt_p": {"field": F7.spec(), "matrix": random_alternating(F7, 5, Random(3)).encode()},
    }
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    verify = ["verify", "--n", "4", "--k", "2", "--p", "3", "--pairs", "3", "--seed", "2"]
    sampled = ["verify", "--scope", "sampled", "--n", "6", "--k", "2", "--p", "5",
               "--pairs", "2", "--samples", "8"]
    runs = [
        (verify, 0), (verify + ["--inject-fault"], 1),
        (sampled, 0), (sampled + ["--inject-fault"], 1),
        (["scan", "--n", "6", "--k", "2", "--m", "2", "--p", "3", "--samples", "8"], 0),
        (["scan", "--n", "6", "--k", "2", "--m", "2", "--field", "rational",
          "--samples", "3"], 0),
        (["check-point", "--input", os.path.join(DATA_DIR, "degenerate_n4k2.json")], 0),
        (["check-point", "--input", str(tmp_path / "point_p.json")], 0),
        (["normal-form", "--input", str(tmp_path / "alt_q.json")], 0),
        (["normal-form", "--input", str(tmp_path / "alt_p.json")], 0),
    ]
    for argv, code in runs:
        assert cli.main(argv) == code, (argv, capsys.readouterr().err)
    capsys.readouterr()


def test_subspace_enumeration_constructions_are_canonical(guarded_trust):
    # library-only too: the reference walk behind the isotropic enumeration
    for n, k, p in ((4, 2, 3), (4, 1, 5), (3, 3, 3), (3, 0, 3)):
        F = PrimeField(p)
        assert len(list(enumerate_subspaces(n, k, F))) == gaussian_binomial(n, k, p)


def test_kernel_decoding_constructions_are_canonical(guarded_trust):
    # decode_kernel_element is library-only: no subcommand reaches it
    fs, V = degenerate_instance()
    ctx = PointContext(V, fs)
    kernel = tangent_report(ctx).phi_kernel
    assert kernel
    for kelem in kernel:
        assert decode_kernel_element(ctx, kelem)[1]


# --- unboxed F_p elimination ------------------------------------------------------------

@st.composite
def _prime_matrices(draw):
    """An m x n matrix over F_3, F_5, F_7 or F_(2^31 - 1), m <= 6, n <= 9: random
    (often sparse), with zeroed rows or columns, or already in RREF."""
    F = PrimeField(draw(st.sampled_from([3, 5, 7, 2**31 - 1])))
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 9))
    scalar = st.one_of(st.just(0), st.integers(0, F.p - 1))
    rows = draw(st.lists(st.lists(scalar, min_size=n, max_size=n), min_size=m, max_size=m))
    shape = draw(st.sampled_from(["random", "zero_rows", "zero_cols", "rref"]))
    if shape == "zero_rows":
        dead = draw(st.sets(st.integers(0, max(0, m - 1))))
        rows = [[0] * n if i in dead else r for i, r in enumerate(rows)]
    elif shape == "zero_cols":
        dead = draw(st.sets(st.integers(0, max(0, n - 1))))
        rows = [[0 if j in dead else x for j, x in enumerate(r)] for r in rows]
    elif shape == "rref":
        rows = reference_rref(F, rows, n)[0]
    return Matrix(F, m, n, rows)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_prime_matrices())
def test_prime_rref_matches_boxed_reference(guarded_trust, M):
    rows, rank, pivots = reference_rref(M.field, M.rows, M.ncols)
    R, got_rank, got_pivots = M.rref()
    assert (R.rows, got_rank, got_pivots) == (tuple(map(tuple, rows)), rank, pivots)


@st.composite
def _rank_cases(draw):
    """An m x n matrix over F_3, F_5, F_7, F_(2^31 - 1) or Q, m <= 8, n <= 10:
    random, sparse, with zeroed rows or columns, or with rows repeated as
    multiples of earlier rows."""
    F = draw(st.sampled_from([PrimeField(3), PrimeField(5), PrimeField(7),
                              PrimeField(2**31 - 1), QQ]))
    m, n = draw(st.integers(0, 8)), draw(st.integers(0, 10))
    if F == QQ:
        scalar = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    else:
        scalar = st.integers(0, F.p - 1)
    shape = draw(st.sampled_from(["random", "sparse", "zero_rows", "zero_cols", "repeated"]))
    if shape == "sparse":
        scalar = st.one_of(st.just(0), st.just(0), st.just(0), scalar)
    rows = draw(st.lists(st.lists(scalar, min_size=n, max_size=n), min_size=m, max_size=m))
    if shape == "zero_rows":
        dead = draw(st.sets(st.integers(0, max(0, m - 1))))
        rows = [[0] * n if i in dead else r for i, r in enumerate(rows)]
    elif shape == "zero_cols":
        dead = draw(st.sets(st.integers(0, max(0, n - 1))))
        rows = [[0 if j in dead else x for j, x in enumerate(r)] for r in rows]
    elif shape == "repeated" and m:
        for i in range(1, m):
            if draw(st.booleans()):
                j, c = draw(st.integers(0, i - 1)), draw(scalar)
                rows[i] = [c * x for x in rows[j]]
    return Matrix(F, m, n, rows)


@settings(max_examples=600, deadline=None)
@given(_rank_cases())
def test_rank_matches_the_rref_pivot_count(M):
    # row rank is column rank: the transpose is a second oracle, and the
    # check on its entries covers the empty shapes 0 x n and m x 0
    T = M.transpose()
    assert T.shape == (M.ncols, M.nrows)
    assert all(T.rows[j][i] == x for i, row in enumerate(M.rows) for j, x in enumerate(row))
    assert M.rank() == M.rref()[1] == T.rank()
    if M.field != QQ:  # the F_p rank that `Matrix.rank` and the verify core share
        assert M.field.rank(M.rows) == M.rref()[1]


class _FieldCalls(Field):
    """F_p through field calls alone.  It is no `PrimeField`, so it takes
    `Field`'s generic kernels (elimination and product): the oracle for `PrimeField`'s."""

    __slots__ = ("p",)
    zero, one = 0, 1

    def __init__(self, p):
        self.p = p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)


@settings(max_examples=400, deadline=None)
@given(_rank_cases())
def test_fp_kernels_match_the_field_call_path(M):
    assume(M.field != QQ)
    F, p, m, n = M.field, M.field.p, M.nrows, M.ncols
    boxed = Matrix(_FieldCalls(p), m, n, M.rows, _trusted=True)
    R, rank, pivots = boxed.rref()
    assert F.rref(M.rows) == ([list(r) for r in R.rows[:rank]], pivots)
    assert M.rref()[0].rows == R.rows and M.rref()[1:] == (rank, pivots)
    assert F.rank(M.rows) == rank
    kernel = boxed.kernel_basis().rows
    assert M.kernel_basis().rows == kernel
    # M M^T, and M^T M, whose right factor has no rows when M has none
    for A, B in ((M, M.transpose()), (M.transpose(), M)):
        product = Matrix(boxed.field, A.nrows, A.ncols, A.rows, _trusted=True).mul(
            Matrix(boxed.field, B.nrows, B.ncols, B.rows, _trusted=True)).rows
        assert A.mul(B).rows == product
        if B.nrows:
            assert F.matmul(A.rows, B.rows) == [list(r) for r in product]


@pytest.mark.parametrize("p", [3, 5, 7, 2**31 - 1])
def test_fp_draw_is_the_randrange_stream(p):
    # the same values, and the same generator state after them, as
    # rng.randrange(p): the one detail of CPython's random the fast draw
    # relies on
    for seed in range(20):
        ours, ref = Random(seed), Random(seed)
        for count in (0, 1, 7, 64, 300):
            assert PrimeField(p).draw(ours, count) == [ref.randrange(p) for _ in range(count)]
            assert ours.getstate() == ref.getstate()
