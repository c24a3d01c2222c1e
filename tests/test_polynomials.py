import time
from fractions import Fraction
from math import prod
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from msgkit import BinaryForm, PrimeField, QQ, binary_form_roots
from msgkit import polynomials, tangent
from msgkit.polynomials import (
    _linear_grid,
    pdeg,
    pdivmod,
    pgcd,
    pmat_det,
    pmul,
    proots,
    pscale,
    ptrim,
)
from msgkit.fields import is_prime
from msgkit.polynomials import _zradical
from msgkit.tangent import _pencil_minor_gcd
from conftest import PRIMES, _interpolate, peval, reference_rational_roots


def test_divmod_reconstructs():
    rng = Random(11)
    for F in (PrimeField(7), QQ):
        for _ in range(100):
            a = ptrim([F.random(rng) for _ in range(rng.randrange(0, 8))])
            b = ptrim([F.random(rng) for _ in range(rng.randrange(1, 5))])
            while not b:
                b = ptrim([F.random(rng) for _ in range(rng.randrange(1, 5))])
            q, r = pdivmod(F, a, b)
            assert pdeg(r) < pdeg(b)
            # a == q*b + r, checked by full reconstruction
            recon = pmul(F, q, b)
            recon = recon + [F.zero] * (max(len(recon), len(r)) - len(recon))
            for i, c in enumerate(r):
                recon[i] = F.add(recon[i], c)
            assert ptrim(recon) == a


def test_gcd_divides_both():
    rng = Random(12)
    F = PrimeField(13)
    for _ in range(100):
        g = [F.random(rng) for _ in range(rng.randrange(1, 4))] + [1]
        a = pmul(F, g, [F.random(rng) for _ in range(3)] + [1])
        b = pmul(F, g, [F.random(rng) for _ in range(2)] + [1])
        d = pgcd(F, a, b)
        assert pdeg(d) >= pdeg(g)
        assert not pdivmod(F, a, d)[1]
        assert not pdivmod(F, b, d)[1]


# --- roots -----------------------------------------------------------------

def test_prime_roots_vs_scan():
    rng = Random(13)
    for p in (3, 7, 31):
        F = PrimeField(p)
        for _ in range(80):
            f = [F.random(rng) for _ in range(rng.randrange(1, 6))]
            f.append(1 + rng.randrange(p - 1))
            assert proots(F, f) == sorted(
                a for a in range(p) if peval(F, f, a) == 0)


def test_prime_roots_pth_power_factors():
    F = PrimeField(3)
    # 2x^3 + 1 = 2(x - 1)^3 mod 3: zero derivative, root must survive
    assert proots(F, [1, 0, 0, 2]) == [1]


def test_rational_roots():
    roots = [Fraction(-5, 2), Fraction(0), Fraction(3)]
    f = [Fraction(1)]
    for r in roots:
        f = pmul(QQ, f, [-r, Fraction(1)])
    f = pmul(QQ, f, [Fraction(7), Fraction(0), Fraction(1)])  # x^2 + 7: no rational roots
    assert proots(QQ, f) == sorted(roots)


def _from_roots(roots):
    f = [Fraction(1)]
    for r in roots:
        f = pmul(QQ, f, [-r, Fraction(1)])
    return f


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


@settings(max_examples=200, deadline=None)
@given(roots=st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=40),
                      max_size=5),
       c=st.fractions(min_value=0, max_value=100, max_denominator=30).filter(bool),
       scale=st.fractions(min_value=-1000, max_value=1000, max_denominator=1000).filter(bool))
def test_rational_roots_are_exactly_the_planted_ones(roots, c, scale):
    # x^2 + c with c > 0 has no real roots, so it plants none; repeats collapse
    f = pscale(QQ, scale, pmul(QQ, _from_roots(roots), [c, Fraction(0), Fraction(1)]))
    assert proots(QQ, f) == sorted(set(roots))


def test_rational_roots_vs_sympy_factorization():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = Random(14)
    for _ in range(150):
        f = [Fraction(rng.randint(-20, 20)) for _ in range(rng.randrange(0, 4))]
        f = ptrim(f + [Fraction(rng.randint(1, 20))])
        for _ in range(rng.randrange(0, 4)):  # linear factors give rational roots
            f = pmul(QQ, f, [Fraction(rng.randint(-30, 30)), Fraction(rng.randint(1, 12))])
        poly = sympy.Poly([int(c) for c in reversed(f)], x)
        expected = sorted({Fraction(int(-g.coeff_monomial(1)), int(g.coeff_monomial(x)))
                           for g, _ in poly.factor_list()[1] if g.degree() == 1})
        assert proots(QQ, f) == expected


def test_rational_roots_of_large_height():
    # divisor enumeration would have to factor a 40-digit semiprime here
    a, b = _next_prime(10**19), _next_prime(3 * 10**19)
    start = time.perf_counter()
    assert proots(QQ, [Fraction(a * b), Fraction(0), Fraction(1)]) == []
    assert time.perf_counter() - start < 1.0
    A, B, C, D = (_next_prime(k * 10**39) for k in (2, 3, 5, 7))
    f = pmul(QQ, [Fraction(-B), Fraction(A)], [Fraction(D), Fraction(0), Fraction(C)])
    assert proots(QQ, f) == [Fraction(B, A)]


def test_rational_roots_skip_unusable_lift_primes():
    # 10007 divides the leading coefficient: the root 1/10007 has no image mod 10007
    f = pmul(QQ, [Fraction(-1), Fraction(10007)], [Fraction(-2), Fraction(1)])
    assert proots(QQ, f) == [Fraction(1, 10007), Fraction(2)]
    # (x - 1)(x - 10008) = (x - 1)^2 mod 10007: squarefree over Q but not mod 10007
    assert proots(QQ, _from_roots([Fraction(1), Fraction(10008)])) == [1, 10008]


@st.composite
def _polynomials_with_rational_roots(draw):
    """(f, roots): f = scale * prod (x - r)^e * g over Q, the planted roots r with
    denominators that carry 3, 5 or 7 and multiplicities e of 1 to 3, g = x^2 + c
    with c > 0 (irreducible, no rational root) or 1, and numerators, denominators,
    c and the scale up to 2^bits."""
    bits = draw(st.sampled_from([3, 24, 200]))
    size = st.integers(1, 2 ** bits)
    root = st.builds(lambda a, b, p: Fraction(a, b * p), st.integers(-2 ** bits, 2 ** bits),
                     size, st.sampled_from([1, 3, 5, 7, 9, 15, 21, 35, 105]))
    roots = draw(st.lists(root, max_size=4))
    f = [Fraction(1)]
    for r in roots:
        for _ in range(draw(st.integers(1, 3))):
            f = pmul(QQ, f, [-r, Fraction(1)])
    if draw(st.booleans()):
        f = pmul(QQ, f, [Fraction(draw(size), draw(size)), Fraction(0), Fraction(1)])
    scale = Fraction(draw(st.sampled_from([-1, 1])) * draw(size), draw(size))
    return pscale(QQ, scale, f), sorted(set(roots))


@settings(max_examples=150, deadline=None)
@given(_polynomials_with_rational_roots())
def test_rational_roots_match_the_fraction_reference(case):
    f, roots = case
    assert proots(QQ, f) == reference_rational_roots(f) == roots


def _lift_primes(monkeypatch):
    """The primes `_rational_roots` considers, in order, read from its primality test."""
    tried = []

    def record(n):
        if is_prime(n):
            tried.append(n)
            return True
        return False

    monkeypatch.setattr(polynomials, "is_prime", record)
    return tried


def test_rational_roots_lift_from_the_first_good_small_prime(monkeypatch):
    tried = _lift_primes(monkeypatch)
    # 3 divides the leading coefficient of 3x - 1, so the root 1/3 lifts from 5
    assert proots(QQ, [Fraction(-1), Fraction(3)]) == [Fraction(1, 3)]
    assert tried == [3, 5]
    # (x - 1)(x - 4) = (x - 1)^2 mod 3: squarefree over Q, a double root mod 3
    tried.clear()
    assert proots(QQ, _from_roots([Fraction(1), Fraction(4)])) == [1, 4]
    assert tried == [3, 5]
    # 1 and 1 + N meet mod every odd prime up to 199, so each one is skipped
    odd = [q for q in PRIMES if 2 < q < 200]
    N = prod(odd)
    tried.clear()
    start = time.perf_counter()
    assert proots(QQ, _from_roots([Fraction(1), Fraction(1 + N)])) == [1, 1 + N]
    assert time.perf_counter() - start < 0.5
    assert tried == odd + [211]


def test_rational_roots_take_the_integer_radical(monkeypatch):
    # (x - 2)^3 (3x + 1): the radical over Z is the primitive 3x^2 - 5x - 2
    f = pmul(QQ, _from_roots([Fraction(2)] * 3), [Fraction(1), Fraction(3)])
    assert _zradical([int(c) for c in f]) == [-2, -5, 3]
    assert proots(QQ, f) == [Fraction(-1, 3), Fraction(2)]
    assert proots(QQ, pscale(QQ, Fraction(-7, 22), f)) == [Fraction(-1, 3), Fraction(2)]
    # c x^k has the one root 0 and a nonzero constant has none; neither needs a prime
    tried = _lift_primes(monkeypatch)
    assert proots(QQ, [Fraction(0)] * 3 + [Fraction(5, 7)]) == [Fraction(0)]
    assert proots(QQ, [Fraction(0), Fraction(-2, 9)]) == [Fraction(0)]
    assert proots(QQ, [Fraction(7, 3)]) == []
    assert tried == []


def test_large_prime_roots():
    F = PrimeField(2**31 - 1)
    f = pmul(F, [F.p - 5, 1], [F.p - 999999999, 1])
    assert proots(F, f) == [5, 999999999]


# --- binary forms ------------------------------------------------------------

def u_form(field):
    return BinaryForm(field, 1, [0, 1])


def v_form(field):
    return BinaryForm(field, 1, [1, 0])


def minor_gcd(R1, R2):
    """The certificate of the pencil u*R1 + v*R2 over Q: the gcd of its (k-1)-minors."""
    return _pencil_minor_gcd(QQ, R1, R2)


def test_binary_gcd_shared_factor():
    # diag(u, u, v) has the minors u^2, uv, uv -> u
    assert minor_gcd([[1, 0, 0], [0, 1, 0], [0, 0, 0]],
                     [[0, 0, 0], [0, 0, 0], [0, 0, 1]]) == u_form(QQ)


def test_binary_gcd_coprime():
    # the 1-minors of the column (u, v)
    g = minor_gcd([[1], [0]], [[0], [1]])
    assert g.is_constant() and not g.is_zero()


def test_binary_gcd_difference_of_squares():
    # diag(u + v, u - v, u - v) has the minors u^2 - v^2 (twice) and (u - v)^2 -> u - v
    assert minor_gcd([[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                     [[1, 0, 0], [0, -1, 0], [0, 0, -1]]) == BinaryForm(QQ, 1, [-1, 1])


def test_binary_gcd_zero_handling():
    assert minor_gcd([[0, 0, 0]] * 3, [[0, 0, 0]] * 3).is_zero()
    assert minor_gcd([[], []], [[], []]).is_zero()  # no 1-minors at all
    # the first minor is zero and is absorbed: gcd(0, u) = u
    assert minor_gcd([[0, 1], [0, 0]], [[0, 0], [0, 0]]) == u_form(QQ)


def test_binary_gcd_stops_reading_minors_early(monkeypatch):
    reads = []

    def counting_det(F, grid):
        reads.append(grid)
        return pmat_det(F, grid)

    monkeypatch.setattr(tangent, "pmat_det", counting_det)
    # rows (u, v), (v, u), (v, 0): the first two minors u^2 - v^2 and -v^2 are
    # coprime and one has no v-factor, so no later minor can change the gcd
    assert minor_gcd([[1, 0], [0, 1], [0, 0]], [[0, 1], [1, 0], [1, 0]]) == BinaryForm(QQ, 0, [1])
    assert len(reads) == 2
    # rows (v, 0), (0, u), (u, v): uv and v^2 are coprime at v = 1, but v divides
    # both, so the third minor -u^2 is read
    reads.clear()
    assert minor_gcd([[0, 0], [0, 1], [1, 0]], [[1, 0], [0, 0], [0, 1]]) == BinaryForm(QQ, 0, [1])
    assert len(reads) == 3
    # rows (v, 0), (0, u), (0, v): the minors uv, v^2 and 0 keep their common
    # root at infinity
    assert minor_gcd([[0, 0], [0, 1], [0, 0]], [[1, 0], [0, 0], [0, 1]]) == v_form(QQ)


def test_binary_roots_normalization():
    # u + v vanishes at (1, -1) after first-nonzero normalization
    g = BinaryForm(QQ, 1, [1, 1])
    assert binary_form_roots(g) == [(Fraction(1), Fraction(-1))]
    # v alone vanishes exactly at infinity (1, 0)
    assert binary_form_roots(v_form(QQ)) == [(Fraction(1), Fraction(0))]
    # u vanishes at (0, 1)
    assert binary_form_roots(u_form(QQ)) == [(Fraction(0), Fraction(1))]


def _evaluate(form, u, v):
    F = form.field
    acc = F.zero
    for i, c in enumerate(form.coeffs):
        acc = F.add(acc, F.mul(c, F.element(u ** i * v ** (form.degree - i))))
    return acc


def test_binary_roots_evaluate_to_zero():
    rng = Random(19)
    F = PrimeField(7)
    for _ in range(40):
        deg = rng.randrange(1, 5)
        uni = [F.random(rng) for _ in range(deg)] + [1]
        form = BinaryForm.from_univariate(F, uni, deg + rng.randrange(0, 2))
        for (l1, l2) in binary_form_roots(form):
            assert _evaluate(form, l1, l2) == 0
            assert (l1, l2) != (0, 0)


# --- polynomial-matrix determinants ------------------------------------------

def test_pmat_det_vs_permanent_expansion():
    """Bareiss result matches a cofactor expansion done by independent code."""
    from itertools import permutations

    def perm_det(F, grid):
        n = len(grid)
        total = []
        for perm in permutations(range(n)):
            sign = 1
            seen = list(perm)
            for i in range(n):
                for j in range(i + 1, n):
                    if seen[i] > seen[j]:
                        sign = -sign
            term = [F.one]
            for i in range(n):
                term = pmul(F, term, grid[i][perm[i]])
            if sign < 0:
                term = [F.neg(c) for c in term]
            if not total:
                total = term
            else:
                m = max(len(total), len(term))
                total = total + [F.zero] * (m - len(total))
                for i, c in enumerate(term):
                    total[i] = F.add(total[i], c)
        while total and not total[-1]:
            total.pop()
        return total

    rng = Random(23)
    for F in (PrimeField(5), QQ):
        for _ in range(30):
            n = rng.randrange(1, 5)
            grid = [[[F.random(rng) for _ in range(rng.randrange(0, 3))]
                     for _ in range(n)] for _ in range(n)]
            assert pmat_det(F, grid) == perm_det(F, grid)


def test_pmat_det_divides_only_after_the_first_step(monkeypatch):
    """The first Bareiss step divides by 1, so a 2x2 determinant calls no
    pdivmod and a 3x3 one calls it once, for the single entry of step two."""
    calls = []
    real = polynomials.pdivmod
    monkeypatch.setattr(polynomials, "pdivmod", lambda *args: calls.append(1) or real(*args))
    F = PrimeField(7)
    assert pmat_det(F, _linear_grid([[1, 2], [3, 4]], [[5, 6], [0, 1]])) == [5, 3, 5]
    assert calls == []
    A = [[1, 2, 0], [3, 4, 5], [6, 0, 1]]
    assert pmat_det(F, [[[x] for x in row] for row in A]) == [2]  # det A = 58
    assert calls == [1]


@pytest.mark.parametrize("F", [PrimeField(5), PrimeField(2**31 - 1), QQ], ids=str)
def test_interpolate_recovers_a_polynomial_from_its_values(F):
    rng = Random(37)
    for d in range(0, 5):
        f = ptrim([F.random(rng) for _ in range(d + 1)])
        assert _interpolate(F, [peval(F, f, F.element(x)) for x in range(d + 1)]) == f


def test_pmat_det_reads_a_shared_linear_grid_without_changing_it():
    """The pencil minors are slices of one `_linear_grid`: each determinant must
    leave the untrimmed entries the next minor reads as they were, and the
    grid of A and B must be A + x*B (checked at x = t against a constant grid)."""
    from copy import deepcopy
    from itertools import combinations

    rng = Random(29)
    for F in (PrimeField(5), QQ):
        for _ in range(40):
            k, w = rng.randrange(1, 4), rng.randrange(1, 5)
            A, B = ([[F.random(rng) if rng.random() < 0.6 else F.zero for _ in range(w)]
                     for _ in range(k)] for _ in range(2))
            grid = _linear_grid(A, B)
            snapshot = deepcopy(grid)
            t = F.random(rng)
            r = min(k, w)
            for rows in combinations(range(k), r):
                for cols in combinations(range(w), r):
                    det = pmat_det(F, [[grid[i][a] for a in cols] for i in rows])
                    assert grid == snapshot
                    at_t = [[[F.add(A[i][a], F.mul(t, B[i][a]))] for a in cols] for i in rows]
                    assert ptrim([peval(F, det, t)]) == pmat_det(F, at_t)
