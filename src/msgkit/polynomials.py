"""Exact univariate polynomials and homogeneous binary forms.

Univariate polynomials are plain coefficient lists, ``c[i]`` = coefficient
of x^i, with no trailing zeros (the zero polynomial is ``[]``); every
function takes the ground field explicitly.  A binary form (homogeneous in
two variables) carries the gcd of a pencil's minors, which
`tangent._pencil_minor_gcd` computes from the univariate minors and their
least degree deficit; its roots decide degeneracy over the algebraic closure
without ever constructing an extension field, because a nonconstant binary
form always has projective roots over the closure.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from ._integers import is_prime
from ._record import _Record
from .fields import Field, PrimeField, QQ, RationalField


# ---------------------------------------------------------------------------
# univariate arithmetic
# ---------------------------------------------------------------------------

def ptrim(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def pdeg(cs: list) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(cs) - 1


def padd(F: Field, a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = F.add(out[i], c)
    return ptrim(out)


def pneg(F: Field, a: list) -> list:
    return [F.neg(c) for c in a]


def psub(F: Field, a: list, b: list) -> list:
    return padd(F, a, pneg(F, b))


def pscale(F: Field, c, a: list) -> list:
    if not c:
        return []
    return ptrim([F.mul(c, x) for x in a])


def pmul(F: Field, a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = F.add(out[i + j], F.mul(x, y))
    return ptrim(out)


def pdivmod(F: Field, a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [F.zero] * max(0, len(a) - len(b) + 1)
    inv_lead = F.inv(b[-1])
    db = len(b) - 1
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if not c:
            continue
        f = F.mul(c, inv_lead)
        q[i - db] = f
        for j, y in enumerate(b):
            r[i - db + j] = F.sub(r[i - db + j], F.mul(f, y))
    return ptrim(q), ptrim(r)


def pmonic(F: Field, a: list) -> list:
    if not a or a[-1] == F.one:
        return list(a)
    return pscale(F, F.inv(a[-1]), a)


def pgcd(F: Field, a: list, b: list) -> list:
    """Monic gcd (Euclid); gcd(0, 0) = 0."""
    a, b = list(a), list(b)
    while b:
        a, b = b, pdivmod(F, a, b)[1]
    return pmonic(F, a)


def peval(F: Field, a: list, x):
    acc = F.zero
    for c in reversed(a):
        acc = F.add(F.mul(acc, x), c)
    return acc


def _interpolate(F: Field, ys: list) -> list:
    """The polynomial of degree < len(ys) through (x, ys[x]), x = 0, 1, ..., in Newton form."""
    c = list(ys)
    for k in range(1, len(c)):
        c[k:] = [F.div(F.sub(y, x), F.element(k)) for x, y in zip(c[k - 1:], c[k:])]
    poly = []
    for k in reversed(range(len(c))):  # poly * (x - k) + c[k]
        poly = padd(F, pmul(F, poly, [F.element(-k), F.one]), [c[k]])
    return poly


def ppowmod(F: Field, base: list, e: int, mod: list) -> list:
    """base^e mod `mod` by square-and-multiply."""
    result = [F.one]
    base = pdivmod(F, base, mod)[1]
    while e > 0:
        if e & 1:
            result = pdivmod(F, pmul(F, result, base), mod)[1]
        base = pdivmod(F, pmul(F, base, base), mod)[1]
        e >>= 1
    return result


def pderiv(F: Field, a: list) -> list:
    return ptrim([F.mul(F.element(i), a[i]) for i in range(1, len(a))])


def pradical_char0(F: Field, a: list) -> list:
    """Product of the distinct irreducible factors of a, characteristic 0 only.

    a / gcd(a, a') strips multiplicities exactly in char 0; over F_p it can
    drop factors whose multiplicity is divisible by p, so the prime-field
    root finder never uses this (gcd with x^p - x already isolates distinct
    roots there).
    """
    a = pmonic(F, a)
    if pdeg(a) <= 1:
        return a
    g = pgcd(F, a, pderiv(F, a))
    if pdeg(g) == 0:
        return a
    return pmonic(F, pdivmod(F, a, g)[0])


# ---------------------------------------------------------------------------
# root extraction over the base field
# ---------------------------------------------------------------------------

_FIRST_LIFT_PRIME = 10007  # rational roots are lifted from F_q, q >= this


def _prime_roots(F: PrimeField, f: list) -> list:
    """Distinct roots of f in F_p (equal-degree splitting into linears)."""
    p = F.p
    f = pmonic(F, f)
    roots = []
    if f and f[0] == 0:
        roots.append(0)
        while f[0] == 0:
            f = f[1:]
    if pdeg(f) == 0:
        return sorted(roots)
    # isolate the product of distinct linear factors: gcd(f, x^p - x)
    x = [0, 1]
    g = pgcd(F, f, psub(F, ppowmod(F, x, p, f), x))
    stack = [g]
    e = (p - 1) // 2
    while stack:
        h = stack.pop()
        d = pdeg(h)
        if d <= 0:
            continue
        if d == 1:
            roots.append(F.div(F.neg(h[0]), h[1]))
            continue
        # split on quadratic-residue character of shifted roots; a
        # separating shift always exists among 0..p-1
        for a in range(p):
            w = psub(F, ppowmod(F, [a, 1], e, h), [1])
            d1 = pgcd(F, h, w)
            if 0 < pdeg(d1) < d:
                stack.append(d1)
                stack.append(pdivmod(F, h, d1)[0])
                break
        else:  # pragma: no cover - unreachable for squarefree odd-p input
            raise ArithmeticError("equal-degree splitting failed")
    return sorted(roots)


def _rational_roots(f: list) -> list:
    """Distinct rational roots of a squarefree f over Q, by q-adic lifting.

    Clear denominators to integers c_0..c_d with c_0 != 0.  A root a/b in
    lowest terms has a | c_0 and b | c_d, so c_d*a/b is an integer of
    absolute value at most |c_0*c_d|.  Modulo a prime q dividing neither
    c_d nor the discriminant it reduces to a simple root of f mod q, which
    Newton's iteration lifts uniquely to a modulus M > 2|c_0*c_d|; there
    the symmetric residue of c_d*r is c_d*a/b itself.  Lifts that come
    from no rational root fail the exact evaluation.
    """
    roots = []
    if f[0] == 0:
        roots.append(Fraction(0))
        f = f[1:]
    scale = lcm(*[c.denominator for c in f])
    ints = [int(c * scale) for c in f]
    q = _FIRST_LIFT_PRIME
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
            for c in reversed(ints):  # f(r) and f'(r) by one Horner pass
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


def proots(F: Field, f: list) -> list:
    """Sorted distinct roots of f in the base field; f must be nonzero."""
    if not f:
        raise ValueError("root extraction of the zero polynomial")
    if isinstance(F, PrimeField):
        return _prime_roots(F, f)
    if isinstance(F, RationalField):
        return _rational_roots(pradical_char0(F, f))
    raise TypeError(f"unsupported field {F!r}")


# ---------------------------------------------------------------------------
# binary forms
# ---------------------------------------------------------------------------

class BinaryForm(_Record):
    """Homogeneous polynomial in (u, v); coeffs[i] multiplies u^i v^(degree-i).

    The zero form is degree 0 with the single coefficient 0.  Setting v=1
    identifies a degree-d form with a univariate polynomial of degree <= d;
    the degree deficit records the multiplicity of v as a factor, so the
    correspondence loses nothing (roots "at infinity" are the v-factors).
    """

    __slots__ = ("field", "degree", "coeffs")

    def __init__(self, field: Field, degree: int, coeffs):
        coeffs = tuple(field.element(c) for c in coeffs)
        if len(coeffs) != degree + 1:
            raise ValueError("need degree+1 coefficients")
        if degree > 0 and not any(coeffs):
            raise ValueError("zero form must be written with degree 0")
        self.field = field
        self.degree = degree
        self.coeffs = coeffs

    @classmethod
    def zero(cls, field: Field) -> "BinaryForm":
        return cls(field, 0, [field.zero])

    @classmethod
    def from_univariate(cls, field: Field, uni: list, degree: int) -> "BinaryForm":
        """Homogenize a univariate in u to total degree `degree` using v-powers."""
        if pdeg(uni) > degree:
            raise ValueError("univariate degree exceeds target degree")
        if not uni:
            return cls.zero(field)
        coeffs = list(uni) + [field.zero] * (degree - pdeg(uni))
        return cls(field, degree, coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_constant(self) -> bool:
        return self.degree == 0

    def univariate(self) -> list:
        """Coefficients after setting v = 1."""
        return ptrim(list(self.coeffs))

    def v_multiplicity(self) -> int:
        """Multiplicity of v as a factor (degree deficit of the dehomogenization)."""
        if self.is_zero():
            raise ValueError("zero form has no v-multiplicity")
        return self.degree - pdeg(self.univariate())

    def __repr__(self) -> str:
        if self.is_zero():
            return "BinaryForm(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            j = self.degree - i
            mono = "".join(filter(None, [f"u^{i}" if i else "", f"v^{j}" if j else ""]))
            terms.append(f"{c}*{mono}" if mono else f"{c}")
        return "BinaryForm(" + " + ".join(terms) + ")"


def binary_form_roots(form: BinaryForm) -> list:
    """Projective roots of a nonzero form in the base field.

    Each root is scaled so its first nonzero coordinate is 1; the root at
    infinity (1, 0) appears iff v divides the form.  Sorted with (0, 1)
    first, then finite slopes ascending, then (1, 0).
    """
    if form.is_zero():
        raise ValueError("every point is a root of the zero form")
    F = form.field
    out = []
    for r in proots(F, form.univariate()):
        if r == F.zero:
            out.append((F.zero, F.one))
        else:
            out.append((F.one, F.inv(r)))  # (r, 1) scaled by 1/r
    out.sort(key=lambda t: (t[0] != F.zero, t[1]))
    if form.v_multiplicity() > 0:
        out.append((F.one, F.zero))
    return out


# ---------------------------------------------------------------------------
# determinants of polynomial matrices (fraction-free)
# ---------------------------------------------------------------------------

def _linear_grid(A, B) -> list:
    """The grid of linear entries [a, b] = a + b*x of A + x*B, two equal-shape row lists.

    Entries are left untrimmed; `pmat_det` trims its own copies, so one grid
    can be sliced into many minors.
    """
    return [[[a, b] for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def pmat_det(F: Field, grid: list) -> list:
    """Determinant of a square matrix of univariate polynomials.

    Bareiss one-step elimination: every division is exact in F[x], so the
    entries stay polynomials throughout.  Row swaps flip the sign.  The
    input grid is not modified.
    """
    n = len(grid)
    if any(len(row) != n for row in grid):
        raise ValueError("matrix must be square")
    if n == 0:
        return [F.one]
    a = [[ptrim(list(e)) for e in row] for row in grid]
    sign = 1
    prev = [F.one]
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return []
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = psub(F, pmul(F, a[k][k], a[i][j]), pmul(F, a[i][k], a[k][j]))
                if k:  # the first step divides by prev = 1
                    num, rem = pdivmod(F, num, prev)
                    if rem:  # pragma: no cover - Sylvester identity guarantees exactness
                        raise ArithmeticError("inexact Bareiss division")
                a[i][j] = num
            a[i][k] = []
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det if sign == 1 else pneg(F, det)
