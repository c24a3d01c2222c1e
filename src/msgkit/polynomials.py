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
from math import gcd, lcm

from .fields import Field, PrimeField, RationalField, _Record, is_prime


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


# ---------------------------------------------------------------------------
# root extraction over the base field
# ---------------------------------------------------------------------------

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


def _zprimitive(a: list) -> list:
    """An integer polynomial divided by its content, the gcd of its coefficients."""
    c = gcd(*a)
    return [x // c for x in a]


def _zpseudo_divmod(a: list, b: list) -> tuple[list, list]:
    """(q, r) with lc(b)^e * a = q*b + r over Z and deg r < deg b, e = deg a - deg b + 1."""
    q, r = [0] * max(0, len(a) - len(b) + 1), list(a)
    for s in reversed(range(len(q))):
        c = r.pop()  # the top term of lc(b)*r - c*x^s*b cancels
        q = [b[-1] * x for x in q]
        q[s] += c
        r = [b[-1] * x for x in r]
        for j, y in enumerate(b[:-1]):
            r[s + j] -= c * y
    return q, ptrim(r)


def _zradical(f: list) -> list:
    """f / gcd(f, f') made primitive, for a nonzero integer f: the gcd g by the
    primitive PRS (Collins, J. ACM 14, 1967), the quotient of f by g exact over Z."""
    g, b = f, _zprimitive([i * c for i, c in enumerate(f)][1:])
    while b:
        g, b = b, _zprimitive(_zpseudo_divmod(g, b)[1])
    q, r = _zpseudo_divmod(f, g)
    if r:
        raise ArithmeticError("inexact integer polynomial division")
    return _zprimitive(q)


def _rational_roots(f: list) -> list:
    """Distinct rational roots of a nonzero f over Q, by q-adic lifting on integers
    (Loos, SIAM J. Comput. 12, 1983).

    Denominators are cleared once; a factor x^j gives the root 0, and `_zradical`
    turns the rest into a squarefree h with integer coefficients c_0..c_d, c_0 != 0.
    A root a/b in lowest terms has a | c_0 and b | c_d, so c_d*a/b is an integer of
    absolute value at most |c_0*c_d|.  The lift prime q is the first odd prime with
    q not dividing c_d at which every root of h mod q, found by evaluating h and h'
    at 0..q-1, is simple.  The rational roots reduce to some of these, and Newton's
    iteration lifts each uniquely to a modulus M > 2|c_0*c_d|, where the symmetric
    residue of c_d*r is c_d*a/b itself; a candidate a/b counts when
    sum c_i a^i b^(d-i) = 0.  The search ends: h is squarefree, so disc(h) != 0, and
    a skipped odd prime divides c_d*disc(h).  At most log2|c_d*disc(h)| primes are
    skipped, and a prime q costs q*(d+1) evaluations.
    """
    scale = lcm(*[c.denominator for c in f])
    h = [c.numerator * (scale // c.denominator) for c in f]
    roots = [Fraction(0)] if h[0] == 0 else []
    while h[0] == 0:
        h = h[1:]
    h = _zradical(h)
    if len(h) == 1:
        return roots

    def at(r, m):  # h(r) and h'(r) mod m by one Horner pass
        hr = dhr = 0
        for c in reversed(h):
            dhr = (dhr * r + hr) % m
            hr = (hr * r + c) % m
        return hr, dhr

    q = 1
    while True:
        q += 2
        if is_prime(q) and h[-1] % q:
            residues = [(r, d) for r in range(q) for v, d in [at(r, q)] if not v]
            if all(d for _, d in residues):
                break
    bound = 2 * abs(h[0] * h[-1])
    for r, _ in residues:
        m = q
        while m <= bound:
            m *= m
            hr, dhr = at(r, m)
            r = (r - hr * pow(dhr, -1, m)) % m
        s = h[-1] * r % m
        cand = Fraction(s - m if 2 * s > m else s, h[-1])
        a, b = cand.numerator, cand.denominator
        value, bk = 0, 1
        for c in reversed(h):  # sum c_i a^i b^(d-i), homogeneous Horner
            value, bk = value * a + c * bk, bk * b
        if value == 0:
            roots.append(cand)
    return sorted(roots)


def proots(F: Field, f: list) -> list:
    """Sorted distinct roots of f in the base field; f must be nonzero."""
    if not f:
        raise ValueError("root extraction of the zero polynomial")
    if isinstance(F, PrimeField):
        return _prime_roots(F, f)
    if isinstance(F, RationalField):
        return _rational_roots(f)
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
