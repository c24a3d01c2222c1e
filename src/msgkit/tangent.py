"""Tangent spaces of multiply symplectic Grassmannians at isotropic points.

Fixing a working basis v_1..v_k of V and a complement w_1..w_{n-k}, a
tangent vector of the ambient Grassmannian is a k x (n-k) coordinate grid
for f in Hom(V, E/V), and membership in the tangent space of the isotropic
locus imposes, per form t and per pair i < j, the linear condition

    sum_a f[j][a] <v_i, w_a>_t  -  sum_a f[i][a] <v_j, w_a>_t  =  0.

Stacking these rows (t outer, pairs (i, j) lexicographic) gives the
constraint system; its rank drop below m*C(k,2) is carried by kernel
elements, which live in Lambda^2(V) tensor the span of the forms and are
stored here as one alternating k x k coefficient matrix per form.

For a pencil of two forms, degeneracy -- a nonzero combination whose
pairing kills some 2-plane of V against E/V -- is decided over the
algebraic closure through the gcd of the (k-1)-minors of the
lambda-linear restriction matrix: rank(R(lambda)) <= k-2 exactly where
all those minors vanish, and a nonconstant gcd certifies such a lambda
exists over the closure whether or not the base field contains one.
At k <= 3 cheaper settle tests run first, in `_pencil_degeneracy`.
"""

from __future__ import annotations

from itertools import combinations
from math import prod
from random import Random

from .fields import Field, _Record
from .matrices import Matrix, _alternating, _pfaffian, _skew_rank
from .polynomials import (BinaryForm, _linear_grid, binary_form_roots, pdeg, pgcd, pmat_det,
                          proots, ptrim)
from .symplectic import (
    FormSpace,
    Subspace,
    _isotropic_points,
    _non_pivot_columns,
    _point_products,
    _require_isotropic_dim,
    derive_seed,
    random_independent_pair,
    random_isotropic_subspace,
)

__all__ = [
    "PointContext",
    "PhiKernelElement",
    "PencilDegeneracy",
    "TangentReport",
    "EigenspaceReport",
    "MismatchRecord",
    "VerifyReport",
    "msg_expected_dim",
    "default_complement",
    "build_constraints",
    "tangent_report",
    "j_V",
    "decode_kernel_element",
    "find_degenerate_pencil",
    "check_even_eigenspaces",
    "verify_pair",
    "verify_thm_equivalence",
]


def msg_expected_dim(n: int, k: int, m: int) -> int:
    """k(n-k) - m*C(k,2); may be negative, returned as-is."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    return k * (n - k) - m * (k * (k - 1) // 2)


def _unit_restrictions(V: Subspace, products) -> list:
    """Each form's B G_t at the non-pivot columns of V: R_t for `default_complement`."""
    free = _non_pivot_columns(V.n, V.pivots)
    return [[[row[j] for j in free] for row in BG] for BG in products]


def default_complement(V: Subspace) -> Matrix:
    """Identity rows at the non-pivot columns of the RREF basis."""
    F = V.field
    return Matrix(F, V.n - V.k, V.n, [[F.one if c == j else F.zero for c in range(V.n)]
                                      for j in _non_pivot_columns(V.n, V.pivots)], _trusted=True)


class PointContext:
    """A point [V] of the isotropic locus plus the coordinates used to study it.

    `basis` is the working basis of V (defaults to the canonical RREF rows;
    pass any other row basis of the same subspace to change coordinates),
    and `complement` completes it to a basis of the ambient space.  All
    reported dimensions are provably independent of both choices; kernel
    coordinates are not, which is why the choices are recorded here.
    `restrictions` holds R_t = (B G_t) C^T, one per form, for the working basis
    B.  B G_t is formed for every form in one product and shared:
    `_point_products` scans (B G_t) B^T for the isotropy check, so a failure
    names a pairing of the working basis.  Only a complement the caller passes
    is rank-checked against the basis: the default one holds the unit rows at
    the non-pivot columns, which complete any basis of V.
    """

    __slots__ = ("subspace", "forms", "basis", "complement", "restrictions")

    def __init__(
        self,
        subspace: Subspace,
        forms: FormSpace,
        complement: Matrix | None = None,
        basis: Matrix | None = None,
    ):
        if subspace.n != forms.dim:
            raise ValueError(
                f"subspace lives in n={subspace.n} but forms act on n={forms.dim}")
        field = subspace.field
        field.require_same(forms.field)
        if basis is None:
            basis = subspace.basis
        else:
            if basis.shape != subspace.basis.shape:
                raise ValueError("working basis has the wrong shape")
            if Subspace.from_span(basis) != subspace:
                raise ValueError("working basis does not span the subspace")
        products, failure = _point_products(forms, basis.rows)
        if failure is not None:
            t, i, j, val = failure
            raise ValueError(
                f"subspace is not isotropic for form {t}: <v_{i + 1}, v_{j + 1}> = {val}")
        if complement is None:
            complement = default_complement(subspace)
        else:
            field.require_same(complement.field)
            if complement.shape != (subspace.n - subspace.k, subspace.n):
                raise ValueError("complement has the wrong shape")
            if field.rank(basis.rows + complement.rows) != subspace.n:
                raise ValueError("basis plus complement do not span the ambient space")
        ct = complement.transpose().rows
        restrictions = [field.matmul(BG, ct) for BG in products]
        self.subspace = subspace
        self.forms = forms
        self.basis = basis
        self.complement = complement
        self.restrictions = tuple(Matrix(field, subspace.k, subspace.n - subspace.k, R,
                                         _trusted=True) for R in restrictions)

    @property
    def n(self) -> int:
        return self.subspace.n

    @property
    def k(self) -> int:
        return self.subspace.k

    @property
    def m(self) -> int:
        return self.forms.m

    @property
    def field(self) -> Field:
        return self.subspace.field

    def expected_dim(self) -> int:
        return msg_expected_dim(self.n, self.k, self.m)


# ---------------------------------------------------------------------------
# constraint assembly
# ---------------------------------------------------------------------------

def _constraint_rows(field: Field, k: int, nk: int, restrictions) -> list[list]:
    """The rows of `build_constraints` from each form's k restriction rows."""
    rows = []
    for R in restrictions:
        minus = [[field.neg(x) for x in r] for r in R]
        for (i, j) in combinations(range(k), 2):
            row = [field.zero] * (k * nk)
            row[j * nk:(j + 1) * nk] = R[i]
            row[i * nk:(i + 1) * nk] = minus[j]
            rows.append(row)
    return rows


def build_constraints(ctx: PointContext) -> Matrix:
    """The m*C(k,2) x k(n-k) system whose null space is the tangent space.

    Row order: form index outer, pairs (i, j) with i < j lexicographic.
    Column order: the Hom(V, E/V) grid f[i][a] flattened as i*(n-k) + a.
    """
    rows = _constraint_rows(ctx.field, ctx.k, ctx.n - ctx.k, [R.rows for R in ctx.restrictions])
    return Matrix(ctx.field, len(rows), ctx.k * (ctx.n - ctx.k), rows, _trusted=True)


def _resultant2(a, b):
    """Res of binary quadratics at formal degree 2: nonzero iff both are nonzero
    forms with no common root in P^1 over the algebraic closure, (1:0) included."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    return (a0 * b2 - a2 * b0) ** 2 - (a0 * b1 - a1 * b0) * (a1 * b2 - a2 * b1)


def _coprime_quadratic_minors(field: Field, R1, R2) -> bool:
    """True when the first nonzero 2x2 minor of u*R1 + v*R2 (three rows each) has a
    nonzero resultant with a later one, so the minors' gcd is 1; False settles
    nothing.  Python operators lift F_p exactly to Z; `field` reduces the results."""
    minors = ((A[a] * B[b] - A[b] * B[a], A[a] * D[b] + C[a] * B[b] - A[b] * D[a] - C[b] * B[a],
               C[a] * D[b] - C[b] * D[a])
              for A, B, C, D in ((R1[i], R1[j], R2[i], R2[j])
                                 for i, j in combinations(range(3), 2))
              for a, b in combinations(range(len(A)), 2))
    first = next((q for q in minors if any(map(field.element, q))), None)
    return first is not None and any(field.element(_resultant2(first, q)) for q in minors)


# ---------------------------------------------------------------------------
# kernel elements
# ---------------------------------------------------------------------------

class PhiKernelElement(_Record):
    """A relation among the constraint rows, i.e. an element of ker Phi.

    Stored as one alternating k x k matrix per form; entry [i][j] with
    i < j is the coefficient of (v_i wedge v_j) tensor <,>_t.
    """

    __slots__ = ("matrices",)

    def __init__(self, matrices):
        matrices = tuple(matrices)
        if not matrices:
            raise ValueError("need one coefficient matrix per form")
        for M in matrices:
            if not M.is_alternating():
                raise ValueError("coefficient matrices must be alternating")
        if all(M.is_zero() for M in matrices):
            raise ValueError("kernel element must be nonzero")
        self.matrices = matrices

    @classmethod
    def from_flat(cls, field: Field, k: int, m: int, flat) -> "PhiKernelElement":
        """Unflatten a left-kernel vector laid out in constraint-row order.

        `flat` holds canonical scalars of `field`, as a kernel basis row does;
        the alternating and nonzero checks still run.
        """
        pairs = list(combinations(range(k), 2))
        mats = []
        for t in range(m):
            rows = [[field.zero] * k for _ in range(k)]
            for idx, (i, j) in enumerate(pairs):
                rows[i][j] = c = flat[t * len(pairs) + idx]
                rows[j][i] = field.neg(c)
            mats.append(Matrix(field, k, k, rows, _trusted=True))
        return cls(mats)

    @property
    def k(self) -> int:
        return self.matrices[0].nrows

    @property
    def m(self) -> int:
        return len(self.matrices)

    def encode(self) -> list:
        return [M.encode() for M in self.matrices]

    def __repr__(self) -> str:
        return f"PhiKernelElement(k={self.k}, m={self.m})"


def j_V(ctx: PointContext, elem: Matrix) -> tuple:
    """Pair an element of V tensor Omega against the complement basis.

    `elem` is a k x m coordinate matrix, entry [i][t] multiplying
    v_i tensor <,>_t; the result is the induced functional on E/V,
    evaluated on w_1..w_{n-k}.
    """
    if elem.shape != (ctx.k, ctx.m):
        raise ValueError(f"element must be {ctx.k}x{ctx.m}, got {elem.shape}")
    ctx.field.require_same(elem.field)
    F = ctx.field
    out = [F.zero] * (ctx.n - ctx.k)
    for t, R in enumerate(ctx.restrictions):
        for i, Ri in enumerate(R.rows):
            c = elem.entry(i, t)
            if c:
                out = [F.add(x, F.mul(c, y)) for x, y in zip(out, Ri)]
    return tuple(out)


def decode_kernel_element(
    ctx: PointContext, kelem: PhiKernelElement
) -> tuple[list[Matrix], bool]:
    """The k generators of the subspace W attached to a kernel element.

    Generator j collects, for each form t, minus the j-th column of the
    coefficient matrix as coordinates along v_1..v_k; for genuine kernel
    elements every generator is annihilated by j_V, and the returned flag
    reports whether that held.
    """
    if kelem.k != ctx.k or kelem.m != ctx.m:
        raise ValueError("kernel element shape does not match the context")
    F = ctx.field
    zero = tuple(F.zero for _ in range(ctx.n - ctx.k))
    generators = [Matrix(F, ctx.k, ctx.m, [[F.neg(M.entry(i, j)) for M in kelem.matrices]
                                           for i in range(ctx.k)], _trusted=True)
                  for j in range(ctx.k)]
    return generators, all(j_V(ctx, gen) == zero for gen in generators)


# ---------------------------------------------------------------------------
# pencil degeneracy
# ---------------------------------------------------------------------------

class PencilDegeneracy(_Record):
    """Evidence that some nonzero combination in the pencil is degenerate.

    `certificate` is the gcd of the (k-1)-minors of R(lambda): nonconstant
    when degeneracy happens at finitely many pencil points, and the zero
    form when every point of the pencil is degenerate (possible only for
    inputs that are not honest symplectic point contexts).  `witnesses`
    lists the base-field pencil points, scaled so the first nonzero
    coordinate is 1, each with the 2-or-more dimensional subspace V' of V
    it kills; extension-field-only degeneracy leaves the list empty.
    """

    __slots__ = ("certificate", "witnesses")

    def __init__(self, certificate: BinaryForm, witnesses: tuple = ()):
        self.certificate = certificate
        self.witnesses = witnesses

    @property
    def identically_degenerate(self) -> bool:
        return self.certificate.is_zero()

    def encode(self) -> dict:
        enc = self.certificate.field.encode
        return {
            "certificate": {
                "degree": self.certificate.degree,
                "coefficients": [enc(c) for c in self.certificate.coeffs],
            },
            "identically_degenerate": self.identically_degenerate,
            "witnesses": [
                {"lambda": [enc(l1), enc(l2)], "subspace": W.basis.encode()}
                for (l1, l2), W in self.witnesses
            ],
        }


def _pencil_minor_gcd(F: Field, R1, R2) -> BinaryForm:
    """Gcd of the (k-1)x(k-1) minors of u*R1 + v*R2 as binary forms, from the k
    canonical rows of each restriction.

    Each minor is a univariate at v = 1 of formal degree k-1; its degree deficit
    is the multiplicity of v, so the gcd is the univariate gcd g homogenized with
    the least deficit v.  Reading stops once g = 1 and v = 0, which no further
    minor can change.  Zero form when the minors all vanish identically or do
    not exist (fewer than k-1 columns): rank <= k-2 at every pencil point; at
    k <= 1 the one minor is the 0x0 one, the empty determinant 1.
    """
    k, w = len(R1), len(R1[0]) if R1 else 0
    d = max(k - 1, 0)
    grid = _linear_grid(R2, R1)  # u*R1 + v*R2 at v = 1
    g, v = [], d + 1  # v exceeds every deficit until a nonzero minor is read
    for rows in combinations(range(k), d):
        for cols in combinations(range(w), d):
            minor = pmat_det(F, [[grid[i][a] for a in cols] for i in rows])
            if minor:
                g = pgcd(F, g, minor)
                v = min(v, d - pdeg(minor))
                if pdeg(g) == 0 and v == 0:
                    return BinaryForm(F, 0, [F.one])
    return BinaryForm.from_univariate(F, g, pdeg(g) + v)


def find_degenerate_pencil(ctx: PointContext) -> PencilDegeneracy | None:
    """Decide whether the pencil of the two forms (m = 2) contains a degenerate
    combination; for a sub-pencil of a larger form space, pass the point with
    the two-form FormSpace.  Returns None exactly when no nonzero combination,
    over the algebraic closure, kills some 2-dimensional subspace of V against
    E/V.  The zero combination is excluded: pencil points are projective.
    """
    if ctx.m != 2:
        raise ValueError(f"pencil degeneracy needs m = 2 (got m = {ctx.m});"
                         " for a sub-pencil, pass the point with a two-form FormSpace")
    return _pencil_degeneracy(ctx.field, *(R.rows for R in ctx.restrictions), ctx.basis.rows)


def _pencil_degeneracy(F: Field, R1, R2, basis) -> PencilDegeneracy | None:
    """`find_degenerate_pencil` on the canonical rows R1, R2 of the two forms'
    restrictions to the rows of `basis`, which the witnesses are read in.  None at
    once at k <= 1, at k = 2 iff [vec R1; vec R2] has rank 2 (1x1 minors of gcd 1),
    and at k = 3 when two 2x2 minors have a nonzero resultant; else the minors decide."""
    k = len(R1)
    if k <= 1 or (k == 2 and F.rank([R1[0] + R1[1], R2[0] + R2[1]]) == 2) or (
            k == 3 and _coprime_quadratic_minors(F, R1, R2)):
        return None
    gcd = _pencil_minor_gcd(F, R1, R2)
    if gcd.is_constant() and not gcd.is_zero():
        return None
    if gcd.is_zero():
        # every pencil point degenerates; report the two basis points
        points = [(F.one, F.zero), (F.zero, F.one)]
    else:
        points = binary_form_roots(gcd)
    witnesses = []
    for (l1, l2) in points:
        R = [[F.add(F.mul(l1, x), F.mul(l2, y)) for x, y in zip(r1, r2)]
             for r1, r2 in zip(R1, R2)]
        coords = F.kernel(*F.rref(list(zip(*R))), k)  # the left kernel of R
        if len(coords) < 2:  # pragma: no cover - contradicts the minor gcd
            raise ArithmeticError("pencil witness lost rank two")
        W = Subspace.from_span(Matrix(F, len(coords), len(basis[0]), F.matmul(coords, basis),
                                      _trusted=True))
        witnesses.append(((l1, l2), W))
    return PencilDegeneracy(certificate=gcd, witnesses=tuple(witnesses))


# ---------------------------------------------------------------------------
# tangent report
# ---------------------------------------------------------------------------

class TangentReport(_Record):
    __slots__ = ("n", "k", "m", "expected_dim", "tangent_dim", "phi_rank", "phi_kernel",
                 "degeneracy")

    def __init__(self, n: int, k: int, m: int, expected_dim: int, tangent_dim: int,
                 phi_rank: int, phi_kernel: list[PhiKernelElement] | None = None,
                 degeneracy: PencilDegeneracy | None = None):
        self.n = n
        self.k = k
        self.m = m
        self.expected_dim = expected_dim
        self.tangent_dim = tangent_dim
        self.phi_rank = phi_rank
        self.phi_kernel = [] if phi_kernel is None else phi_kernel
        self.degeneracy = degeneracy

    def excess(self) -> int:
        return self.tangent_dim - self.expected_dim

    def encode(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "m": self.m,
            "expected_dim": self.expected_dim,
            "tangent_dim": self.tangent_dim,
            "phi_rank": self.phi_rank,
            "phi_kernel": [e.encode() for e in self.phi_kernel],
            "degenerate": (self.degeneracy is not None) if self.m == 2 else None,
            "degeneracy": self.degeneracy.encode() if self.degeneracy else None,
        }


def tangent_report(ctx: PointContext) -> TangentReport:
    """Dimension of the tangent space at [V], with kernel and pencil evidence.

    tangent_dim = k(n-k) - rank(constraints) always; for m = 2 the pencil
    degeneracy check runs as well and its witnesses are attached.
    """
    F = ctx.field
    rows = _constraint_rows(F, ctx.k, ctx.n - ctx.k, [R.rows for R in ctx.restrictions])
    # one RREF of the transpose: its pivots count rank A^T = rank A, and its kernel
    # is the left kernel of A, so the kernel has m*C(k,2) - rank elements
    echelon, pivots = F.rref(list(zip(*rows)))
    rank = len(pivots)
    kernel = [PhiKernelElement.from_flat(F, ctx.k, ctx.m, row)
              for row in F.kernel(echelon, pivots, len(rows))]
    degeneracy = find_degenerate_pencil(ctx) if ctx.m == 2 else None
    return TangentReport(
        n=ctx.n,
        k=ctx.k,
        m=ctx.m,
        expected_dim=ctx.expected_dim(),
        tangent_dim=ctx.k * (ctx.n - ctx.k) - rank,
        phi_rank=rank,
        phi_kernel=kernel,
        degeneracy=degeneracy,
    )


# ---------------------------------------------------------------------------
# even eigenspaces of alternating pencils
# ---------------------------------------------------------------------------

class EigenspaceReport(_Record):
    __slots__ = ("eigenvalues_in_field", "nullities", "all_even")

    def __init__(self, eigenvalues_in_field: tuple, nullities: tuple, all_even: bool):
        self.eigenvalues_in_field = eigenvalues_in_field
        self.nullities = nullities
        self.all_even = all_even


def _pencil_pfaffian(M1: Matrix, M2: Matrix) -> tuple:
    """Pf(x*M1 - M2), of degree <= n/2, and p with the rows A1, A2 of the field's lift
    of M1 and M2 on one D: Pf(x*M1 - M2) is Pf(x*A1 - A2) / prod(D).  The integer polynomial
    Pf(x*A1 - A2) is interpolated over Z from x = 0, 1, ..., n/2 in Newton form, whose
    coefficients Delta^k Pf(0) / k! are integers, and mapped into the field once."""
    F, n = M1.field, M1.nrows
    p, D, A1, A2 = F.lift(M1.rows, M2.rows)
    if not (_alternating(A1) and _alternating(A2)):
        raise ValueError("both matrices must be alternating")
    c = [_pfaffian([[x * u - v for u, v in zip(r1, r2)] for r1, r2 in zip(A1, A2)])
         for x in range(n // 2 + 1)]
    for k in range(1, len(c)):  # divided differences, exact over Z
        c[k:] = [(y - x) // k for x, y in zip(c[k - 1:], c[k:])]
    pf = []
    for k in reversed(range(len(c))):  # pf * (x - k) + c[k]
        pf = [a - k * b for a, b in zip([0] + pf, pf + [0])]
        pf[0] += c[k]
    return ptrim(F.quotients(pf, 1, prod(D))), p, A1, A2


def check_even_eigenspaces(M1: Matrix, M2: Matrix) -> EigenspaceReport:
    """Nullity parity of d*I - M2*M1^{-1} at every base-field eigenvalue d.

    det(x*M1 - M2) = det(M1) * det(x*I - M2*M1^{-1}) is Pf(x*M1 - M2)^2, so
    the eigenvalues are the roots of `_pencil_pfaffian` (Bunch 1982, on integer
    lifts).  Its leading coefficient is Pf(M1) and its constant term
    (-1)^(n/2) Pf(M2): both matrices are nonsingular when neither is 0.
    d*I - M2*M1^{-1} = (d*M1 - M2)*M1^{-1} has the nullity of d*M1 - M2, n minus
    the skew rank of u*A1 - v*A2 on that lift (mod p over F_p), d = u/v (u = d,
    v = 1 for an int residue): the parity claim this reports on.  No inverse is
    formed, and nothing is lifted twice.
    """
    M1.field.require_same(M2.field)
    if M1.shape != M2.shape or not M1.is_square():
        raise ValueError("need two square matrices of equal size")
    if M1.nrows % 2:
        raise ValueError("size must be even")
    n, F = M1.nrows, M1.field
    pf, p, A1, A2 = _pencil_pfaffian(M1, M2)
    if len(pf) != n // 2 + 1 or not pf[0]:
        raise ValueError("both matrices must be nonsingular")
    eigenvalues = proots(F, pf)
    nullities = [n - _skew_rank(p, [[d.numerator * x - d.denominator * y for x, y in zip(r1, r2)]
                                    for r1, r2 in zip(A1, A2)]) for d in eigenvalues]
    return EigenspaceReport(tuple(eigenvalues), tuple(nullities),
                            all(nu % 2 == 0 for nu in nullities))


# ---------------------------------------------------------------------------
# exhaustive equivalence verification
# ---------------------------------------------------------------------------

class MismatchRecord(_Record):
    __slots__ = ("subspace", "tangent_dim", "expected_dim", "degeneracy")

    def __init__(self, subspace: Subspace, tangent_dim: int, expected_dim: int,
                 degeneracy: PencilDegeneracy | None):
        self.subspace = subspace
        self.tangent_dim = tangent_dim
        self.expected_dim = expected_dim
        self.degeneracy = degeneracy

    def encode(self) -> dict:
        return {
            "subspace": self.subspace.basis.encode(),
            "tangent_dim": self.tangent_dim,
            "expected_dim": self.expected_dim,
            "degenerate": self.degeneracy is not None,
            "degeneracy": self.degeneracy.encode() if self.degeneracy else None,
        }


class VerifyReport(_Record):
    __slots__ = ("pair_points", "mismatches")

    def __init__(self, pair_points: list[int], mismatches: list):
        self.pair_points = pair_points  # points checked per pair, in pair order
        self.mismatches = mismatches  # (pair_index, FormSpace, MismatchRecord)

    @property
    def pairs_checked(self) -> int:
        return len(self.pair_points)

    @property
    def points_checked(self) -> int:
        return sum(self.pair_points)


def _seeded_pencil(n: int, field: Field, seed: int, index: int) -> FormSpace:
    """Pencil `index` of a seeded run, drawn from the derived seed (seed, index)."""
    return random_independent_pair(n, field, Random(derive_seed(seed, index)))


def _require_fault_row(k: int, fault: bool) -> None:
    """Refuse `fault` at k < 2, where there is no constraint row to corrupt."""
    if fault and k < 2:
        raise ValueError(f"fault injection needs k >= 2, got k={k}:"
                         " there is no constraint row to corrupt")


def verify_pair(
    fs: FormSpace,
    k: int,
    scope: str = "exhaustive",
    rng: Random | None = None,
    samples: int = 100,
    fault: bool = False,
) -> tuple[int, list[MismatchRecord]]:
    """Check the equivalence over every point for one pencil of forms.

    k outside 1..n/2 is refused, as the sampler refuses it: the check would be
    vacuous there (k = 0 has just the zero subspace, k > n/2 has no point).
    Exhaustive scope enumerates all simultaneously isotropic k-subspaces
    (prime fields only; the budget, MSGKIT_BUDGET read at the call, applies);
    sampled scope draws `samples` greedy random points over any field and
    skips stalls.  At each point the dimension side (expected tangent
    dimension) must agree with the pencil side (no degenerate combination).

    `fault` zeroes the first constraint row before the rank computation; a
    self-test hook that must produce mismatches if the harness is alive.
    (Negating a row would be invisible: row scaling never changes rank.)
    It needs k >= 2: at k = 1 there is no constraint row to corrupt.
    """
    if fs.m != 2:
        raise ValueError("equivalence verification needs pencils (m = 2)")
    _require_fault_row(k, fault)
    field, n = fs.field, fs.dim
    _require_isotropic_dim(n, k)
    if scope == "exhaustive":
        records = _isotropic_points(k, fs)
    elif scope == "sampled":
        if rng is None:
            raise ValueError("sampled scope needs an rng")
        if samples < 1:
            raise ValueError(f"sampled scope needs samples >= 1, got {samples}")
        records = _sampled_points(k, fs, rng, samples)
    else:
        raise ValueError(f"unknown scope {scope!r}")
    independent = fs.m * (k * (k - 1) // 2)  # constraint rows: the expected dimension's rank
    points, mismatches = 0, []
    for pivots, rows, restrictions in records:
        # the rank and the pencil decision are taken apart: `fault` corrupts the rank
        points += 1
        constraints = _constraint_rows(field, k, n - k, restrictions)
        if fault:
            constraints[0] = [field.zero] * (k * (n - k))
        rank = field.rank(constraints)
        degeneracy = _pencil_degeneracy(field, *restrictions, rows)
        if (rank == independent) != (degeneracy is None):
            V = Subspace(Matrix(field, k, n, rows, _trusted=True), _pivots=pivots)
            mismatches.append(MismatchRecord(V, k * (n - k) - rank,
                                             k * (n - k) - independent, degeneracy))
    return points, mismatches


def _sampled_points(k: int, fs: FormSpace, rng: Random, samples: int):
    """`samples` greedy draws as (pivots, RREF rows, restriction rows) records, stalls
    skipped.  B G_t is formed for every form by `_point_products` in one product, with
    the pencil's packing that the first draw made; its isotropy scan must find nothing,
    and its non-pivot columns are the default complement's R_t."""
    for _ in range(samples):
        V = random_isotropic_subspace(k, fs, rng)
        if V is not None:
            products, failure = _point_products(fs, V.basis.rows)
            if failure is not None:
                raise ArithmeticError("a sampled point is not isotropic")
            yield V.pivots, V.basis.rows, _unit_restrictions(V, products)


def _verify_seeded_pair(n: int, k: int, field: Field, seed: int, index: int, **options):
    """Pair `index` of a seeded run: `verify_pair` over the pencil drawn from the
    derived seed (seed, index), with points sampled from a stream apart from the
    pencil's.  Returns (fs, points, mismatches)."""
    fs = _seeded_pencil(n, field, seed, index)
    rng = Random(derive_seed(seed, index) ^ 0xA5A5A5A5)
    return (fs, *verify_pair(fs, k, rng=rng, **options))


def _verify_report(results, scope: str, samples: int) -> VerifyReport:
    """The one verify fold, for the library and the CLI: the (fs, points, mismatches)
    of `_verify_seeded_pair` for pairs 0, 1, ... in order.  A sampled run that checked
    no point is refused: its verdict would be vacuous."""
    report = VerifyReport(pair_points=[], mismatches=[])
    for idx, (fs, points, mismatches) in enumerate(results):
        report.pair_points.append(points)
        report.mismatches.extend((idx, fs, rec) for rec in mismatches)
    if scope == "sampled" and not any(report.pair_points):
        raise ValueError(f"sampled verify checked no point: all {samples} greedy draws of"
                         f" each of the {report.pairs_checked} pairs stalled")
    return report


def verify_thm_equivalence(
    n: int,
    k: int,
    field: Field,
    pairs: int,
    scope: str = "exhaustive",
    seed: int = 0,
    samples_per_pair: int = 100,
    fault: bool = False,
) -> VerifyReport:
    """Brute-force the equivalence 'expected tangent dimension iff no
    degenerate pencil combination' over many pencils.

    `pairs` is the count of random independent pencils; pair i is drawn from
    the derived seed (seed, i), so partitioned parallel runs reproduce the
    same pencils.  A given pencil is checked by `verify_pair(fs, k, ...)`.
    Runs that would pass vacuously raise ValueError: no pairs, k outside
    1..n/2, sampled scope with `samples_per_pair` < 1, or a sampled run whose
    every greedy draw stalls.
    """
    if pairs < 1:
        raise ValueError("verification needs at least one pair")
    return _verify_report((_verify_seeded_pair(n, k, field, seed, idx, scope=scope,
                                               samples=samples_per_pair, fault=fault)
                           for idx in range(pairs)), scope, samples_per_pair)
