"""Symplectic forms, simultaneously isotropic subspaces, and their enumeration.

A FormSpace is an ordered, linearly independent list of symplectic (Gram)
matrices spanning a space of alternating forms; subspaces are canonicalized
to reduced row echelon form so that equality, hashing, and exhaustive
de-duplication are structural.

Enumeration of k-subspaces of F_q^n walks echelon pivot patterns and fills
the free entries, which visits every subspace exactly once.  Isotropic
enumeration walks the same patterns but solves for the points row by row:
each row's free entries must satisfy a linear system (orthogonality to the
earlier rows under every form), so only isotropic subspaces are built.
Both refuse oversized requests up front with the same budget (env var
MSGKIT_BUDGET, default 10^7), which counts all C(n, k)_q subspaces, the
Gaussian binomial coefficient.
"""

from __future__ import annotations

import itertools
import os
from operator import mul
from random import Random

from .fields import Field, PrimeField, _Record, field_from_spec
from .matrices import Matrix, SingularMatrixError, canonical_alternating, random_invertible

DEFAULT_BUDGET = 10**7
_RETRIES = 64  # random draws per sampler step before the kernel sweep, or at a stall

_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, index: int) -> int:
    """Fixed splitmix64-style child seed; keeps parallel streams reproducible."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class BudgetExceeded(RuntimeError):
    """An enumeration would visit more subspaces than the configured budget."""


def enumeration_budget() -> int:
    raw = os.environ.get("MSGKIT_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"MSGKIT_BUDGET must be an integer: {raw!r}") from exc
    if value <= 0:
        raise ValueError("MSGKIT_BUDGET must be positive")
    return value


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    if num % den:
        raise ArithmeticError(f"Gaussian binomial ({n} {k})_{q} is not an integer")
    return num // den


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

class SymplecticForm(_Record):
    """A nondegenerate alternating bilinear form, held as its Gram matrix."""

    __slots__ = ("gram",)

    def __init__(self, gram: Matrix):
        if not gram.is_square():
            raise ValueError("Gram matrix must be square")
        if not gram.is_alternating():
            raise ValueError("Gram matrix must be alternating")
        if gram.rank() != gram.nrows:
            raise SingularMatrixError("symplectic form must be nondegenerate")
        self.gram = gram

    @classmethod
    def _from_invertible(cls, P: Matrix) -> "SymplecticForm":
        """P^T J P for an invertible P, unchecked: alternating, and nondegenerate as
        det(P^T J P) = det(P)^2.  J has blocks [[0, 1], [-1, 0]], so entry (i, j) is
        e_i . o_j - o_i . e_j for e_i, o_i column i of P's even and odd rows; it is
        summed above the diagonal only and negated into the lower triangle."""
        field, n = P.field, P.nrows
        E, O = list(zip(*P.rows[0::2])), list(zip(*P.rows[1::2]))
        G = [[field.zero] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            G[i][j] = x = field.element(sum(map(mul, E[i], O[j])) - sum(map(mul, O[i], E[j])))
            G[j][i] = field.neg(x)
        form = cls.__new__(cls)
        form.gram = Matrix(field, n, n, G, _trusted=True)
        return form

    @property
    def dim(self) -> int:
        return self.gram.nrows

    @property
    def field(self) -> Field:
        return self.gram.field

    def __repr__(self) -> str:
        return f"SymplecticForm({self.gram!r})"


class FormSpace(_Record):
    """An ordered list of m symplectic forms with independent Gram matrices."""

    __slots__ = ("forms",)

    def __init__(self, forms):
        forms = tuple(forms)
        if not forms:
            raise ValueError("a form space needs at least one form")
        field = forms[0].field
        n = forms[0].dim
        for f in forms[1:]:
            field.require_same(f.field)
            if f.dim != n:
                raise ValueError("forms live on spaces of different dimension")
        if field.rank([[x for row in f.gram.rows for x in row] for f in forms]) != len(forms):
            raise ValueError("Gram matrices are linearly dependent")
        self.forms = forms

    @property
    def dim(self) -> int:
        return self.forms[0].dim

    @property
    def m(self) -> int:
        return len(self.forms)

    @property
    def field(self) -> Field:
        return self.forms[0].field

    def grams(self) -> list[Matrix]:
        return [f.gram for f in self.forms]

    def combination(self, coefficients) -> Matrix:
        """Gram matrix of sum_t c_t <,>_t (possibly degenerate or zero)."""
        if len(coefficients) != self.m:
            raise ValueError("need one coefficient per form")
        acc = Matrix.zeros(self.field, self.dim, self.dim)
        for c, f in zip(coefficients, self.forms):
            acc = acc.add(f.gram.scale(c))
        return acc

    def __repr__(self) -> str:
        return f"FormSpace(n={self.dim}, m={self.m}, {self.field})"


def standard_form(n: int, field: Field) -> SymplecticForm:
    """Block diagonal J with <e_{2i-1}, e_{2i}> = 1."""
    if n < 2 or n % 2:
        raise ValueError(f"standard symplectic form needs even n >= 2, got {n}")
    return SymplecticForm(canonical_alternating(field, n, n))


def _require_forms(n: int, m: int) -> None:
    """Refuse m independent symplectic forms on F^n where none exist: alternating
    n x n matrices span n(n-1)/2 dimensions, so at n = 2 any two are dependent."""
    if m < 1:
        raise ValueError("need m >= 1 forms")
    if n < 2 or n % 2:
        raise ValueError(f"symplectic forms need even n >= 2, got {n}")
    if m > n * (n - 1) // 2:
        raise ValueError(f"no {m} independent alternating forms exist in dimension {n}")


def random_symplectic_form(n: int, field: Field, rng: Random) -> SymplecticForm:
    """P^T J P for P = `random_invertible(field, n, rng)`, whose rank is all a draw checks."""
    _require_forms(n, 1)
    return SymplecticForm._from_invertible(random_invertible(field, n, rng))


def random_form_space(n: int, m: int, field: Field, rng: Random) -> FormSpace:
    """m symplectic forms with independent Gram matrices, resampling on dependence."""
    _require_forms(n, m)
    forms, guard = [], 0
    while len(forms) < m:
        candidate = random_symplectic_form(n, field, rng)
        if forms or m == 1:  # one form is independent alone: its Gram matrix is nonzero
            try:
                space = FormSpace(forms + [candidate])
            except ValueError:
                guard += 1
                if guard > 256:
                    raise RuntimeError("could not sample independent forms") from None
                continue
        forms.append(candidate)
    return space


def random_independent_pair(n: int, field: Field, rng: Random) -> FormSpace:
    """Two symplectic forms spanning a pencil (m = 2)."""
    return random_form_space(n, 2, field, rng)


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace(_Record):
    """A k-dimensional subspace of F^n: its canonical RREF `basis` and the
    basis's `pivots`, the increasing pivot column of each row."""

    __slots__ = ("basis", "pivots")

    def __init__(self, basis: Matrix, _pivots: tuple[int, ...] | None = None):
        # internal callers pass the pivots of a basis they built in RREF
        if _pivots is None:
            R, rank, _pivots = basis.rref()
            if rank != basis.nrows:
                raise ValueError("basis rows are linearly dependent")
            basis = R
        self.basis = basis
        self.pivots = _pivots

    @classmethod
    def from_span(cls, rows: Matrix) -> "Subspace":
        """Span of arbitrary rows; dependent or zero rows are dropped."""
        R, pivots = rows.field.rref(rows.rows)
        return cls(Matrix(rows.field, len(R), rows.ncols, R, _trusted=True), _pivots=pivots)

    @property
    def k(self) -> int:
        return self.basis.nrows

    @property
    def n(self) -> int:
        return self.basis.ncols

    @property
    def field(self) -> Field:
        return self.basis.field

    def __repr__(self) -> str:
        return f"Subspace(k={self.k}, n={self.n}, {self.field})"


_LAST_PRODUCTS = (None, None)  # the last form space object and its map


def _gram_products(F: FormSpace):
    """A -> [A G_1, ..., A G_m] by one product with [G_1 | ... | G_m], packed once by
    `Field.multiplier` and kept for the last form space object."""
    global _LAST_PRODUCTS
    last, products = _LAST_PRODUCTS
    if F is not last:
        n, grams = F.dim, [f.gram.rows for f in F.forms]
        times = F.field.multiplier([sum(rows, ()) for rows in zip(*grams)])
        blocks = [slice(c, c + n) for c in range(0, F.m * n, n)]
        products = lambda A: [[r[b] for r in AG] for AG in [times(A)] for b in blocks]
        _LAST_PRODUCTS = F, products
    return products


def _point_products(F: FormSpace, B):
    """(the rows of B G_t per Gram matrix G_t, by `_gram_products`, and the first
    (t, i, j, value) with (B G_t B^T)[i][j] != 0 or None): the one isotropy scan of
    given and sampled points.  B is a list of canonical rows; it may have none (k = 0)."""
    field, products = F.field, _gram_products(F)(B)
    Bt = list(zip(*B))
    failure = next(((t, i, j, x) for t, BG in enumerate(products)
                    for i, row in enumerate(field.matmul(BG, Bt)) for j, x in enumerate(row)
                    if x), None)
    return products, failure


def isotropy_failure(V: Subspace, F: FormSpace):
    """None if V is simultaneously isotropic, else (form_index, i, j, value).

    Indices are 0-based rows of the basis; the value is the offending
    pairing <v_i, v_j>.
    """
    if V.n != F.dim:
        raise ValueError(f"dimension mismatch: subspace in n={V.n}, forms on n={F.dim}")
    V.field.require_same(F.field)
    return _point_products(F, V.basis.rows)[1]


def is_isotropic(V: Subspace, F: FormSpace) -> bool:
    """True iff B G_t B^T = 0 for every Gram matrix G_t."""
    return isotropy_failure(V, F) is None


def _require_isotropic_dim(n: int, k: int) -> None:
    if not 1 <= k <= n // 2:
        raise ValueError(f"isotropic dimension must satisfy 1 <= k <= n/2 = {n // 2}, got {k}")


def random_isotropic_subspace(k: int, F: FormSpace, rng: Random) -> Subspace | None:
    """Greedy extension by random vectors in K, the kernel of the perp system.

    The span and the perp system (v G_t per accepted v) are live RREFs grown by
    `Field.extend`.  A draw c is c at the perp system's free columns and minus the perp
    rows there times c at its pivots: c times the kernel basis read off the RREF.  The
    span is isotropic, so it lies in K, and a step stalls exactly when the span is all of
    K.  The sampler then returns None, which only happens for m >= 2, after the _RETRIES
    draws of a step, so the random stream does not depend on how a stall is found.
    Below that, if the draws fail to leave the span, a sweep of the kernel basis must.
    """
    n = F.dim
    _require_isotropic_dim(n, k)
    field, products = F.field, _gram_products(F)
    span, perp = {}, {}  # pivot column -> row
    while True:
        free = _non_pivot_columns(n, perp)
        if len(free) == len(span):  # the span is all of K
            for _ in range(_RETRIES):
                field.draw(rng, len(free))
            return None
        for _ in range(_RETRIES):
            c = field.draw(rng, len(free))
            v = [field.zero] * n
            for j, x in zip(free, c):
                v[j] = x
            for pc, row in perp.items():
                v[pc] = field.neg(sum(map(mul, [row[j] for j in free], c)))
            if field.extend(span, v) is not None:
                break
        else:  # a kernel basis vector leaves the span, as the span is smaller than K
            v = next((v for v in field.kernel(list(perp.values()), list(perp), n)
                      if field.extend(span, v) is not None), None)
            if v is None:
                raise ArithmeticError("no kernel basis vector leaves a span smaller than K")
        if len(span) == k:
            pivots = tuple(sorted(span))
            return Subspace(Matrix(field, k, n, [span[c] for c in pivots], _trusted=True),
                            _pivots=pivots)
        for vG in products([v]):
            field.extend(perp, vG[0])


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------

def _check_enumeration(n: int, k: int, field: Field) -> None:
    """Refuse an enumeration over a non-prime field, with k outside [0, n], or
    whose C(n, k)_q subspaces exceed `enumeration_budget()`, read at the call."""
    if not isinstance(field, PrimeField):
        raise ValueError("exhaustive enumeration needs a finite prime field")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    total, what = _subspace_count(n, k, field.p)
    _require_budget(total, f"enumerating {total} {what}")


def _subspace_count(n: int, k: int, q: int) -> tuple[int, str]:
    """(C(n, k)_q, "subspaces"), or, not multiplied out, (budget + 1, "or more subspaces")
    when k(n-k) >= budget.bit_length(), as then C(n, k)_q >= q^(k(n-k)) > budget."""
    budget = enumeration_budget()
    if k * (n - k) < budget.bit_length():
        return gaussian_binomial(n, k, q), "subspaces"
    return budget + 1, "or more subspaces"


def _require_budget(size: int, what: str) -> None:
    """Refuse work of `size` units, described by `what`, past `enumeration_budget()`."""
    budget = enumeration_budget()
    if size > budget:
        raise BudgetExceeded(
            f"{what} exceeds the budget of {budget} (raise MSGKIT_BUDGET to override)")


def _non_pivot_columns(n: int, pivots: tuple[int, ...]) -> list[int]:
    return [j for j in range(n) if j not in pivots]


def _free_columns(n: int, pivots: tuple[int, ...]) -> list[list[int]]:
    """Per echelon row, the non-pivot columns right of its pivot."""
    cols = _non_pivot_columns(n, pivots)
    return [[j for j in cols if j > pc] for pc in pivots]


def enumerate_subspaces(n: int, k: int, field: Field):
    """All k-subspaces of F_q^n, each exactly once, in pivot-pattern order.

    Returns a generator; the budget check happens before the first yield.
    """
    _check_enumeration(n, k, field)

    def generate():
        elements = list(field.elements())
        zero, one = field.zero, field.one
        for pivots in itertools.combinations(range(n), k):
            free = [(i, j) for i, cols in enumerate(_free_columns(n, pivots))
                    for j in cols]
            for values in itertools.product(elements, repeat=len(free)):
                rows = [[zero] * n for _ in range(k)]
                for i, p in enumerate(pivots):
                    rows[i][p] = one
                for (i, j), v in zip(free, values):
                    rows[i][j] = v
                yield Subspace(Matrix(field, k, n, rows, _trusted=True), _pivots=pivots)

    return generate()


def _row_solutions(field: PrimeField, n: int, pivot: int, cols: list[int], perps: list[list[int]]):
    """The rows e_pivot + sum_c x_c e_c, c in `cols`, that pair to zero with every w
    in `perps`, yielded one at a time in lexicographic order.

    Each w gives the equation w[pivot] + sum_c x_c w[c] = 0.  The columns are
    eliminated right to left, so every solved entry depends only on free entries
    to its left; counting through the free entries in order then yields the rows
    in lexicographic order.
    """
    p, f = field.p, len(cols)
    R, pivot_cols = field.rref([[w[c] for c in reversed(cols)] + [-w[pivot] % p] for w in perps])
    if f in pivot_cols:
        return
    solved = {cols[f - 1 - c]: (R[r][f], [(cols[f - 1 - d], R[r][d]) for d in range(c + 1, f)
                                          if R[r][d]]) for r, c in enumerate(pivot_cols)}
    free = [c for c in cols if c not in solved]
    for values in itertools.product(range(p), repeat=len(free)):
        row = [0] * n
        row[pivot] = 1
        for c, v in zip(free, values):
            row[c] = v
        for c, (const, deps) in solved.items():
            row[c] = (const - sum(x * row[d] for d, x in deps)) % p
        yield row


def _isotropic_points(k: int, F: FormSpace):
    """`enumerate_isotropic_subspaces` in plain ints: (pivots, RREF rows, restrictions)
    with restrictions[t][i] = <row_i, e_c>_t at the non-pivot columns c, R_t for the unit
    complement, read off the perps: row_i G_t by `_gram_products`, at perps[i m + t].  Each
    row is checked, apart from the elimination that solved it, against the perps above."""
    n, field, m = F.dim, F.field, F.m
    _check_enumeration(n, k, field)
    p, products = field.p, _gram_products(F)

    def extend(pivots, free, cols, rows, perps):
        i = len(rows)
        if i == k:
            yield pivots, rows, [[[w[c] for c in cols] for w in perps[t::m]] for t in range(m)]
            return
        for row in _row_solutions(field, n, pivots[i], free[i], perps):
            if any(sum(map(mul, w, row)) % p for w in perps):
                raise ArithmeticError(f"enumerated row {i + 1} is not isotropic to the rows above")
            yield from extend(pivots, free, cols, rows + [row],
                              perps + [rG[0] for rG in products([row])])

    def generate():
        for pivots in itertools.combinations(range(n), k):
            cols = _non_pivot_columns(n, pivots)
            yield from extend(pivots, _free_columns(n, pivots), cols, [], [])

    return generate()


def enumerate_isotropic_subspaces(k: int, F: FormSpace):
    """Every simultaneously isotropic k-subspace, in enumerate_subspaces order.

    Walks the same echelon pivot patterns, but fills row i only with the
    solutions of "row i pairs to zero with every earlier row under every
    form", an affine system in row i's free entries, so the cost follows
    the isotropic points rather than all C(n, k)_q subspaces.  The budget
    still counts all C(n, k)_q subspaces and is checked before the first
    yield.
    """
    field, n = F.field, F.dim
    return (Subspace(Matrix(field, k, n, rows, _trusted=True), _pivots=pivots)
            for pivots, rows, _ in _isotropic_points(k, F))


# ---------------------------------------------------------------------------
# point files
# ---------------------------------------------------------------------------

def decode_point(obj: dict) -> tuple[FormSpace, Matrix]:
    """Parse a point file; returns the form space and the raw basis matrix.

    The basis is returned un-canonicalized so callers can honor the file's
    choice of basis (kernel coordinates depend on it); wrap it in Subspace
    to canonicalize.
    """
    if not isinstance(obj, dict):
        raise ValueError("point file must be a JSON object")
    for key in ("field", "n", "forms", "subspace"):
        if key not in obj:
            raise ValueError(f"point file is missing {key!r}")
    field = field_from_spec(obj["field"])
    n = obj["n"]
    if not isinstance(n, int) or n < 2:
        raise ValueError("point file 'n' must be an integer >= 2")
    if not isinstance(obj["forms"], list):
        raise ValueError("point file 'forms' must be an array of Gram matrices")
    # n columns, and square, so every form has dimension n
    fs = FormSpace(SymplecticForm(Matrix.decode(field, g, ncols=n)) for g in obj["forms"])
    basis = Matrix.decode(field, obj["subspace"], ncols=n)
    if basis.rank() != basis.nrows:
        raise ValueError("subspace basis rows are linearly dependent")
    return fs, basis
