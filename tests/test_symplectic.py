import itertools
import json
import os
import subprocess
import sys
import time
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from msgkit import (
    BudgetExceeded,
    FormSpace,
    Matrix,
    PointContext,
    PrimeField,
    QQ,
    SingularMatrixError,
    Subspace,
    SymplecticForm,
    build_constraints,
    canonical_alternating,
    decode_point,
    default_complement,
    derive_seed,
    enumerate_isotropic_subspaces,
    enumerate_subspaces,
    gaussian_binomial,
    is_isotropic,
    isotropy_failure,
    random_form_space,
    random_independent_pair,
    random_invertible,
    random_isotropic_subspace,
    random_matrix,
    random_symplectic_form,
    standard_form,
    tangent_report,
)
from msgkit import matrices, symplectic
from msgkit.symplectic import _isotropic_points, _subspace_count
from msgkit.tangent import (_constraint_rows, _pencil_degeneracy, _pencil_minor_gcd,
                            _seeded_pencil)
from conftest import (GOLDEN_DIR, chart_differential_rank, encode_point, golden_compare,
                      isotropic_count_by_double_counting, isotropic_plane_count,
                      random_complement, reference_isotropic_subspace, stack)


# --- construction and validation ------------------------------------------------

def test_standard_form_small():
    F = QQ
    assert standard_form(2, F).gram == Matrix(F, 2, 2, [[0, 1], [-1, 0]])
    J4 = standard_form(4, F).gram
    assert J4 == Matrix(F, 4, 4, [
        [0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    with pytest.raises(ValueError):
        standard_form(3, F)
    with pytest.raises(ValueError):
        standard_form(0, F)


def test_symplectic_form_invariants_enforced():
    F = PrimeField(5)
    with pytest.raises(ValueError):
        SymplecticForm(Matrix.identity(F, 2))          # not alternating
    with pytest.raises(ValueError):
        SymplecticForm(Matrix.zeros(F, 2, 2))          # degenerate
    with pytest.raises(ValueError):
        SymplecticForm(Matrix.zeros(F, 3, 3))          # odd size forces degeneracy


def test_form_refusals_tell_a_degenerate_gram_from_a_non_alternating_one():
    # the public constructor tells a degenerate Gram matrix from a non-alternating one
    F = PrimeField(5)
    for gram in (Matrix.zeros(F, 4, 4), canonical_alternating(F, 4, 2), Matrix.zeros(F, 3, 3)):
        with pytest.raises(SingularMatrixError, match="^symplectic form must be nondegenerate$"):
            SymplecticForm(gram)
    for gram in (Matrix.identity(F, 2), Matrix(F, 2, 2, [[0, 1], [1, 0]]), Matrix.zeros(F, 2, 4)):
        with pytest.raises(ValueError, match="^Gram matrix must be") as info:
            SymplecticForm(gram)
        assert not isinstance(info.value, SingularMatrixError)


@pytest.mark.parametrize("field", [PrimeField(3), QQ], ids=str)
def test_a_form_draw_ranks_each_p_once(monkeypatch, field):
    # P's rank in random_invertible is the only check: a singular P (about 41% of
    # the 2x2 matrices over F_3) is redrawn there, and P^T J P is never re-checked
    ranks, draws, alternating = [], [], []
    rank, draw, is_alternating = type(field).rank, matrices.random_matrix, Matrix.is_alternating
    monkeypatch.setattr(type(field), "rank", lambda self, rows: ranks.append(1) or rank(self, rows))
    monkeypatch.setattr(matrices, "random_matrix", lambda *args: draws.append(1) or draw(*args))
    monkeypatch.setattr(Matrix, "is_alternating",
                        lambda self: alternating.append(1) or is_alternating(self))
    for seed in range(40):
        random_symplectic_form(2, field, Random(seed))
    assert len(ranks) == len(draws) >= 40
    assert alternating == []
    if field is not QQ:
        assert len(draws) > 50


def test_random_form_space_redraws_a_dependent_form_and_gives_up(monkeypatch):
    # stubbed draws: a repeated form is dependent and redrawn, and draws that
    # never stop repeating end in RuntimeError on the 257th refusal
    F = PrimeField(5)
    A, B = standard_form(4, F), random_symplectic_form(4, F, Random(1))
    queue, draws = [A, A, A, B], []
    monkeypatch.setattr(symplectic, "random_symplectic_form",
                        lambda n, field, rng: draws.append(1) or queue.pop(0))
    assert random_form_space(4, 2, F, Random(0)).forms == (A, B)
    assert len(draws) == 4
    draws.clear()
    monkeypatch.setattr(symplectic, "random_symplectic_form",
                        lambda n, field, rng: draws.append(1) or A)
    with pytest.raises(RuntimeError, match="could not sample independent forms"):
        random_form_space(4, 2, F, Random(0))
    assert len(draws) == 1 + 257


def test_form_space_independence_enforced():
    F = PrimeField(5)
    J = standard_form(4, F)
    with pytest.raises(ValueError):
        FormSpace([J, SymplecticForm(J.gram.scale(2))])
    with pytest.raises(ValueError):
        FormSpace([])


def test_random_form_deterministic_and_golden():
    F3 = PrimeField(3)
    a = random_symplectic_form(4, F3, Random(0))
    b = random_symplectic_form(4, F3, Random(0))
    assert a == b
    assert a.gram.is_alternating() and a.gram.rank() == 4
    golden_compare("sym_form_n4_p3_seed0.json",
                   json.dumps(a.gram.encode(), sort_keys=True) + "\n")


@settings(max_examples=320, deadline=None)
@given(st.sampled_from([PrimeField(3), PrimeField(5), PrimeField(13), PrimeField(17),
                        PrimeField(101), PrimeField(65521), PrimeField(2**31 - 1), QQ]),
       st.sampled_from([2, 4, 6, 8]), st.integers(0, 2**32))
def test_random_symplectic_form_is_the_triple_product(field, n, seed):
    # `Field.pullback` against P^T J P with J built, both on the same draws; at n = 8 its
    # multiplier slots take 1, 2, 4 and 8 bytes at p = 3, 13, 101 and 65521, and at
    # p = 2^31 - 1 they are wider than a machine word
    rng, ref = Random(seed), Random(seed)
    form = random_symplectic_form(n, field, rng)
    P = random_invertible(field, n, ref)
    assert form.gram == P.transpose().mul(canonical_alternating(field, n, n)).mul(P)
    assert rng.getstate() == ref.getstate()
    # random_matrix draws what field.random draws, in the same order
    rng, ref = Random(seed), Random(seed)
    drawn = [[field.random(ref) for _ in range(n + 1)] for _ in range(n)]
    assert random_matrix(field, n, n + 1, rng).rows == tuple(map(tuple, drawn))
    assert rng.getstate() == ref.getstate()


def test_random_pair_golden_and_n2_rejection():
    F3 = PrimeField(3)
    fs = random_independent_pair(4, F3, Random(0))
    assert fs.m == 2 and fs.dim == 4
    golden_compare("pair_n4_p3_seed0.json",
                   json.dumps([g.encode() for g in fs.grams()], sort_keys=True) + "\n")
    # alternating 2x2 matrices form a 1-dimensional space: no independent pair
    with pytest.raises(ValueError):
        random_independent_pair(2, F3, Random(0))


def test_random_form_space_m3():
    fs = random_form_space(4, 3, PrimeField(5), Random(4))
    assert fs.m == 3


# --- isotropy ----------------------------------------------------------------------

def test_lines_always_isotropic():
    rng = Random(71)
    for field in (PrimeField(3), QQ):
        for _ in range(20):
            fs = random_form_space(4, 2, field, rng)
            V = random_isotropic_subspace(1, fs, rng)
            assert V is not None and V.k == 1
            assert is_isotropic(V, fs)


def test_isotropy_standard_plane():
    # in [[0,I],[-I,0]] coordinates the span of e1, e2 is isotropic
    F = QQ
    gram = Matrix(F, 4, 4, [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
    fs = FormSpace([SymplecticForm(gram)])
    V = Subspace(Matrix(F, 2, 4, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    assert is_isotropic(V, fs)


def test_isotropy_failure_reports_pair():
    # adjacent-block standard form pairs e1 with e2
    F = QQ
    fs = FormSpace([standard_form(4, F)])
    V = Subspace(Matrix(F, 2, 4, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    assert not is_isotropic(V, fs)
    t, i, j, val = isotropy_failure(V, fs)
    assert (t, i, j) == (0, 0, 1) and val == 1


def test_isotropy_dimension_mismatch():
    F = QQ
    fs = FormSpace([standard_form(4, F)])
    V = Subspace(Matrix(F, 1, 6, [[1, 0, 0, 0, 0, 0]]))
    with pytest.raises(ValueError):
        is_isotropic(V, fs)


def test_isotropy_basis_independent():
    rng = Random(73)
    F = PrimeField(7)
    fs = random_form_space(6, 2, F, rng)
    for _ in range(20):
        V = random_isotropic_subspace(2, fs, rng)
        if V is None:
            continue
        # re-span by random row operations; subspace equality is canonical
        mixed = Matrix(F, 2, 6, [
            [F.add(F.mul(2, a), b) for a, b in zip(V.basis.rows[0], V.basis.rows[1])],
            V.basis.rows[1],
        ])
        assert Subspace.from_span(mixed) == V
        assert is_isotropic(Subspace.from_span(mixed), fs) == is_isotropic(V, fs)


# --- sampling ------------------------------------------------------------------------

def test_sampler_postconditions():
    rng = Random(79)
    F5 = PrimeField(5)
    fs = FormSpace([standard_form(6, F5)])
    for k in (1, 2, 3):
        for _ in range(10):
            V = random_isotropic_subspace(k, fs, rng)
            assert V is not None  # m=1 never stalls
            assert V.k == k and is_isotropic(V, fs)
    with pytest.raises(ValueError):
        random_isotropic_subspace(4, fs, rng)  # k > n/2


@st.composite
def _sampler_cases(draw):
    field = draw(st.sampled_from([PrimeField(3), PrimeField(5), QQ]))
    n = draw(st.sampled_from([4, 6, 8]))
    m = draw(st.sampled_from([1, 2, 3]))
    k = draw(st.integers(1, n // 2))
    return field, n, m, k, draw(st.integers(0, 2**32)), draw(st.integers(0, 2**32))


@settings(max_examples=150, deadline=None)
@given(_sampler_cases())
def test_incremental_sampler_matches_the_rebuilding_reference(case):
    # same Subspace (or None) and the same generator state after every draw,
    # over several draws from one form space
    field, n, m, k, form_seed, seed = case
    fs = random_form_space(n, m, field, Random(form_seed))
    ours, theirs = Random(seed), Random(seed)
    for _ in range(3):
        V = random_isotropic_subspace(k, fs, ours)
        assert V == reference_isotropic_subspace(k, fs, theirs)
        assert ours.getstate() == theirs.getstate()
        if V is not None:
            assert V.pivots == Matrix(field, k, n, V.basis.rows).rref()[2]
            assert is_isotropic(V, fs)


@pytest.mark.parametrize("n,k,m,field", [(8, 3, 2, PrimeField(3)), (6, 3, 2, PrimeField(3)),
                                         (6, 2, 2, QQ)], ids=["n8-k3-p3", "n6-k3-p3", "n6-k2-Q"])
def test_row_sampler_matches_the_matrix_sampler(n, k, m, field):
    # the samples of a seeded scan (seed 1, whose first 60 at n=6, k=3 are
    # the scan golden's 22 points and 38 stalls): the same Subspace or None,
    # and the same generator state after it
    stalls = 0
    for index in range(200):
        ours = Random(derive_seed(1, index))
        fs = random_form_space(n, m, field, ours)
        theirs = Random()
        theirs.setstate(ours.getstate())
        V = random_isotropic_subspace(k, fs, ours)
        assert V == reference_isotropic_subspace(k, fs, theirs)
        assert ours.getstate() == theirs.getstate()
        stalls += V is None
    assert stalls > 0 if (n, k) == (6, 3) else stalls == 0


def test_live_rref_sampler_matches_the_kernel_basis_sampler():
    # 210 (pencil, seed) cases over F_3, F_5 and Q at k = 1..4: the same Subspace or
    # None, and the same generator state after it, against the sampler that builds its
    # kernel basis K, draws c K and tests each draw by a Gauss-Jordan rank
    cases = stalls = 0
    for field in (PrimeField(3), PrimeField(5), QQ):
        for k, n in [(1, 4), (1, 6), (2, 4), (2, 6), (3, 6), (3, 8), (4, 8)]:
            for seed in range(10):
                ours = Random(derive_seed(seed, k * n))
                fs = random_form_space(n, 2, field, ours)
                theirs = Random()
                theirs.setstate(ours.getstate())
                V = random_isotropic_subspace(k, fs, ours)
                assert V == reference_isotropic_subspace(k, fs, theirs)
                assert ours.getstate() == theirs.getstate()
                cases, stalls = cases + 1, stalls + (V is None)
    assert cases == 210 and 0 < stalls < cases


class _ZeroBits(Random):
    """Every F_p coefficient it draws is 0, so each random combination is
    the zero vector and only the sampler's kernel-basis sweep can extend."""

    def getrandbits(self, k):
        return 0


@pytest.mark.parametrize("m", [1, 2])
def test_sampler_sweeps_the_kernel_basis_when_every_draw_fails(m):
    fs = random_form_space(8, m, PrimeField(3), Random(5))
    for k in (1, 2, 3, 4):
        V = random_isotropic_subspace(k, fs, _ZeroBits())
        assert V == reference_isotropic_subspace(k, fs, _ZeroBits())
        assert m == 2 or (V is not None and V.k == k and is_isotropic(V, fs))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([PrimeField(3), PrimeField(5), PrimeField(2**31 - 1), QQ]),
       st.sampled_from([2, 4, 6, 8]), st.integers(0, 2**32))
def test_gram_by_blocks_is_p_transpose_times_jp(field, n, seed):
    # the upper-triangle dot products of P's even and odd rows, against the
    # product P^T (J P) with J P read off P's rows
    rng, ref = Random(seed), Random(seed)
    form = random_symplectic_form(n, field, rng)
    P = random_invertible(field, n, ref)
    JP = []
    for b in range(0, n, 2):
        JP += [P.rows[b + 1], [field.neg(x) for x in P.rows[b]]]
    assert form.gram == P.transpose().mul(Matrix(field, n, n, JP))
    assert rng.getstate() == ref.getstate()


def test_sampler_m1_never_stalls_many_draws():
    rng = Random(83)
    for field in (PrimeField(3), QQ):
        fs = FormSpace([random_symplectic_form(4, field, rng)])
        for _ in range(50):
            assert random_isotropic_subspace(2, fs, rng) is not None


# --- enumeration ----------------------------------------------------------------------

def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(2, 1, 3) == 4
    assert gaussian_binomial(6, 3, 3) == 33880
    assert gaussian_binomial(4, 0, 5) == 1
    assert gaussian_binomial(4, 5, 3) == 0


def test_enumeration_count_and_uniqueness():
    F3 = PrimeField(3)
    subs = list(enumerate_subspaces(4, 2, F3))
    assert len(subs) == 130
    assert len(set(subs)) == 130
    lines = list(enumerate_subspaces(2, 1, F3))
    assert len(lines) == 4
    F5 = PrimeField(5)
    assert len(list(enumerate_subspaces(4, 2, F5))) == gaussian_binomial(4, 2, 5)


def test_enumeration_yields_rref_bases():
    F3 = PrimeField(3)
    for V in enumerate_subspaces(4, 2, F3):
        R, rank, _ = V.basis.rref()
        assert rank == 2 and R == V.basis


def test_isotropic_enumeration_filter_contract():
    F3 = PrimeField(3)
    fs = FormSpace([standard_form(4, F3)])
    iso = list(enumerate_isotropic_subspaces(2, fs))
    # Lagrangian count of Sp(4, q) is (q+1)(q^2+1)
    assert len(iso) == 40
    assert all(is_isotropic(V, fs) for V in iso)


def test_enumeration_budget(monkeypatch):
    F3 = PrimeField(3)
    monkeypatch.setenv("MSGKIT_BUDGET", "100")
    with pytest.raises(BudgetExceeded):
        enumerate_subspaces(4, 2, F3)
    with pytest.raises(ValueError):
        enumerate_subspaces(4, 2, QQ)


@pytest.mark.parametrize("n,k", [(2000, 1000), (4000, 2000)])
def test_enumeration_past_the_budget_is_refused_without_counting(n, k, monkeypatch):
    # C(n, k)_3 >= 3^(k(n-k)) is past the budget once k(n-k) reaches the
    # budget's bit length, so it is not multiplied out; its digits would pass
    # the interpreter's limit for printing an int
    monkeypatch.setenv("MSGKIT_BUDGET", str(10**7))
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="^enumerating 10000001 or more subspaces exceeds"
                                             " the budget of 10000000 "):
        enumerate_subspaces(n, k, PrimeField(3))
    assert time.perf_counter() - start < 1
    monkeypatch.setenv("MSGKIT_BUDGET", "129")
    with pytest.raises(BudgetExceeded, match="^enumerating 130 subspaces exceeds the budget of 129 "):
        enumerate_subspaces(4, 2, PrimeField(3))
    monkeypatch.setenv("MSGKIT_BUDGET", "130")
    assert len(list(enumerate_subspaces(4, 2, PrimeField(3)))) == 130


def test_subspace_count_is_exact_or_past_the_budget(monkeypatch):
    for q in (3, 5):
        for n in range(10):
            for k in range(n + 1):
                exact = gaussian_binomial(n, k, q)
                for budget in (1, 2, 7, 129, 130, 10**4, 10**7):
                    monkeypatch.setenv("MSGKIT_BUDGET", str(budget))
                    count, what = _subspace_count(n, k, q)
                    if what == "subspaces":
                        assert count == exact
                    else:
                        assert (count, what) == (budget + 1, "or more subspaces")
                        assert exact > budget


def test_isotropic_enumeration_budget_and_validation(monkeypatch):
    fs = FormSpace([standard_form(4, PrimeField(3))])
    # the budget counts all C(4,2)_3 = 130 subspaces, not the 40 isotropic ones
    monkeypatch.setenv("MSGKIT_BUDGET", "129")
    with pytest.raises(BudgetExceeded):
        enumerate_isotropic_subspaces(2, fs)
    monkeypatch.setenv("MSGKIT_BUDGET", "130")
    assert len(list(enumerate_isotropic_subspaces(2, fs))) == 40
    with pytest.raises(ValueError):
        enumerate_isotropic_subspaces(5, fs)
    with pytest.raises(ValueError):
        enumerate_isotropic_subspaces(1, FormSpace([standard_form(4, QQ)]))


def filtered_isotropic_subspaces(k, F):
    """Reference oracle: the full pivot-pattern walk filtered by is_isotropic."""
    return [V for V in enumerate_subspaces(F.dim, k, F.field) if is_isotropic(V, F)]


# Every (n, k, m, p) with n in {4, 6}, k <= 3, m <= 3, p in {3, 5} whose
# full walk has at most C(6,2)_3 = 11011 subspaces, plus the m = 2 case of
# n = 6, k = 3, p = 3; the larger walks would dominate the test time.
ORACLE_GRID = [
    (n, k, m, p)
    for n in (4, 6) for k in range(4) for m in (1, 2, 3) for p in (3, 5)
    if gaussian_binomial(n, k, p) <= 11011
] + [(6, 3, 2, 3)]


@pytest.mark.parametrize("n,k,m,p", ORACLE_GRID,
                         ids=[f"n{n}-k{k}-m{m}-p{p}" for n, k, m, p in ORACLE_GRID])
def test_isotropic_enumeration_matches_filter_sequence(n, k, m, p):
    fs = random_form_space(n, m, PrimeField(p), Random(1000 * n + 100 * k + 10 * m + p))
    assert list(enumerate_isotropic_subspaces(k, fs)) == filtered_isotropic_subspaces(k, fs)


@pytest.mark.parametrize("n,k,m,p", ORACLE_GRID,
                         ids=[f"n{n}-k{k}-m{m}-p{p}" for n, k, m, p in ORACLE_GRID])
def test_point_stream_matches_the_filter_and_the_point_contexts(n, k, m, p):
    # the plain-int stream verify reads: its points are the filter's, its
    # restriction rows PointContext's, and verify's rank of their constraint rows
    # build_constraints', tangent_report's and, at m >= 2, the chart differential's,
    # which shares no code with them; a pencil `_pencil_degeneracy` finds
    # nondegenerate has minors of gcd 1
    F = PrimeField(p)
    fs = random_form_space(n, m, F, Random(1000 * n + 100 * k + 10 * m + p))
    stream = list(_isotropic_points(k, fs))
    oracle = filtered_isotropic_subspaces(k, fs)
    assert [(pivots, rows) for pivots, rows, _ in stream] == [
        (V.pivots, [list(r) for r in V.basis.rows]) for V in oracle]
    for (_, _, restrictions), V in zip(stream, oracle):
        ctx = PointContext(V, fs)
        assert restrictions == [[list(r) for r in R.rows] for R in ctx.restrictions]
        rank = F.rank(_constraint_rows(F, k, n - k, restrictions))
        assert rank == build_constraints(ctx).rank() == tangent_report(ctx).phi_rank
        if m >= 2:
            assert chart_differential_rank(V, fs) == rank
        if m == 2 and _pencil_degeneracy(F, *restrictions, V.basis.rows) is None:
            gcd = _pencil_minor_gcd(F, *restrictions)
            assert gcd.is_constant() and not gcd.is_zero()


_WRONG_SOLUTIONS = """
import itertools, random
from msgkit import matrices, symplectic

def every_row(field, n, pivot, cols, perps):  # every fill, as if the elimination solved nothing
    for values in itertools.product(range(field.p), repeat=len(cols)):
        row = [int(c == pivot) for c in range(n)]
        for c, v in zip(cols, values):
            row[c] = v
        yield row

symplectic._row_solutions = every_row
fs = symplectic.random_form_space(4, 2, symplectic.PrimeField(3), random.Random(3))
list(symplectic._isotropic_points(2, fs))
"""


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimized"])
def test_point_stream_checks_isotropy_apart_from_the_elimination(flags):
    proc = subprocess.run([sys.executable, *flags, "-c", _WRONG_SOLUTIONS],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "ArithmeticError: enumerated row 2 is not isotropic" in proc.stderr


def test_the_walk_draws_one_row_candidate_at_a_time(monkeypatch):
    # at k = 1 every fill of row 0's free entries is a point, so a walk that holds
    # one candidate at a time has drawn exactly i + 1 fills when it yields point i
    fs = random_form_space(10, 2, PrimeField(3), Random(10))
    draws, product = 0, itertools.product

    def counting(*args, **kwargs):
        nonlocal draws
        for values in product(*args, **kwargs):
            draws += 1
            yield values

    monkeypatch.setattr(itertools, "product", counting)
    for i, _ in enumerate(_isotropic_points(1, fs)):
        assert draws == i + 1
    assert i + 1 == (3 ** 10 - 1) // 2


@pytest.mark.parametrize("n,k,m,p", ORACLE_GRID,
                         ids=[f"n{n}-k{k}-m{m}-p{p}" for n, k, m, p in ORACLE_GRID])
def test_point_context_restrictions_match_the_triple_product(n, k, m, p):
    # R_t = B G_t C^T as two products, at every point with the default
    # coordinates and at every 10th point with a random complement, a random
    # working basis, and both
    F = PrimeField(p)
    rng = Random(1000 * n + 100 * k + 10 * m + p)
    fs = random_form_space(n, m, F, rng)

    def triple(basis, complement):
        return tuple(basis.mul(G).mul(complement.transpose()) for G in fs.grams())

    for index, V in enumerate(enumerate_isotropic_subspaces(k, fs)):
        ctx = PointContext(V, fs)
        # the default complement is not rank-checked: it must complete V
        assert stack(V.basis, default_complement(V)).rank() == n
        assert ctx.restrictions == triple(V.basis, ctx.complement)
        if index % 10:
            continue
        C = random_complement(V, rng)
        B = random_invertible(F, k, rng).mul(V.basis)
        for complement, basis in ((C, None), (None, B), (C, B)):
            ctx = PointContext(V, fs, complement=complement, basis=basis)
            assert ctx.restrictions == triple(ctx.basis, ctx.complement)


def test_subspace_basis_carries_its_own_rref():
    # the basis, dimension and pivots equal a fresh elimination of the basis
    rng = Random(83)
    spaces = []
    for F in (PrimeField(3), PrimeField(5), QQ):
        for r in range(5):
            spaces.append(Subspace.from_span(stack(  # a zero row: the span drops it
                random_matrix(F, r, 6, rng), Matrix.zeros(F, 1, 6))))
        fs = random_form_space(6, 2, F, rng)
        spaces += [V for V in (random_isotropic_subspace(k, fs, rng) for k in (1, 2, 3))
                   if V is not None]
        spaces.append(Subspace(Matrix(F, 3, 6, random_invertible(F, 6, rng).rows[:3])))
    fs = random_form_space(4, 2, PrimeField(3), rng)
    spaces += list(enumerate_isotropic_subspaces(2, fs))
    spaces += list(enumerate_subspaces(4, 2, PrimeField(3)))[::17]
    for V in spaces:
        assert (V.basis, V.k, V.pivots) == Matrix(V.field, V.k, V.n, V.basis.rows).rref()


@pytest.mark.parametrize("n,k,q", [
    (4, 1, 3), (4, 2, 3), (6, 1, 3), (6, 2, 3), (6, 3, 3), (4, 2, 5), (6, 2, 5)])
def test_isotropic_enumeration_m1_closed_form(n, k, q):
    # isotropic k-subspaces of symplectic F_q^{2r}:
    # prod_{i<k} (q^{2(r-i)} - 1) / (q^{i+1} - 1)
    r = n // 2
    num = den = 1
    for i in range(k):
        num *= q ** (2 * (r - i)) - 1
        den *= q ** (i + 1) - 1
    fs = FormSpace([random_symplectic_form(n, PrimeField(q), Random(10 * n + k + q))])
    assert sum(1 for _ in enumerate_isotropic_subspaces(k, fs)) == num // den


@pytest.mark.parametrize("n,m,q", [
    (4, 1, 3), (6, 1, 3), (4, 2, 3), (6, 2, 3), (6, 3, 3), (4, 1, 5), (4, 2, 5), (4, 3, 5),
    (4, 1, 7), (4, 2, 7), (4, 3, 7)])
def test_isotropic_walk_matches_the_k2_closed_form(n, m, q):
    fs = random_form_space(n, m, PrimeField(q), Random(100 * n + 10 * m + q))
    assert sum(1 for _ in _isotropic_points(2, fs)) == isotropic_plane_count(fs)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("m,q", [(1, 3), (2, 3), (3, 3), (2, 5), (3, 5)])
def test_isotropic_walk_matches_the_double_count_at_every_depth(m, q, k):
    # the walk's isotropic j-subspaces fix how many (j+1)-subspaces it must find, from
    # j = 0, whose one point W = 0 leaves every line, up to j = k - 1
    fs = random_form_space(6, m, PrimeField(q), Random(100 * k + 10 * m + q))
    bases = [rows for _, rows, _ in _isotropic_points(0, fs)]
    for j in range(k):
        above = [rows for _, rows, _ in _isotropic_points(j + 1, fs)]
        assert len(above) == isotropic_count_by_double_counting(fs, j, bases) > 0
        bases = above


def test_verify_golden_per_pair_points_match_the_k2_closed_form():
    with open(os.path.join(GOLDEN_DIR, "verify_n4_k2_p3_pairs3_seed2_fault.json")) as fh:
        payload = json.load(fh)
    assert [row["points"] for row in payload["per_pair"]] == [
        isotropic_plane_count(_seeded_pencil(4, PrimeField(3), 2, i)) for i in range(3)]


# --- support bits --------------------------------------------------------------------

def test_derive_seed_stable():
    # frozen values: parallel workers depend on this exact derivation
    assert derive_seed(0, 0) == 16294208416658607535
    assert derive_seed(0, 1) == 7960286522194355700
    assert derive_seed(12345, 0) != derive_seed(12345, 1)


def test_point_file_roundtrip():
    rng = Random(89)
    fs = random_form_space(4, 2, PrimeField(3), rng)
    V = random_isotropic_subspace(2, fs, rng)
    obj = encode_point(fs, V)
    fs2, basis = decode_point(json.loads(json.dumps(obj)))
    assert fs2 == fs
    assert Subspace.from_span(basis) == V


def test_point_file_validation():
    with pytest.raises(ValueError):
        decode_point({"field": {"kind": "rational"}})
    with pytest.raises(ValueError):
        decode_point([1, 2, 3])
