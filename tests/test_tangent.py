import itertools
import json
import operator
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from msgkit import (
    BudgetExceeded,
    EigenspaceReport,
    Field,
    FieldMismatchError,
    FormSpace,
    Matrix,
    MismatchRecord,
    PencilDegeneracy,
    PointContext,
    PrimeField,
    QQ,
    RationalField,
    SingularMatrixError,
    Subspace,
    SymplecticForm,
    TangentReport,
    VerifyReport,
    build_constraints,
    canonical_alternating,
    check_even_eigenspaces,
    decode_kernel_element,
    default_complement,
    derive_seed,
    enumerate_isotropic_subspaces,
    find_degenerate_pencil,
    isotropy_failure,
    j_V,
    msg_expected_dim,
    random_form_space,
    random_independent_pair,
    random_invertible,
    random_isotropic_subspace,
    random_matrix,
    random_symplectic_form,
    standard_form,
    tangent_report,
    verify_pair,
    verify_thm_equivalence,
)
from msgkit import cli, symplectic, tangent
from msgkit.fields import _Record
from msgkit.polynomials import (BinaryForm, _linear_grid, pdeg, pdivmod, pgcd, pmat_det, pmul,
                                 proots, ptrim)
from msgkit.symplectic import _isotropic_points
from msgkit.tangent import (PhiKernelElement, _constraint_rows, _coprime_quadratic_minors,
                            _pencil_degeneracy, _pencil_minor_gcd, _pencil_pfaffian,
                            _resultant2, _sampled_points, _verify_seeded_pair)
from conftest import (DATA_DIR, PRIMES, chart_differential_rank, degenerate_instance, inverse,
                      peval, pfaffian, random_alternating, random_alternating_nonsingular,
                      random_complement, reference_eigenspaces, reference_field,
                      reference_lifted_pencil_pfaffian, reference_pencil_degenerate,
                      reference_pencil_pfaffian, reference_verify_points, stack)


def half_standard_gram(field):
    """[[0, I], [-I, 0]]: pairs e_i with e_{i+2}, so span(e1, e2) is isotropic."""
    return Matrix(field, 4, 4, [
        [0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])


def sample_context(n, k, m, field, rng, tries=50):
    for _ in range(tries):
        fs = random_form_space(n, m, field, rng)
        V = random_isotropic_subspace(k, fs, rng)
        if V is not None:
            return PointContext(V, fs)
    raise RuntimeError("sampler kept stalling")


# --- expected dimension ---------------------------------------------------------

def test_result_records_keep_keywords_defaults_and_field_equality():
    a = TangentReport(n=4, k=2, m=2, expected_dim=2, tangent_dim=2, phi_rank=2)
    b = TangentReport(4, 2, 2, 2, 2, 2)
    assert a == b and a != TangentReport(4, 2, 2, 2, 3, 1)
    assert (a.phi_kernel, a.degeneracy) == ([], None)
    assert a.phi_kernel is not b.phi_kernel
    cert = BinaryForm(QQ, 0, [QQ.one])
    d = PencilDegeneracy(cert)
    assert d.witnesses == () and d == PencilDegeneracy(certificate=cert, witnesses=())
    assert hash(d) == hash(PencilDegeneracy(cert)) and d != PencilDegeneracy(BinaryForm.zero(QQ))
    assert EigenspaceReport((1,), (2,), True) == EigenspaceReport(
        eigenvalues_in_field=(1,), nullities=(2,), all_even=True)
    V = Subspace(Matrix(QQ, 1, 2, [[1, 0]]))
    assert MismatchRecord(V, 1, 0, None) == MismatchRecord(
        subspace=V, tangent_dim=1, expected_dim=0, degeneracy=None)
    assert VerifyReport([3], []) == VerifyReport(pair_points=[3], mismatches=[])
    assert VerifyReport([3], []).points_checked == 3
    assert a != VerifyReport([3], []) and "tangent_dim=2" in repr(a)


def _value_cases():
    """(two equal values built apart, a different value of the same type or
    None, an object of another class) for every value type."""
    F3 = PrimeField(3)

    def M(rows):
        return Matrix(F3, len(rows), len(rows[0]), rows)

    J = standard_form(4, F3)
    J2 = SymplecticForm(J.gram.scale(2))
    K = SymplecticForm(half_standard_gram(F3))
    A = M([[0, 1], [2, 0]])
    return {
        "F_3": (PrimeField(3), PrimeField(3), PrimeField(5), QQ),
        "Q": (RationalField(), QQ, None, F3),
        "Matrix": (M([[1, 2], [0, 1]]), M([[1, 2], [0, 1]]), M([[1, 2], [0, 2]]),
                   [[1, 2], [0, 1]]),
        "SymplecticForm": (standard_form(4, F3), J, J2, J.gram),
        "FormSpace": (FormSpace([J, K]), FormSpace([standard_form(4, F3), K]),
                      FormSpace([K, J]), (J, K)),
        "Subspace": (Subspace(M([[1, 0, 1, 0], [0, 1, 0, 1]])),
                     Subspace(M([[1, 1, 1, 1], [0, 2, 0, 2]])),
                     Subspace(M([[1, 0, 0, 0], [0, 1, 0, 0]])),
                     M([[1, 0, 1, 0], [0, 1, 0, 1]])),
        "BinaryForm": (BinaryForm(F3, 2, [1, 0, 1]), BinaryForm(F3, 2, [1, 0, 1]),
                       BinaryForm(F3, 2, [1, 1, 1]), (1, 0, 1)),
        "PhiKernelElement": (PhiKernelElement([A]), PhiKernelElement([M([[0, 1], [2, 0]])]),
                             PhiKernelElement([A.scale(2)]), (A,)),
    }


@pytest.mark.parametrize("name", list(_value_cases()))
def test_value_types_are_equal_and_hash_equal_by_their_fields(name):
    a, b, other, foreign = _value_cases()[name]
    assert a is not b
    assert a == b and hash(a) == hash(b) and not a != b
    if other is not None:
        assert a != other and not a == other
    assert a != foreign and foreign != a and not a == foreign
    if isinstance(a, Field):
        with pytest.raises(FieldMismatchError):
            a.require_same(foreign)


@pytest.mark.parametrize("F", [PrimeField(3), QQ], ids=["F_3", "Q"])
def test_require_same_passes_one_field_without_comparing_it(monkeypatch, F):
    def no_comparison(self, other):
        raise AssertionError("compared a field with itself")

    monkeypatch.setattr(_Record, "__eq__", no_comparison)
    F.require_same(F)
    A = Matrix(F, 2, 2, [[1, 2], [0, 1]])
    assert A.add(A).rows == A.scale(2).rows
    assert A.mul(A).rows == ((1, F.element(4)), (0, 1))


def test_msg_expected_dim():
    for n in (4, 6, 10):
        for m in (1, 2, 5):
            assert msg_expected_dim(n, 1, m) == n - 1
    assert msg_expected_dim(4, 2, 2) == 2
    assert msg_expected_dim(4, 2, 1) == 3
    assert msg_expected_dim(4, 2, 5) == -1  # negative values returned verbatim


# --- constraint assembly -----------------------------------------------------------

def test_constraint_row_single_form():
    F = QQ
    fs = FormSpace([SymplecticForm(half_standard_gram(F))])
    V = Subspace(Matrix(F, 2, 4, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    ctx = PointContext(V, fs)
    # default complement is (e3, e4)
    assert ctx.complement == Matrix(F, 2, 4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    C = build_constraints(ctx)
    # single condition: F[2,1] - F[1,2] in 1-based grid coordinates
    assert C.shape == (1, 4)
    assert C.rows[0] == (0, -1, 1, 0)


def test_constraints_k1_empty():
    F = PrimeField(5)
    fs = FormSpace([standard_form(4, F)])
    V = Subspace(Matrix(F, 1, 4, [[1, 0, 0, 0]]))
    ctx = PointContext(V, fs)
    assert build_constraints(ctx).shape == (0, 3)
    rep = tangent_report(ctx)
    assert rep.tangent_dim == 3 and rep.phi_kernel == []


def test_rank_independent_of_complement():
    rng = Random(101)
    for field in (PrimeField(5), QQ):
        for _ in range(5):
            ctx = sample_context(6, 2, 2, field, rng)
            base_rank = build_constraints(ctx).rank()
            for _ in range(10):
                C = random_complement(ctx.subspace, rng)
                alt = PointContext(ctx.subspace, ctx.forms, complement=C)
                assert build_constraints(alt).rank() == base_rank


def test_rank_independent_of_basis():
    rng = Random(103)
    F = PrimeField(7)
    for _ in range(5):
        ctx = sample_context(6, 3, 2, F, rng)
        base = tangent_report(ctx)
        for _ in range(10):
            U = random_invertible(F, ctx.k, rng)
            alt = PointContext(ctx.subspace, ctx.forms, basis=U.mul(ctx.basis))
            rep = tangent_report(alt)
            assert rep.tangent_dim == base.tangent_dim
            assert rep.phi_rank == base.phi_rank


@pytest.mark.parametrize("F", [PrimeField(3), QQ], ids=str)
def test_tangent_report_takes_one_elimination(monkeypatch, F):
    # the rank is the pivot count of the RREF the left kernel is read from; at
    # m = 3 no pencil is checked, so that RREF is the report's one elimination
    ctx = sample_context(6, 2, 3, F, Random(149))
    calls = {"rank": 0, "rref": 0}
    for name in calls:
        method = getattr(type(F), name)

        def counting(self, *args, name=name, method=method):
            calls[name] += 1
            return method(self, *args)

        monkeypatch.setattr(type(F), name, counting)
    report = tangent_report(ctx)
    assert calls == {"rank": 0, "rref": 1}
    assert report.phi_rank == build_constraints(ctx).rank()


def test_point_context_validation():
    F = QQ
    fs = FormSpace([standard_form(4, F)])
    V = Subspace(Matrix(F, 2, 4, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    with pytest.raises(ValueError, match="not isotropic"):
        PointContext(V, fs)
    good = FormSpace([SymplecticForm(half_standard_gram(F))])
    with pytest.raises(ValueError, match="complement"):
        PointContext(V, good, complement=V.basis)
    with pytest.raises(ValueError, match="basis"):
        PointContext(V, good, basis=Matrix(F, 2, 4, [[0, 0, 1, 0], [0, 0, 0, 1]]))


@pytest.mark.parametrize("F", [PrimeField(5), QQ], ids=str)
def test_point_context_refuses_a_complement_that_does_not_complete_the_basis(F):
    # a caller's complement is checked for its field and its shape, then ranked
    # with the working basis; a random complement of V passes all three
    ctx = sample_context(6, 2, 2, F, Random(163))
    V, fs, rng = ctx.subspace, ctx.forms, Random(167)
    for other in ([PrimeField(7), QQ] if F != QQ else [PrimeField(5)]):
        e = Matrix(other, 4, 6, [[int(j == i + 2) for j in range(6)] for i in range(4)])
        with pytest.raises(FieldMismatchError) as info:
            PointContext(V, fs, complement=e)
        assert str(info.value) == f"mixed fields: {F} vs {other}"
    for _ in range(5):
        C = random_complement(V, rng)
        assert PointContext(V, fs, complement=C).complement == C
        repeated = Matrix(F, 4, 6, [V.basis.rows[rng.randrange(2)]] + list(C.rows[1:]))
        with pytest.raises(ValueError) as info:
            PointContext(V, fs, complement=repeated)
        assert str(info.value) == "basis plus complement do not span the ambient space"
        for rows in (C.rows[1:], C.rows + V.basis.rows[:1]):
            with pytest.raises(ValueError) as info:
                PointContext(V, fs, complement=Matrix(F, len(rows), 6, rows))
            assert str(info.value) == "complement has the wrong shape"


@pytest.mark.parametrize("field", [PrimeField(3), PrimeField(7), QQ], ids=str)
def test_point_context_names_the_first_non_isotropic_pairing(field):
    # the message carries exactly the (t, i, j, value) of isotropy_failure;
    # half the points are isotropic for form 0, so form 1 gets named too
    rng = Random(97)
    named = set()
    for trial in range(60):
        fs = random_form_space(6, 2, field, rng)
        if trial % 2:
            V = random_isotropic_subspace(3, FormSpace(fs.forms[:1]), rng)
        else:
            V = Subspace.from_span(random_matrix(field, 3, 6, rng))
        bad = isotropy_failure(V, fs)
        if bad is None:
            PointContext(V, fs)
            continue
        t, i, j, val = bad
        with pytest.raises(ValueError) as info:
            PointContext(V, fs)
        assert str(info.value) == \
            f"subspace is not isotropic for form {t}: <v_{i + 1}, v_{j + 1}> = {val}"
        named.add(t)
    assert named == {0, 1}


# --- m = 1 smoothness ----------------------------------------------------------------

def test_single_form_always_expected_dim():
    rng = Random(107)
    fs = random_form_space(6, 1, PrimeField(5), rng)
    for k in (1, 2, 3):
        for _ in range(10):
            V = random_isotropic_subspace(k, fs, rng)
            rep = tangent_report(PointContext(V, fs))
            assert rep.tangent_dim == rep.expected_dim


# --- the recorded degenerate instance -------------------------------------------------

def test_degenerate_instance_report(degenerate_ctx):
    rep = tangent_report(degenerate_ctx)
    assert rep.expected_dim == 2
    assert rep.tangent_dim == 3
    assert rep.phi_rank == 1
    assert len(rep.phi_kernel) == 1
    assert rep.degeneracy is not None
    assert len(rep.degeneracy.witnesses) == 1
    (l1, l2), W = rep.degeneracy.witnesses[0]
    assert (l1, l2) == (Fraction(1), Fraction(-1))
    assert W == degenerate_ctx.subspace  # V' is V itself
    # certificate is u + v up to normalization
    assert rep.degeneracy.certificate.degree == 1
    assert rep.degeneracy.certificate.coeffs == (Fraction(1), Fraction(1))


def test_degenerate_instance_restrictions_are_identity(degenerate_ctx):
    R1, R2 = degenerate_ctx.restrictions
    I2 = Matrix.identity(QQ, 2)
    assert R1 == I2 and R2 == I2


# --- j_V -------------------------------------------------------------------------------

def test_j_V_standard_example():
    F = QQ
    fs = FormSpace([SymplecticForm(half_standard_gram(F))])
    V = Subspace(Matrix(F, 2, 4, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    ctx = PointContext(V, fs)
    # e1 tensor the form pairs e3 only
    elem = Matrix(F, 2, 1, [[1], [0]])
    assert j_V(ctx, elem) == (Fraction(1), Fraction(0))
    zero = Matrix.zeros(F, 2, 1)
    assert j_V(ctx, zero) == (Fraction(0), Fraction(0))


def test_j_V_linearity(degenerate_ctx):
    rng = Random(109)
    F = degenerate_ctx.field
    for _ in range(20):
        x = Matrix(F, 2, 2, [[F.random(rng) for _ in range(2)] for _ in range(2)])
        y = Matrix(F, 2, 2, [[F.random(rng) for _ in range(2)] for _ in range(2)])
        lhs = j_V(degenerate_ctx, x.add(y))
        rhs = tuple(F.add(a, b) for a, b in
                    zip(j_V(degenerate_ctx, x), j_V(degenerate_ctx, y)))
        assert lhs == rhs


def test_j_V_shape_check(degenerate_ctx):
    with pytest.raises(ValueError):
        j_V(degenerate_ctx, Matrix.zeros(QQ, 3, 2))


# --- kernel decoding -----------------------------------------------------------------

def test_decode_k2_structure(degenerate_ctx):
    rep = tangent_report(degenerate_ctx)
    kelem = rep.phi_kernel[0]
    gens, ok = decode_kernel_element(degenerate_ctx, kelem)
    assert ok and len(gens) == 2
    # at k = 2 the generators are v2 (x) eta and -v1 (x) eta for
    # eta = sum_t a[1][2][t] <,>_t
    eta = [kelem.matrices[0].entry(0, 1), kelem.matrices[1].entry(0, 1)]
    assert gens[0].rows == ((0, 0), (eta[0], eta[1]))
    assert gens[1].rows == ((-eta[0], -eta[1]), (0, 0))


def test_decode_rejects_mismatched_element(degenerate_ctx):
    F = QQ
    alien = PhiKernelElement.from_flat(F, 3, 2, [F.one] + [F.zero] * 5)
    with pytest.raises(ValueError):
        decode_kernel_element(degenerate_ctx, alien)


def test_decode_flags_an_element_outside_the_kernel():
    # span(e1, e2) for [[0, I], [-I, 0]]: the one constraint row is nonzero, so
    # ker Phi is 0 and a nonzero element's generators leave ker j_V
    F = QQ
    fs = FormSpace([SymplecticForm(half_standard_gram(F))])
    ctx = PointContext(Subspace(Matrix(F, 2, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])), fs)
    assert tangent_report(ctx).phi_kernel == []
    gens, ok = decode_kernel_element(ctx, PhiKernelElement.from_flat(F, 2, 1, [F.one]))
    assert not ok
    assert [g.rows for g in gens] == [((0,), (1,)), ((-1,), (0,))]


def test_kernel_element_must_be_nonzero():
    F = QQ
    with pytest.raises(ValueError):
        PhiKernelElement.from_flat(F, 2, 2, [F.zero, F.zero])


def _check_kernel_soundness(ctx):
    """Left-kernel coefficients annihilate the constraint rows exactly, and
    decoded generators always land in ker j_V.  Returns #elements checked."""
    rep = tangent_report(ctx)
    C = build_constraints(ctx)
    for kelem in rep.phi_kernel:
        flat = []
        for t in range(ctx.m):
            for i in range(ctx.k):
                for j in range(i + 1, ctx.k):
                    flat.append(kelem.matrices[t].entry(i, j))
        vec = Matrix(ctx.field, 1, len(flat), [flat])
        assert vec.mul(C).is_zero()
        _, ok = decode_kernel_element(ctx, kelem)
        assert ok
    return len(rep.phi_kernel)


def test_kernel_soundness_exhaustive_small_field(degenerate_ctx):
    checked = _check_kernel_soundness(degenerate_ctx)
    rng = Random(113)
    F3 = PrimeField(3)
    for _ in range(8):
        fs = random_form_space(4, 2, F3, rng)
        for V in enumerate_isotropic_subspaces(2, fs):
            checked += _check_kernel_soundness(PointContext(V, fs))
    assert checked >= 2  # kernel elements genuinely occurred


# --- pencil degeneracy ----------------------------------------------------------------

def test_pencil_k1_none():
    rng = Random(127)
    F = PrimeField(5)
    fs = random_form_space(4, 2, F, rng)
    V = random_isotropic_subspace(1, fs, rng)
    assert find_degenerate_pencil(PointContext(V, fs)) is None


@pytest.mark.parametrize("F", [PrimeField(5), QQ], ids=str)
def test_zero_restrictions_degenerate_at_every_pencil_point(F):
    # every (k-1)-minor vanishes: the zero certificate, and the two basis
    # points of the pencil as witnesses, each killing the whole subspace
    basis = Matrix(F, 2, 4, [[1, 0, 2, 0], [0, 1, 0, 3]])
    zero = Matrix.zeros(F, 2, 2).rows
    degeneracy = _pencil_degeneracy(F, zero, zero, basis.rows)
    assert degeneracy.identically_degenerate and degeneracy.certificate.is_zero()
    assert degeneracy.witnesses == (((F.one, F.zero), Subspace(basis)),
                                    ((F.zero, F.one), Subspace(basis)))


def test_pencil_requires_m2():
    rng = Random(131)
    F = PrimeField(5)
    fs = random_form_space(6, 3, F, rng)
    V = random_isotropic_subspace(2, fs, rng)
    ctx = PointContext(V, fs)
    with pytest.raises(ValueError, match="needs m = 2"):
        find_degenerate_pencil(ctx)
    # a sub-pencil is the point taken with the two-form FormSpace
    f0, _, f2 = fs.forms
    R0, _, R2 = ctx.restrictions
    assert find_degenerate_pencil(PointContext(V, FormSpace([f0, f2]))) == _pencil_degeneracy(
        F, R0.rows, R2.rows, ctx.basis.rows)


def test_pencil_matches_tangent_dim_generic():
    # the two sides of the equivalence, point by random point
    rng = Random(137)
    F = PrimeField(5)
    hits = {True: 0, False: 0}
    for _ in range(60):
        ctx = sample_context(4, 2, 2, F, rng)
        rep = tangent_report(ctx)
        assert (rep.tangent_dim == rep.expected_dim) == (rep.degeneracy is None)
        hits[rep.degeneracy is None] += 1
    assert hits[True] > 0  # generic points are non-degenerate


def test_pencil_scaling_invariance():
    rng = Random(139)
    F = PrimeField(7)
    for _ in range(10):
        ctx = sample_context(4, 2, 2, F, rng)
        scaled_forms = FormSpace([
            SymplecticForm(ctx.forms.grams()[0].scale(3)),
            ctx.forms.forms[1],
        ])
        a = tangent_report(ctx)
        b = tangent_report(PointContext(ctx.subspace, scaled_forms))
        assert (a.degeneracy is None) == (b.degeneracy is None)
        assert a.tangent_dim == b.tangent_dim


def _congruent_forms(fs, g):
    """The forms G_t -> g G_t g^T.  With subspaces moved by V -> V g^-1 (row
    vectors), (v g^-1)(g G_t g^T)(w g^-1)^T = v G_t w^T keeps every pairing."""
    return FormSpace([SymplecticForm(g.mul(G).mul(g.transpose())) for G in fs.grams()])


def _invariance_points(F, rng):
    """(pencil, point) pairs for the invariance tests: the recorded degenerate instance,
    which has integer entries and Pfaffians +-1, so it is one over every field
    (degenerate at lambda = (1, -1), with witness V), four times, then sampled points."""
    fs, V = degenerate_instance()
    points = [(FormSpace([SymplecticForm(Matrix(F, 4, 4, [[int(x) for x in r] for r in G.rows]))
                          for G in fs.grams()]),
               Subspace(Matrix(F, 2, 4, [[int(x) for x in r] for r in V.basis.rows])))] * 4
    points += [(ctx.forms, ctx.subspace) for ctx in (sample_context(6, 2, 2, F, rng),
                                                      sample_context(4, 2, 2, F, rng))]
    if F != QQ:
        points += [(ctx.forms, ctx.subspace)
                   for ctx in (sample_context(6, 3, 2, F, rng) for _ in range(3))]
    return points


@pytest.mark.parametrize("F", [PrimeField(3), PrimeField(5), QQ], ids=str)
def test_tangent_report_is_invariant_under_congruence(F):
    # every dimension, the pencil decision and the witness lambdas stay; each
    # witness subspace W moves to W g^-1 with the point
    rng = Random(157)
    points = _invariance_points(F, rng)
    witnessed = 0
    for fs, V in points:
        g = random_invertible(F, fs.dim, rng)
        g_inv = inverse(g)
        a = tangent_report(PointContext(V, fs))
        b = tangent_report(PointContext(Subspace.from_span(V.basis.mul(g_inv)),
                                        _congruent_forms(fs, g)))
        assert (b.tangent_dim, b.phi_rank, len(b.phi_kernel)) == \
            (a.tangent_dim, a.phi_rank, len(a.phi_kernel))
        assert (b.degeneracy is None) == (a.degeneracy is None)
        if a.degeneracy is None:
            continue
        assert [lam for lam, _ in b.degeneracy.witnesses] == \
            [lam for lam, _ in a.degeneracy.witnesses]
        for (_, W), (_, W2) in zip(a.degeneracy.witnesses, b.degeneracy.witnesses):
            assert W2 == Subspace.from_span(W.basis.mul(g_inv))
            witnessed += 1
    assert witnessed


def _projective(F, lam):
    """lam scaled so its first nonzero coordinate is 1, as witnesses are reported."""
    l1, l2 = lam
    return (F.one, F.div(l2, l1)) if l1 else (F.zero, F.one)


@pytest.mark.parametrize("F", [PrimeField(3), PrimeField(5), QQ], ids=str)
def test_tangent_report_is_invariant_under_reparametrising_the_pencil(F):
    # w1' = a w1 + b w2 and w2' = c w1 + d w2 for an invertible M = [[a, b], [c, d]]:
    # l1' w1' + l2' w2' = (a l1' + c l2') w1 + (b l1' + d l2') w2, so each witness
    # lambda' maps to lambda ~ (a l1' + c l2', b l1' + d l2') and keeps its W
    rng = Random(157)
    witnessed = 0
    for fs, V in _invariance_points(F, rng):
        while True:
            a, b, c, d = M = F.draw(rng, 4)
            if F.sub(F.mul(a, d), F.mul(b, c)):
                try:
                    moved = FormSpace([SymplecticForm(fs.combination(M[:2])),
                                       SymplecticForm(fs.combination(M[2:]))])
                    break
                except SingularMatrixError:  # one of the new forms is degenerate
                    pass
        r, r2 = tangent_report(PointContext(V, fs)), tangent_report(PointContext(V, moved))
        assert (r2.tangent_dim, r2.phi_rank, len(r2.phi_kernel)) == \
            (r.tangent_dim, r.phi_rank, len(r.phi_kernel))
        assert (r2.degeneracy is None) == (r.degeneracy is None)
        if r.degeneracy is None:
            continue
        assert not r.degeneracy.identically_degenerate
        mapped = {_projective(F, (F.add(F.mul(a, l1), F.mul(c, l2)),
                                  F.add(F.mul(b, l1), F.mul(d, l2)))): W
                  for (l1, l2), W in r2.degeneracy.witnesses}
        assert mapped == dict(r.degeneracy.witnesses)
        witnessed += len(mapped)
    assert witnessed


def _unit_point(F, grams, k):
    """span(e_1..e_k) under the integer Gram matrices read over F, or None when a
    reduced form is degenerate or the reduced forms are dependent."""
    n = len(grams[0])
    try:
        fs = FormSpace([SymplecticForm(Matrix(F, n, n, G)) for G in grams])
    except ValueError:  # SingularMatrixError, or linearly dependent Gram matrices
        return None
    return PointContext(Subspace(Matrix(F, k, n, [[int(i == j) for j in range(n)]
                                                  for i in range(k)])), fs)


def _integer_points(rng):
    """(Gram matrices, k) with integer alternating forms that vanish on
    span(e_1..e_k) and are nondegenerate and independent over Q: the recorded
    degenerate instance, a planted one whose restrictions diag(1, 1) and
    diag(1, 4) agree mod 3 only, and three random ones per (n, k, m)."""
    with open(os.path.join(DATA_DIR, "degenerate_n4k2.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)
    planted = [[[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]],
               [[0, 0, 1, 0], [0, 0, 0, 4], [-1, 0, 0, 1], [0, -4, -1, 0]]]
    points = [(recorded["forms"], len(recorded["subspace"])), (planted, 2)]
    for n, k, m in [(4, 2, 1), (4, 2, 2), (6, 2, 1), (6, 2, 2), (6, 3, 1), (6, 3, 2),
                    (8, 2, 2), (8, 3, 1), (8, 3, 2), (8, 4, 1), (8, 4, 2)] * 3:
        while True:
            grams = [[[0] * n for _ in range(n)] for _ in range(m)]
            for G in grams:
                for i in range(n):
                    for j in range(max(i + 1, k), n):  # the k x k block on V stays 0
                        G[i][j] = rng.randint(-4, 4)
                        G[j][i] = -G[i][j]
            if _unit_point(QQ, grams, k) is not None:
                points.append((grams, k))
                break
    return points


def test_rank_mod_p_is_at_most_the_rank_over_q():
    # the constraint matrix of an integer point has integer entries, so its rank
    # mod p is at most its rank over Q, and equal unless p divides every maximal
    # nonzero minor: the planted point drops at p = 3, no point drops at 2^31 - 1
    checks, drops = 0, 0
    for grams, k in _integer_points(Random(163)):
        rank = tangent_report(_unit_point(QQ, grams, k)).phi_rank
        for p in (3, 5, 7):
            ctx = _unit_point(PrimeField(p), grams, k)
            if ctx is not None:
                reduced = tangent_report(ctx).phi_rank
                assert reduced <= rank
                checks, drops = checks + 1, drops + (reduced < rank)
        assert tangent_report(_unit_point(PrimeField(2 ** 31 - 1), grams, k)).phi_rank == rank
    assert drops >= 1 and checks >= 35


def test_pencil_witnesses_checked(degenerate_ctx):
    deg = find_degenerate_pencil(degenerate_ctx)
    for (l1, l2), W in deg.witnesses:
        comb = degenerate_ctx.forms.combination([l1, l2])
        # the combination pairs W with the complement to zero
        prod = W.basis.mul(comb).mul(degenerate_ctx.complement.transpose())
        assert prod.is_zero()
        assert W.k >= 2


def test_pencil_minor_gcd_degenerate_fabrications():
    F = QQ
    # all minors vanish identically: rank <= k-2 everywhere
    R0 = Matrix.zeros(F, 3, 3).rows
    assert _pencil_minor_gcd(F, R0, R0).is_zero()
    # too few columns for (k-1)-minors
    assert _pencil_minor_gcd(F, *[Matrix.zeros(F, 4, 2).rows] * 2).is_zero()
    # k = 0: the one minor is the empty determinant 1
    assert _pencil_minor_gcd(F, [], []) == BinaryForm(F, 0, [F.one])
    # generic full-rank pencil: constant gcd
    R1 = Matrix.identity(F, 2).rows
    R2 = Matrix(F, 2, 2, [[1, 1], [0, 1]]).rows
    g = _pencil_minor_gcd(F, R1, R2)
    assert g.is_constant() and not g.is_zero()


def _minors(R1, R2):
    """Every (k-1)-minor of u*R1 + v*R2 as a univariate at v = 1, zeros included."""
    F = R1.field
    k, w = R1.shape
    return [pmat_det(F, [[[R2.entry(i, a), R1.entry(i, a)] for a in cols] for i in rows])
            for rows in itertools.combinations(range(k), k - 1)
            for cols in itertools.combinations(range(w), k - 1)]


def _reference_gcd(F, minors, degree):
    """Gcd of binary forms of formal degree `degree`, given at v = 1: the gcd of the
    nonzero univariates and the least degree deficit, with no early exit; zero form
    when every one is zero."""
    g, v_mult = [], None
    for det in filter(None, minors):
        g = pgcd(F, g, det)
        v = degree - pdeg(det)
        v_mult = v if v_mult is None else min(v_mult, v)
    if v_mult is None:
        return BinaryForm.zero(F)
    return BinaryForm.from_univariate(F, g, pdeg(g) + v_mult)


def _eager_minor_gcd(R1, R2):
    """Reference: the gcd of every (k-1)-minor of u*R1 + v*R2; no minors give zero."""
    return _reference_gcd(R1.field, _minors(R1, R2), R1.nrows - 1)


@st.composite
def _pencils(draw, ks=(1, 4)):
    """(R1, R2) of one k x w shape, k in the range `ks`, over F_3, F_5 or Q, random
    or structured: equal, zero, both through one rank <= k-2 factor (rank-deficient
    pencil), or R1 alone of rank <= k-2 (v divides every minor)."""
    F = draw(st.sampled_from([PrimeField(3), PrimeField(5), QQ]))
    scalars = (st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)) if F == QQ
               else st.integers(0, F.p - 1))
    k, w = draw(st.integers(*ks)), draw(st.integers(0, 4))

    def mat(r, c):
        return Matrix(F, r, c, draw(st.lists(st.lists(scalars, min_size=c, max_size=c),
                                             min_size=r, max_size=r)))

    R1, R2 = mat(k, w), mat(k, w)
    shape = draw(st.sampled_from(["random", "equal", "zero", "low_rank", "v_factor"]))
    if shape == "equal":
        R2 = R1
    elif shape == "zero":
        R1 = R2 = Matrix.zeros(F, k, w)
    elif shape in ("low_rank", "v_factor"):
        L = mat(k, draw(st.integers(0, max(0, k - 2))))
        R1 = L.mul(mat(L.ncols, w))
        if shape == "low_rank":
            R2 = L.mul(mat(L.ncols, w))
    return R1, R2


@settings(max_examples=300, deadline=None)
@given(_pencils())
@example((Matrix.identity(QQ, 1), Matrix.zeros(QQ, 1, 1)))  # k = 1
@example((Matrix.zeros(QQ, 4, 2),
          Matrix(QQ, 4, 2, [[1, 0], [0, 1], [1, 1], [0, 0]])))  # k - 1 > w
@example((Matrix(PrimeField(3), 3, 3, [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
          Matrix.identity(PrimeField(3), 3)))  # rank R1 = k - 2: common v-factor
@example((Matrix(PrimeField(5), 2, 2, [[1, 2], [0, 3]]),
          Matrix(PrimeField(5), 2, 2, [[2, 4], [0, 1]])))  # k = 2, proportional
@example((Matrix(PrimeField(5), 2, 1, [[0], [1]]),
          Matrix(PrimeField(5), 2, 1, [[1], [0]])))  # k = 2, rank 2 through zeros
def test_pencil_minor_gcd_matches_eager_reference(pencil):
    R1, R2 = pencil
    eager = _eager_minor_gcd(R1, R2)
    assert _pencil_minor_gcd(R1.field, R1.rows, R2.rows) == eager
    if R1.nrows == 2:
        # k = 2: no degenerate pencil point iff [vec R1; vec R2] has rank 2
        flat = Matrix(R1.field, 2, 2 * R1.ncols,
                      [[x for row in R.rows for x in row] for R in (R1, R2)])
        assert (flat.rank() == 2) == (eager.is_constant() and not eager.is_zero())


@settings(max_examples=300, deadline=None)
@given(_pencils())
def test_pencil_minor_gcd_divides_every_minor_with_coprime_quotients(pencil):
    R1, R2 = pencil
    F, k = R1.field, R1.nrows
    cert = _pencil_minor_gcd(F, R1.rows, R2.rows)
    minors = [det for det in _minors(R1, R2) if det]
    if not minors:
        assert cert.is_zero()
        return
    g, v = cert.univariate(), cert.v_multiplicity()
    quotient_gcd, least_deficit = [], k
    for det in minors:
        q, r = pdivmod(F, det, g)
        assert r == [] and v <= k - 1 - pdeg(det)
        quotient_gcd = pgcd(F, quotient_gcd, q)
        least_deficit = min(least_deficit, k - 1 - pdeg(det) - v)
    # the quotients, as forms of degree k - 1 - deg(cert), share no factor
    assert quotient_gcd == [F.one] and least_deficit == 0


def test_pencil_minor_gcd_builds_one_form_per_call(monkeypatch):
    built = []
    init = BinaryForm.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(BinaryForm, "__init__", counting_init)
    F = PrimeField(5)
    rng = Random(26)
    pencils = [(Matrix.zeros(F, 3, 3), Matrix.zeros(F, 3, 3)),  # every minor zero
               (Matrix.identity(F, 3), Matrix.identity(F, 3)),  # gcd (u + v)^2
               (Matrix.identity(F, 1), Matrix.zeros(F, 1, 1))]  # k = 1
    pencils += [(random_matrix(F, k, 5, rng), random_matrix(F, k, 5, rng)) for k in (2, 3, 4)]
    for R1, R2 in pencils:
        built.clear()
        _pencil_minor_gcd(F, R1.rows, R2.rows)
        assert len(built) == 1


@settings(max_examples=300, deadline=None)
@given(_pencils())
@example((Matrix.identity(QQ, 1), Matrix.zeros(QQ, 1, 1)))  # k = 1
@example((Matrix.zeros(PrimeField(3), 3, 2), Matrix.zeros(PrimeField(3), 3, 2)))  # zero
@example((Matrix.zeros(QQ, 3, 1), Matrix(QQ, 3, 1, [[1], [0], [2]])))  # k - 1 > w at k = 3
@example((Matrix.zeros(QQ, 4, 2),
          Matrix(QQ, 4, 2, [[1, 0], [0, 1], [1, 1], [0, 0]])))  # k - 1 > w at k = 4
def test_pencil_decision_is_none_exactly_at_minors_of_gcd_one(pencil):
    # the settle tests at k <= 3 and the minors behind them make one decision
    R1, R2 = pencil
    F = R1.field
    eager = _eager_minor_gcd(R1, R2)
    degeneracy = _pencil_degeneracy(F, R1.rows, R2.rows, Matrix.identity(F, R1.nrows).rows)
    assert (degeneracy is None) == (eager.is_constant() and not eager.is_zero())


@st.composite
def _quadratic_pairs(draw):
    """(F, a, b): coefficient triples of two binary quadratics over F_3, F_5,
    F_(2^31 - 1) or Q, random or structured: a zero form, a0 = 0 (u divides the
    form), or a common linear factor.  Integers range past [0, p), as the minors'
    integer lifts do, and Q draws fractions."""
    F = draw(st.sampled_from([PrimeField(3), PrimeField(5), PrimeField(2**31 - 1), QQ]))
    bound = 4 if F == QQ else 3 * F.p
    scalars = (st.builds(Fraction, st.integers(-bound, bound), st.integers(1, 3)) if F == QQ
               else st.integers(-bound, bound))

    def triple():
        return list(draw(st.tuples(scalars, scalars, scalars)))

    a, b = triple(), triple()
    shape = draw(st.sampled_from(["random", "zero", "a0_zero", "common_factor"]))
    if shape == "zero":
        a = [0, 0, 0]
    elif shape == "a0_zero":
        a[0] = 0
        if draw(st.booleans()):
            b[0] = 0  # both vanish at u = 0
    elif shape == "common_factor":
        (l0, l1), (x0, x1), (y0, y1) = (draw(st.tuples(scalars, scalars)) for _ in range(3))
        a, b = ([l0 * m0, l0 * m1 + l1 * m0, l1 * m1] for m0, m1 in ((x0, x1), (y0, y1)))
    return F, a, b


@settings(max_examples=400, deadline=None)
@given(_quadratic_pairs())
@example((PrimeField(3), [0, 0, 0], [0, 0, 0]))
@example((PrimeField(3), [0, 0, 0], [1, 0, 1]))  # the zero form against u^2 + v^2
@example((PrimeField(5), [0, 1, 0], [0, 0, 1]))  # uv and u^2: common root at (0:1)
@example((PrimeField(5), [1, 0, 0], [0, 1, 0]))  # v^2 and uv: common root at (1:0)
@example((PrimeField(5), [1, 0, 0], [0, 0, 1]))  # v^2 and u^2: coprime
@example((PrimeField(3), [1, 0, 1], [3, 1, 3]))  # u^2 + v^2 and uv, lifted past p: coprime
@example((QQ, [Fraction(1, 2), 0, -2], [1, 3, 2]))  # common root u = -1/2
def test_quadratic_resultant_is_nonzero_exactly_when_the_gcd_is_one(pair):
    F, a, b = pair
    gcd = _reference_gcd(F, [ptrim([F.element(c) for c in q]) for q in (a, b)], 2)
    assert bool(F.element(_resultant2(a, b))) == (gcd.is_constant() and not gcd.is_zero())


@settings(max_examples=300, deadline=None)
@given(_pencils(ks=(3, 3)))
@example((Matrix.identity(PrimeField(3), 3), Matrix.zeros(PrimeField(3), 3, 3)))  # minors u^2
@example((Matrix(QQ, 3, 2, [[1, 0], [0, 1], [0, 0]]),
          Matrix(QQ, 3, 2, [[0, 0], [1, 0], [0, 1]])))  # minors u^2, uv, v^2: settled
def test_resultant_settles_only_pencils_whose_minors_have_gcd_one(pencil):
    # sufficient, not necessary: a settled pencil has no degenerate point
    R1, R2 = pencil
    if _coprime_quadratic_minors(R1.field, R1.rows, R2.rows):
        gcd = _pencil_minor_gcd(R1.field, R1.rows, R2.rows)
        assert gcd.is_constant() and not gcd.is_zero()


# --- even eigenspaces ------------------------------------------------------------------

def test_even_eigenspaces_identity_pencil():
    F = PrimeField(7)
    J = standard_form(4, F).gram
    rep = check_even_eigenspaces(J, J)
    assert rep.eigenvalues_in_field == (1,)
    assert rep.nullities == (4,)
    assert rep.all_even


def test_even_eigenspaces_scalar_multiple():
    F = PrimeField(7)
    J = standard_form(4, F).gram
    rep = check_even_eigenspaces(J, J.scale(2))
    assert rep.eigenvalues_in_field == (2,)
    assert rep.nullities == (4,)


def test_even_eigenspaces_validation():
    F = PrimeField(7)
    J = standard_form(4, F).gram
    with pytest.raises(ValueError):
        check_even_eigenspaces(J, Matrix.identity(F, 4))
    with pytest.raises(ValueError):
        check_even_eigenspaces(J, Matrix.zeros(F, 4, 4))
    with pytest.raises(ValueError):
        check_even_eigenspaces(J, standard_form(6, F).gram)


def test_even_eigenspaces_randomized():
    rng = Random(149)
    for field in (PrimeField(7), QQ):
        for n in (4, 6):
            for _ in range(15):
                M1 = random_alternating_nonsingular(field, n, rng)
                M2 = random_alternating_nonsingular(field, n, rng)
                assert check_even_eigenspaces(M1, M2).all_even


@pytest.mark.parametrize("field", [PrimeField(3), PrimeField(7), QQ], ids=str)
def test_even_eigenspaces_singular_m1_raises(field):
    # det(x*M1 - M2) drops below degree n exactly when M1 is singular
    J = standard_form(4, field).gram
    for rank in (0, 2):
        with pytest.raises(ValueError, match="both matrices must be nonsingular"):
            check_even_eigenspaces(canonical_alternating(field, 4, rank), J)


def _inverse_route_eigenspaces(M1, M2):
    """Reference: N = M2*M1^{-1}, the roots of det(x*I - N), and the nullity
    of d*I - N at each; SingularMatrixError when M1 or M2 is singular."""
    F, n = M1.field, M1.nrows
    N = M2.mul(inverse(M1))
    if M2.rank() != n:
        raise SingularMatrixError("M2 is singular")
    eigenvalues = proots(F, N.char_poly())
    nullities = [n - Matrix.identity(F, n).scale(d).add(N.neg()).rank() for d in eigenvalues]
    return tuple(eigenvalues), tuple(nullities)


@st.composite
def _alternating_pencils(draw):
    """(M1, M2) alternating n x n over F_3, F_5, F_7 or Q, n in {0, 2, 4, 6}:
    random (often singular over small fields), M2 = d*M1, or planted
    P^T J P and P^T diag(d_b J) P with the d_b drawn from two values, so
    eigenvalues repeat and eigenspaces reach dimension 4 and 6."""
    F = draw(st.sampled_from([PrimeField(3), PrimeField(5), PrimeField(7), QQ]))
    scalars = (st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)) if F == QQ
               else st.integers(0, F.p - 1))
    n = draw(st.sampled_from([0, 2, 4, 6]))

    def alternating():
        M = [[F.zero] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            M[i][j] = F.element(draw(scalars))
            M[j][i] = F.neg(M[i][j])
        return Matrix(F, n, n, M)

    shape = draw(st.sampled_from(["random", "scalar", "planted"]))
    if shape == "planted":
        P = Matrix(F, n, n, [[draw(scalars) for _ in range(n)] for _ in range(n)])
        pool = [draw(scalars), draw(scalars)]
        D = [[F.zero] * n for _ in range(n)]
        for b in range(n // 2):
            d = F.element(draw(st.sampled_from(pool)))
            D[2 * b][2 * b + 1], D[2 * b + 1][2 * b] = d, F.neg(d)
        M1 = P.transpose().mul(canonical_alternating(F, n, n)).mul(P)
        return M1, P.transpose().mul(Matrix(F, n, n, D)).mul(P)
    M1 = alternating()
    if shape == "scalar":
        return M1, M1.scale(draw(scalars))
    return M1, alternating()


@settings(max_examples=250, deadline=None)
@given(_alternating_pencils())
def test_even_eigenspaces_match_the_inverse_route(pencil):
    M1, M2 = pencil
    try:
        expected = _inverse_route_eigenspaces(M1, M2)
    except SingularMatrixError:
        with pytest.raises(ValueError, match="both matrices must be nonsingular"):
            check_even_eigenspaces(M1, M2)
        return
    rep = check_even_eigenspaces(M1, M2)
    assert (rep.eigenvalues_in_field, rep.nullities) == expected
    assert rep.all_even


@st.composite
def _pfaffian_pencils(draw):
    """(M1, M2, node) alternating n x n over F_3 (n up to 8, so the lifted path
    runs at n = 6 and 8), F_5, F_7, F_(2^31 - 1) or Q: random, with M1 or M2
    of rank below n, planted P^T J P and P^T diag(d_b J) P with the d_b drawn
    from two values (repeated eigenvalues), or planted with one d_b at an
    interpolation node x in {0, ..., n/2}, returned as `node`."""
    F = draw(st.sampled_from([PrimeField(3), PrimeField(5), PrimeField(7),
                              PrimeField(2**31 - 1), QQ]))
    n = draw(st.sampled_from([0, 2, 4, 6, 8]))
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["random", "singular", "planted", "node"]))

    def scalar():
        return F.element(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if F == QQ
                         else rng.randrange(F.p))

    def alternating(rank):
        C = canonical_alternating(F, n, rank)
        P = random_invertible(F, n, rng)
        return P.transpose().mul(C).mul(P)

    if shape in ("random", "singular"):
        M1, M2 = alternating(n), alternating(n)
        if shape == "singular" and n:
            low = alternating(2 * rng.randrange(n // 2))
            M1, M2 = (low, M2) if rng.random() < 0.5 else (M1, low)
        return M1, M2, None
    P = random_invertible(F, n, rng)
    pool = [scalar(), scalar()]
    ds = [rng.choice(pool) for _ in range(n // 2)]
    node = None
    if shape == "node" and n:
        node = rng.randrange(n // 2 + 1)
        ds[rng.randrange(n // 2)] = F.element(node)
    D = [[F.zero] * n for _ in range(n)]
    for b, d in enumerate(ds):
        D[2 * b][2 * b + 1], D[2 * b + 1][2 * b] = d, F.neg(d)
    M1 = P.transpose().mul(canonical_alternating(F, n, n)).mul(P)
    return M1, P.transpose().mul(Matrix(F, n, n, D)).mul(P), node


@settings(max_examples=250, deadline=None)
@given(_pfaffian_pencils())
@example((random_alternating_nonsingular(PrimeField(3), 6, Random(5)),
          random_alternating_nonsingular(PrimeField(3), 6, Random(6)), None))
@example((random_alternating_nonsingular(PrimeField(3), 8, Random(7)),
          standard_form(8, PrimeField(3)).gram.scale(2), None))
def test_pencil_pfaffian_squares_to_the_pencil_determinant(pencil):
    M1, M2, node = pencil
    F, n = M1.field, M1.nrows
    pf, _, _, _ = _pencil_pfaffian(M1, M2)
    assert pmul(F, pf, pf) == pmat_det(F, _linear_grid(M2.neg().rows, M1.rows))
    assert len(pf) <= n // 2 + 1
    for x in range(n // 2 + 1):
        value = pfaffian(F, M1.scale(x).add(M2.neg()).rows)
        assert value == peval(F, pf, F.element(x))
        if x == node:
            assert value == 0


def test_even_eigenspaces_read_no_determinant(monkeypatch):
    def refuse(*args):
        raise AssertionError("check_even_eigenspaces called pmat_det")

    monkeypatch.setattr(tangent, "pmat_det", refuse)
    rng = Random(11)
    for F, n in ((PrimeField(3), 8), (PrimeField(7), 6), (QQ, 6)):
        M1 = random_alternating_nonsingular(F, n, rng)
        M2 = random_alternating_nonsingular(F, n, rng)
        assert check_even_eigenspaces(M1, M2).all_even


@pytest.mark.parametrize("F, ds", [
    (PrimeField(5), [1, 1, 1]),
    (PrimeField(5), [1, 2, 4]),
    (PrimeField(2**31 - 1), [3, 3, 2**30]),
    (QQ, [Fraction(2, 3), Fraction(2, 3), -5]),
    (QQ, [Fraction(-7, 11), Fraction(13, 2), 1]),
], ids=str)
def test_even_eigenspaces_lift_the_pencil_once(monkeypatch, F, ds):
    # each nullity is ranked on the lift the Pfaffian already took, so a
    # pencil costs one Field.lift however many eigenvalues it has
    lift, calls = type(F).lift, []

    def counting(self, *matrices):
        calls.append(len(matrices))
        return lift(self, *matrices)

    ds = [F.element(d) for d in ds]
    M1, M2 = _planted_pencil(F, random_invertible(F, 6, Random(173)), ds)
    monkeypatch.setattr(type(F), "lift", counting)
    rep = check_even_eigenspaces(M1, M2)
    assert calls == [2]
    assert dict(zip(rep.eigenvalues_in_field, rep.nullities)) == {d: 2 * ds.count(d) for d in ds}


def _planted_pencil(F, P, ds):
    """P^T J P and P^T diag(d_b J) P: M2 M1^{-1} is similar to diag(d_b I_2)."""
    n = P.nrows
    D = [[F.zero] * n for _ in range(n)]
    for b, d in enumerate(ds):
        D[2 * b][2 * b + 1], D[2 * b + 1][2 * b] = d, F.neg(d)
    Pt = P.transpose()
    return Pt.mul(canonical_alternating(F, n, n)).mul(P), Pt.mul(Matrix(F, n, n, D)).mul(P)


@pytest.mark.parametrize("p, n", [(3, 6), (3, 8), (5, 10)])
def test_small_p_skew_lift_matches_the_field_reference(p, n):
    # p <= n/2 leaves too few interpolation nodes: the Pfaffians of the skew lift
    # are taken over Z and reduced mod p, which must be what the reference's
    # Fraction Pfaffians of the same lift give, and the nullities, ranked mod p
    # on that lift, those of d*M1 - M2 formed in F_p
    F, rng = PrimeField(p), Random(100 * p + n)
    for trial in range(12):
        if trial % 3 == 0:
            M1, M2 = random_alternating(F, n, rng), random_alternating(F, n, rng)
        else:
            pool = [rng.randrange(p), rng.randrange(p)]
            M1, M2 = _planted_pencil(F, random_invertible(F, n, rng),
                                     [rng.choice(pool) for _ in range(n // 2)])
        pf, _, _, _ = _pencil_pfaffian(M1, M2)
        assert pf == reference_pencil_pfaffian(M1, M2)
        expected = reference_eigenspaces(M1, M2)
        if expected is None:
            with pytest.raises(ValueError, match="both matrices must be nonsingular"):
                check_even_eigenspaces(M1, M2)
            continue
        rep = check_even_eigenspaces(M1, M2)
        assert (rep.eigenvalues_in_field, rep.nullities) == expected


@pytest.mark.parametrize("F", [QQ, PrimeField(3), PrimeField(5), PrimeField(7),
                               PrimeField(2**31 - 1)], ids=str)
def test_pencil_pfaffian_over_z_matches_both_field_routes(F):
    # the integer interpolation gives what interpolating in the field gives, from
    # the field's own Pfaffians or from those of the lift, at every size up to 10:
    # random pencils, and planted ones with a repeated eigenvalue and one at a node
    rng = Random(F.p if F != QQ else 0)
    for n in range(0, 11, 2):
        for trial in range(4):
            if trial == 0 or not n:
                M1, M2 = random_alternating(F, n, rng), random_alternating(F, n, rng)
            else:
                pool = [F.element(trial), F.random(rng)]
                M1, M2 = _planted_pencil(F, random_invertible(F, n, rng),
                                         [rng.choice(pool) for _ in range(n // 2)])
            pf, _, _, _ = _pencil_pfaffian(M1, M2)
            assert pf == reference_pencil_pfaffian(M1, M2)
            assert pf == reference_lifted_pencil_pfaffian(M1, M2)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_planted_rational_pencils_with_distinct_prime_denominators(n):
    # every entry of P and every planted eigenvalue has its own prime
    # denominator, so the row scales of the lift differ row by row
    rng = Random(n)
    for _ in range(3):
        primes = iter(rng.sample(PRIMES[2:], n * n + n))
        while True:
            P = Matrix(QQ, n, n, [[Fraction(rng.randint(-5, 5), next(primes)) for _ in range(n)]
                                  for _ in range(n)])
            if P.rank() == n:
                break
            primes = iter(rng.sample(PRIMES[2:], n * n + n))
        pool = [Fraction(rng.choice((-1, 1)) * next(primes), next(primes))
                for _ in range(n // 4 + 1)]
        ds = [rng.choice(pool) for _ in range(n // 2)]
        M1, M2 = _planted_pencil(QQ, P, ds)
        rep = check_even_eigenspaces(M1, M2)
        eigenvalues = tuple(sorted(set(ds)))
        assert rep.eigenvalues_in_field == eigenvalues
        assert rep.nullities == tuple(2 * ds.count(d) for d in eigenvalues)
        assert rep.all_even
        assert (rep.eigenvalues_in_field, rep.nullities) == reference_eigenspaces(M1, M2)
        pf, _, _, _ = _pencil_pfaffian(M1, M2)
        assert pf == reference_pencil_pfaffian(M1, M2)


# --- theorem equivalence ----------------------------------------------------------------

def test_equivalence_small_exhaustive():
    rep = verify_thm_equivalence(4, 2, PrimeField(3), pairs=10,
                                 scope="exhaustive", seed=0)
    assert rep.pairs_checked == 10
    assert rep.points_checked > 0
    assert rep.mismatches == []


def test_equivalence_report_keeps_points_per_pair():
    rep = verify_thm_equivalence(4, 2, PrimeField(3), pairs=3, scope="exhaustive", seed=0)
    assert len(rep.pair_points) == rep.pairs_checked == 3
    assert rep.points_checked == sum(rep.pair_points)
    assert rep.pair_points[:2] == verify_thm_equivalence(
        4, 2, PrimeField(3), pairs=2, scope="exhaustive", seed=0).pair_points


@pytest.mark.parametrize("pairs", [0, -2])
def test_equivalence_rejects_no_pairs(pairs):
    with pytest.raises(ValueError, match="at least one pair"):
        verify_thm_equivalence(4, 2, PrimeField(3), pairs=pairs)


def test_equivalence_takes_a_pencil_count_only():
    # a given pencil is checked by verify_pair(fs, k); a list of them is no count
    fs = random_independent_pair(4, PrimeField(3), Random(7))
    with pytest.raises(TypeError):
        verify_thm_equivalence(4, 2, PrimeField(3), pairs=[fs])


@pytest.mark.parametrize("fault", [False, True], ids=["plain", "fault"])
@pytest.mark.parametrize("scope", ["exhaustive", "sampled"])
@pytest.mark.parametrize("k", [0, 3])
def test_verify_refuses_k_outside_one_to_half_n(k, scope, fault):
    # at n = 4, k = 0 has just the zero subspace and k = 3 no point at all: a
    # (faulted) run there would pass on a vacuous check
    fs = random_form_space(4, 2, PrimeField(3), Random(5))
    message = ("^fault injection needs k >= 2, got k=0:" if fault and k == 0 else
               f"^isotropic dimension must satisfy 1 <= k <= n/2 = 2, got {k}$")
    with pytest.raises(ValueError, match=message):
        verify_pair(fs, k, scope=scope, rng=Random(0), fault=fault)
    with pytest.raises(ValueError, match=message):
        verify_thm_equivalence(4, k, PrimeField(3), pairs=2, scope=scope, fault=fault)


@pytest.mark.parametrize("samples", [0, -3])
def test_equivalence_rejects_nonpositive_samples_in_sampled_scope(samples):
    with pytest.raises(ValueError, match="samples >= 1"):
        verify_thm_equivalence(4, 2, PrimeField(3), pairs=2, scope="sampled",
                               samples_per_pair=samples)


@pytest.mark.parametrize("fault", [False, True])
def test_equivalence_rejects_a_sampled_run_that_checks_no_point(fault):
    # every greedy draw stalls at n=6, k=3 over F_101: the run would pass on no point
    with pytest.raises(ValueError, match="^sampled verify checked no point: all 5 greedy"
                                         " draws of each of the 2 pairs stalled$"):
        verify_thm_equivalence(6, 3, PrimeField(101), pairs=2, scope="sampled",
                               samples_per_pair=5, fault=fault)


@pytest.mark.parametrize("scope", ["exhaustive", "sampled"])
def test_equivalence_folds_its_pairs_once(monkeypatch, scope):
    # the serial results, in pair order, go through the one fold the CLI also takes
    fold, calls = tangent._verify_report, []

    def counting(results, *rest):
        results = list(results)
        calls.append([points for _, points, _ in results])
        return fold(results, *rest)

    monkeypatch.setattr(tangent, "_verify_report", counting)
    report = verify_thm_equivalence(4, 2, PrimeField(3), pairs=3, scope=scope,
                                    samples_per_pair=5, fault=True)
    assert calls == [report.pair_points] and len(report.pair_points) == 3
    assert report.mismatches and [i for i, _, _ in report.mismatches] == sorted(
        i for i, _, _ in report.mismatches)


def test_equivalence_reads_the_budget_at_the_call(monkeypatch):
    # the exhaustive walk is sized as all C(4,2)_3 = 130 subspaces
    monkeypatch.setenv("MSGKIT_BUDGET", "129")
    with pytest.raises(BudgetExceeded, match="^enumerating 130 subspaces exceeds the budget of 129 "):
        verify_thm_equivalence(4, 2, PrimeField(3), pairs=1)
    monkeypatch.setenv("MSGKIT_BUDGET", "130")
    assert verify_thm_equivalence(4, 2, PrimeField(3), pairs=1).points_checked > 0


def test_pool_results_survive_a_pickle_round_trip(degenerate_ctx):
    # forked verify workers return FormSpace and MismatchRecord values
    result = _verify_seeded_pair(4, 2, PrimeField(3), 2, 1, scope="exhaustive", fault=True)
    assert result[2]
    assert pickle.loads(pickle.dumps(result)) == result
    fs, V = _invariance_points(PrimeField(3), Random(0))[0]
    for ctx in (PointContext(V, fs), degenerate_ctx):
        degeneracy = find_degenerate_pencil(ctx)  # a BinaryForm and Subspace witnesses
        assert degeneracy is not None
        assert pickle.loads(pickle.dumps(degeneracy)) == degeneracy


def test_equivalence_k1_trivial():
    rep = verify_thm_equivalence(4, 1, PrimeField(3), pairs=3,
                                 scope="exhaustive", seed=1)
    assert rep.mismatches == [] and rep.points_checked > 0


@pytest.mark.parametrize("scope", ["exhaustive", "sampled"])
def test_fault_injection_refuses_k1(scope):
    # m*C(1, 2) = 0 constraint rows: a k = 1 self-test has nothing to corrupt
    fs = random_form_space(4, 2, PrimeField(3), Random(5))
    with pytest.raises(ValueError, match="fault injection needs k >= 2, got k=1"):
        verify_pair(fs, 1, scope=scope, rng=Random(0), fault=True)
    with pytest.raises(ValueError, match="fault injection needs k >= 2"):
        verify_thm_equivalence(4, 1, PrimeField(3), pairs=2, scope=scope, fault=True)


def test_equivalence_sampled_scope():
    rep = verify_thm_equivalence(6, 2, PrimeField(3), pairs=3, scope="sampled",
                                 seed=2, samples_per_pair=20)
    assert rep.mismatches == []


def test_equivalence_fault_injection_trips():
    rep = verify_thm_equivalence(4, 2, PrimeField(3), pairs=3,
                                 scope="exhaustive", seed=0, fault=True)
    assert rep.mismatches


@st.composite
def _planted_pencils(draw):
    """(fs, k, lam, W) with a degenerate combination planted at lam.

    In the basis q_0..q_{n-1} (the rows of a random invertible Q), omega_2 is
    J, so W = span(q_0, q_2) is omega_2-isotropic, and omega' is a random
    nonsingular alternating block on the other coordinates, so omega' has
    rank n - 2 and radical W.  Then omega_1 = omega' - lam*omega_2 and the
    combination omega_1 + lam*omega_2 kills W against everything.  Draws
    repeat until omega_1 is nonsingular and independent of omega_2, which at
    lam = 0 never happens.
    """
    n, k, p = draw(st.sampled_from([(4, 2, 3), (4, 2, 5), (4, 2, 7), (6, 2, 3), (6, 3, 3)]))
    F = PrimeField(p)
    lam = draw(st.integers(1, p - 1))
    rng = Random(draw(st.integers(0, 2**32)))
    others = [i for i in range(n) if i not in (0, 2)]
    while True:
        Q = random_invertible(F, n, rng)
        Qi = inverse(Q)
        block = random_alternating_nonsingular(F, n - 2, rng)
        radical = [[0] * n for _ in range(n)]
        for a, i in enumerate(others):
            for b, j in enumerate(others):
                radical[i][j] = block.rows[a][b]
        # the form with Gram matrix A in the basis Q has Gram Q^-1 A Q^-T
        omega2, omega_r = (Qi.mul(A).mul(Qi.transpose())
                           for A in (canonical_alternating(F, n, n), Matrix(F, n, n, radical)))
        try:
            fs = FormSpace([SymplecticForm(omega_r.add(omega2.scale(lam).neg())),
                            SymplecticForm(omega2)])
        except ValueError:
            continue
        return fs, k, lam, Subspace.from_span(Matrix(F, 2, n, [Q.rows[0], Q.rows[2]]))


@settings(max_examples=30, deadline=None)
@given(_planted_pencils())
def test_planted_degenerate_pencils_agree_with_the_point_context_path(planted):
    # real pencils almost never reach the degenerate side; here every point
    # containing W is degenerate, with the witness (1, lam) killing W
    fs, k, lam, W = planted
    F, n = fs.field, fs.dim
    points = degenerate = through_w = 0
    ranks = set()
    for pivots, rows, restrictions in _isotropic_points(k, fs):
        V = Subspace(Matrix(F, k, n, rows))
        ctx = PointContext(V, fs)
        rank = F.rank(_constraint_rows(F, k, n - k, restrictions))
        report = tangent_report(ctx)
        degeneracy = report.degeneracy
        assert (V.pivots, rank) == (pivots, build_constraints(ctx).rank())
        # the chart differential, a second tangent formulation, and tangent_report agree
        assert chart_differential_rank(V, fs) == rank == report.phi_rank
        ranks.add(rank)
        # verify's rows give the context's answer, None exactly at minors of gcd 1
        assert _pencil_degeneracy(F, *restrictions, rows) == degeneracy
        gcd = _pencil_minor_gcd(F, *restrictions)
        assert (degeneracy is None) == (gcd.is_constant() and not gcd.is_zero())
        points += 1
        degenerate += degeneracy is not None
        if Subspace.from_span(stack(V.basis, W.basis)) == V:
            through_w += 1
            assert ((F.one, lam), W) in degeneracy.witnesses
    # W itself at k = 2; at k = 3, W plus each of the p + 1 lines of W^perp / W
    assert through_w == (1 if k == 2 else F.p + 1)
    assert degenerate >= through_w
    assert len(ranks) >= 2  # the oracle saw the full rank and a drop below it
    assert verify_pair(fs, k) == (points, [])


def _pencil_a_rank_two_form_apart(n, F, rng):
    """Forms G and G + e_1 ^ e_2: the (n-2)-dimensional kernel of their difference holds
    many degenerate points, which random pencils almost never reach."""
    A = Matrix(F, n, n, [[int((i, j) == (0, 1)) - int((i, j) == (1, 0)) for j in range(n)]
                         for i in range(n)])
    while True:
        G = random_symplectic_form(n, F, rng).gram
        if G.add(A).rank() == n:
            return FormSpace([SymplecticForm(G), SymplecticForm(G.add(A))])


_REFERENCE_VERIFY_CASES = [(3, 4, 1), (3, 4, 2), (3, 6, 1), (3, 6, 2), (3, 6, 3),
                           (5, 4, 1), (5, 4, 2), (5, 6, 1)]


@pytest.mark.parametrize("p,n,k", _REFERENCE_VERIFY_CASES,
                         ids=[f"{n}-{k}" if p == 3 else f"p{p}-{n}-{k}"
                              for p, n, k in _REFERENCE_VERIFY_CASES])
def test_reference_verify_agrees_at_every_point(p, n, k):
    # a verify from the definitions, sharing no code with msgkit, against the walk's
    # records, verify's constraint rank and its pencil decision, point by point; the
    # theorem then holds at every point on the reference's word alone.  p = 5 stops at
    # n = 6, k = 1: its k = 2 walk has 43,737 points
    F, rng = PrimeField(p), Random(10 * n + k)
    degenerate = 0
    for fs in (random_form_space(n, 2, F, rng), _pencil_a_rank_two_form_apart(n, F, rng)):
        reference = reference_verify_points(fs, k)
        assert [point[:3] for point in reference] == list(_isotropic_points(k, fs))
        for _, rows, restrictions, rank, degenerate_here in reference:
            assert F.rank(_constraint_rows(F, k, n - k, restrictions)) == rank
            assert (_pencil_degeneracy(F, *restrictions, rows) is not None) == degenerate_here
            assert (rank == k * (k - 1)) == (not degenerate_here)
            degenerate += degenerate_here
    assert (degenerate > 0) == (k >= 2)


@pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (6, 3)])
def test_verify_compares_on_a_pencil_with_many_degenerate_points(n, k):
    # verify_pair on a pencil a rank-two form apart, where the pencil side decides many
    # points degenerate: a clean run finds no mismatch at the reference's point count,
    # and the fault, which drops only a full rank, mismatches exactly at the others
    F = PrimeField(3)
    fs = _pencil_a_rank_two_form_apart(n, F, Random(n + k))
    reference = reference_verify_points(fs, k)
    degenerate = sum(point[4] for point in reference)
    assert degenerate > 0
    assert verify_pair(fs, k) == (len(reference), [])
    points, mismatches = verify_pair(fs, k, fault=True)
    assert points == len(reference) and len(mismatches) == points - degenerate
    assert all(record.degeneracy is None for record in mismatches)


def _pencil_degenerate_off_the_prime_field(p, k, w, rng):
    """(R1, R2) = (P [I] Q, P [-C] Q), k x w, for C the companion matrix of a monic g of
    degree k - 1 with no root in F_p (so irreducible at k <= 4), placed in the top-left
    corner with zeros around it, and P, Q random invertible: the one nonzero (k-1)-minor
    of x R1 + R2 before P and Q is det(x I - C) = g(x), so the pencil degenerates at the
    roots of g, outside F_p."""
    d, Fp = k - 1, reference_field(p, 1)
    g = next(g for g in ([rng.randrange(p) for _ in range(d)] for _ in itertools.count())
             if all((x ** d + sum(c * x ** i for i, c in enumerate(g))) % p for x in range(p)))
    minus_c = [[-(i == j + 1) % p if j < d - 1 else g[i] for j in range(d)] for i in range(d)]
    corner = lambda A: [[A[i][j] if i < d and j < d else 0 for j in range(w)] for i in range(k)]
    times = lambda A, B: [[sum(map(operator.mul, r, c)) % p for c in zip(*B)] for r in A]
    P, Q = (next(M for M in ([[rng.randrange(p) for _ in range(size)] for _ in range(size)]
                             for _ in itertools.count()) if Fp.rank(M) == size)
            for size in (k, w))
    return (times(times(P, corner([[int(i == j) for j in range(d)] for i in range(d)])), Q),
            times(times(P, corner(minus_c)), Q))


@pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3)])
def test_pencil_decision_matches_the_definition_level_oracle(p, k):
    # random and sparse k x w pairs, w = k-1..k+2, and at k >= 3 pairs that degenerate
    # only off F_p: `_pencil_degeneracy` finds a degenerate combination iff some point
    # of P^1(F_(p^e)), e < k, drops the rank of l R1 + m R2 to k - 2 or less
    F, Fp, rng = PrimeField(p), reference_field(p, 1), Random(10 * p + k)
    basis = [[int(i == j) for j in range(k)] for i in range(k)]
    seen = []
    for w, zeros, _ in itertools.product(range(k - 1, k + 3), (0, 0.5, 0.8, None), range(10)):
        if zeros is None:
            if k < 3:
                continue
            R1, R2 = _pencil_degenerate_off_the_prime_field(p, k, w, rng)
            assert all(Fp.rank([[(l * x + m * y) % p for x, y in zip(r1, r2)]
                                 for r1, r2 in zip(R1, R2)]) == k - 1
                       for l, m in [(0, 1)] + [(1, x) for x in range(p)])
            assert reference_pencil_degenerate(p, R1, R2)
        else:
            R1, R2 = ([[0 if rng.random() < zeros else rng.randrange(p) for _ in range(w)]
                       for _ in range(k)] for _ in range(2))
        degenerate = reference_pencil_degenerate(p, R1, R2)
        assert (_pencil_degeneracy(F, R1, R2, basis) is not None) == degenerate
        seen.append(degenerate)
    assert 0 < sum(seen) < len(seen)


def _count_verify_builds(monkeypatch):
    """Lists that grow by one per Matrix, PointContext and `_pencil_minor_gcd` call,
    and by the matrices each `_pencil_degeneracy` call built itself."""
    built, contexts, minors, pencils = [], [], [], []
    matrix_init, context = Matrix.__init__, tangent.PointContext
    minor_gcd, pencil = tangent._pencil_minor_gcd, tangent._pencil_degeneracy

    def counting_init(self, *args, **kwargs):
        built.append(1)
        matrix_init(self, *args, **kwargs)

    def counting_context(*args):
        contexts.append(1)
        return context(*args)

    def counting_minors(*args):
        minors.append(1)
        return minor_gcd(*args)

    def counting_pencil(*args):
        before = len(built)
        result = pencil(*args)
        pencils.append(len(built) - before)
        return result

    monkeypatch.setattr(Matrix, "__init__", counting_init)
    monkeypatch.setattr(tangent, "PointContext", counting_context)
    monkeypatch.setattr(tangent, "_pencil_minor_gcd", counting_minors)
    monkeypatch.setattr(tangent, "_pencil_degeneracy", counting_pencil)
    return built, contexts, minors, pencils


@pytest.mark.parametrize("n,k,seed,unsettled",
                         [(6, 2, 1, 0), (6, 2, 0, 1), (4, 1, 0, 0), (6, 3, 3, 13)])
def test_settled_points_build_no_point_context_and_no_matrix(monkeypatch, n, k, seed, unsettled):
    # the walk itself builds one system per row it solves; every point's pencil
    # is decided on its plain restriction rows, and only the pencils the settle
    # tests leave open take the minors; no point builds a PointContext, and no
    # Matrix is built outside the witnesses of a degenerate pencil; at (6, 3)
    # 4 of the 13 have excess rank, and the resultant left 9 unsettled
    fs = tangent._seeded_pencil(n, PrimeField(3), seed, 0)
    built, contexts, minors, pencils = _count_verify_builds(monkeypatch)
    walk = len(list(_isotropic_points(k, fs)))
    walk_matrices = len(built)
    built.clear()
    points, mismatches = verify_pair(fs, k)
    assert (points, mismatches, len(contexts), len(minors)) == (walk, [], 0, unsettled)
    assert (len(pencils), len(built) - sum(pencils)) == (walk, walk_matrices)


@pytest.mark.parametrize("n,k", [(6, 2), (8, 3)])
def test_sampled_points_build_no_point_context(monkeypatch, n, k):
    # a drawn point checks its own isotropy, and its restriction rows are the
    # PointContext's; at k = 3 the resultant settles most points without the minors
    fs = tangent._seeded_pencil(n, PrimeField(3), 0, 0)
    rng = Random(5)
    drawn = [V for V in (random_isotropic_subspace(k, fs, rng) for _ in range(20)) if V]
    records = list(_sampled_points(k, fs, Random(5), 20))
    assert [(pivots, rows) for pivots, rows, _ in records] == [(V.pivots, V.basis.rows)
                                                               for V in drawn]
    for (_, _, restrictions), V in zip(records, drawn):
        assert restrictions == [[list(r) for r in R.rows] for R in PointContext(V, fs).restrictions]
    _, contexts, minors, _ = _count_verify_builds(monkeypatch)
    points, _ = verify_pair(fs, k, scope="sampled", rng=Random(5), samples=20)
    assert (points, len(contexts)) == (len(drawn), 0)
    if k == 3:
        assert len(minors) < len(drawn)


def test_a_sampled_pencil_packs_its_stacked_gram_rows_once(monkeypatch):
    # the n x m n Gram rows [G_1 | G_2] are packed at a pencil's first draw and the
    # packing serves every later draw and point: once per sampled verify pair, and
    # once per scan sample, whose sampler and check share one fresh pencil
    n, F, shapes = 8, PrimeField(3), []
    multiplier = PrimeField.multiplier

    def counting(self, B):
        shapes.append((len(B), len(B[0])))
        return multiplier(self, B)

    monkeypatch.setattr(PrimeField, "multiplier", counting)
    monkeypatch.setattr(symplectic, "_LAST_PRODUCTS", (None, None))  # pack under the wrapper
    points, _ = verify_pair(tangent._seeded_pencil(n, F, 0, 0), 3, scope="sampled",
                            rng=Random(5), samples=20)
    assert points > 1 and shapes.count((n, 2 * n)) == 1
    del shapes[:]
    assert cli._scan_sample(F, n, 3, 2, 1, 0) is not None
    assert shapes.count((n, 2 * n)) == 1


@pytest.mark.parametrize("k", [2, 3])
def test_an_exhaustive_pencil_packs_its_stacked_gram_rows_once(monkeypatch, k):
    # the walk takes every row's row G_t, for both forms, from the pencil's map, so an
    # exhaustive verify pair packs the n x 2n Gram rows [G_1 | G_2] once
    n, F, shapes = 6, PrimeField(3), []
    multiplier = PrimeField.multiplier

    def counting(self, B):
        shapes.append((len(B), len(B[0])))
        return multiplier(self, B)

    monkeypatch.setattr(PrimeField, "multiplier", counting)
    monkeypatch.setattr(symplectic, "_LAST_PRODUCTS", (None, None))  # pack under the wrapper
    points, _ = verify_pair(tangent._seeded_pencil(n, F, 0, 0), k)
    assert points > 1 and shapes.count((n, 2 * n)) == 1


@pytest.mark.parametrize("F", [PrimeField(3), QQ], ids=str)
def test_given_and_sampled_points_share_one_isotropy_scan(monkeypatch, F):
    # isotropy_failure, PointContext and each sampled record scan (B G_t) B^T
    # once, by `_point_products`; k = 0 passes it with no rows
    calls = []
    scan = symplectic._point_products

    def counting(*args):
        calls.append(1)
        return scan(*args)

    monkeypatch.setattr(symplectic, "_point_products", counting)
    monkeypatch.setattr(tangent, "_point_products", counting)
    fs = tangent._seeded_pencil(6, F, 0, 0)
    V = random_isotropic_subspace(2, fs, Random(1))
    assert isotropy_failure(V, fs) is None and len(calls) == 1
    PointContext(V, fs)
    assert len(calls) == 2
    records = list(_sampled_points(2, fs, Random(5), 10))
    assert len(calls) == 2 + len(records) >= 8
    empty = Subspace(Matrix(F, 0, 6, []))
    assert isotropy_failure(empty, fs) is None
    assert [R.shape for R in PointContext(empty, fs).restrictions] == [(0, 6), (0, 6)]


@pytest.mark.parametrize("F", [PrimeField(3), QQ], ids=str)
def test_a_working_basis_forms_each_product_once(monkeypatch, F):
    # B G_t is formed for every form at once, by one application of the stacked
    # Gram multiplier to the working basis B, and shared by the isotropy scan and
    # the restrictions, with the default or a given complement; no matmul takes
    # an n x n right factor
    rng = Random(151)
    ctx = sample_context(6, 2, 2, F, rng)
    V, fs, n = ctx.subspace, ctx.forms, ctx.n
    B = random_invertible(F, 2, rng).mul(V.basis)
    C = random_complement(V, rng)
    left = []  # the left factor of each multiplier application
    multiplier, matmul = type(F).multiplier, type(F).matmul

    def counting(self, X):
        times = multiplier(self, X)

        def apply(A):
            left.append(tuple(map(tuple, A)))
            return times(A)
        return apply

    def no_square(self, A, X):
        assert not (len(X) == n and len(X[0]) == n), "a product by an n x n matrix"
        return matmul(self, A, X)

    monkeypatch.setattr(type(F), "multiplier", counting)
    monkeypatch.setattr(type(F), "matmul", no_square)
    monkeypatch.setattr(symplectic, "_LAST_PRODUCTS", (None, None))  # pack under the wrapper
    for basis, complement in ((None, None), (B, None), (B, C)):
        del left[:]
        ctx = PointContext(V, fs, complement=complement, basis=basis)
        assert left == [ctx.basis.rows]


_NON_ISOTROPIC_DRAW = """
import random
from msgkit import Matrix, PrimeField, Subspace, tangent
fs = tangent._seeded_pencil(6, PrimeField(3), 0, 0)
# span(e_1, ..., e_k) as the draw: the seeded forms do not vanish on it
tangent.random_isotropic_subspace = lambda k, fs, rng: Subspace(
    Matrix(fs.field, k, fs.dim, [[int(i == j) for j in range(fs.dim)] for i in range(k)]))
tangent.verify_pair(fs, 2, scope="sampled", rng=random.Random(0), samples=3)
"""


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimized"])
def test_a_non_isotropic_sampled_point_raises_with_and_without_asserts(flags):
    proc = subprocess.run([sys.executable, *flags, "-c", _NON_ISOTROPIC_DRAW],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.endswith("ArithmeticError: a sampled point is not isotropic\n")


def _reference_sampled_verify(n, k, field, pairs, samples, seed, fault):
    """Sampled verification the long way: a PointContext and a tangent report,
    pencil check included, at every drawn point of the seeded pencils."""
    pair_points, mismatches = [], []
    for i in range(pairs):
        fs = tangent._seeded_pencil(n, field, seed, i)
        rng = Random(derive_seed(seed, i) ^ 0xA5A5A5A5)
        points = 0
        for _ in range(samples):
            V = random_isotropic_subspace(k, fs, rng)
            if V is None:
                continue
            points += 1
            ctx = PointContext(V, fs)
            report = tangent_report(ctx)
            dim = report.tangent_dim
            if fault:  # the first constraint row zeroed
                C = build_constraints(ctx)
                dim += report.phi_rank - Matrix(field, C.nrows, C.ncols,
                                                [[0] * C.ncols, *C.rows[1:]]).rank()
            if (dim == report.expected_dim) != (report.degeneracy is None):
                record = MismatchRecord(V, dim, report.expected_dim, report.degeneracy)
                mismatches.append((i, record.encode()))
        pair_points.append(points)
    return pair_points, mismatches


@pytest.mark.parametrize("fault", [False, True], ids=["plain", "fault"])
@pytest.mark.parametrize("n,k", [(4, 1), (4, 2), (6, 2), (8, 3)])
def test_sampled_verify_over_q_matches_the_point_context_loop(n, k, fault):
    # the per-point core ranks over Q as well as over F_p, and at k = 3 takes
    # the resultants of Fraction minors
    samples = 4 if k == 3 else 15
    run = dict(pairs=2, scope="sampled", samples_per_pair=samples, seed=4, fault=fault)
    if fault and k < 2:
        with pytest.raises(ValueError, match="fault injection needs k >= 2"):
            verify_thm_equivalence(n, k, QQ, **run)
        return
    rep = verify_thm_equivalence(n, k, QQ, **run)
    got = rep.pair_points, [(i, rec.encode()) for i, _, rec in rep.mismatches]
    assert got == _reference_sampled_verify(n, k, QQ, 2, samples, 4, fault)
    if (n, k, fault) == (4, 2, True):
        assert (rep.pair_points, len(rep.mismatches)) == ([15, 15], 30)
