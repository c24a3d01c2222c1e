import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from msgkit import QQ, FieldMismatchError, Matrix, PrimeField, field_from_spec
from msgkit.fields import Field
from conftest import reference_rref


def test_inverse_mod_7():
    F = PrimeField(7)
    assert F.inv(3) == 5  # 3*5 = 15 = 1 mod 7
    for a in range(1, 7):
        assert F.mul(a, F.inv(a)) == 1


def test_rational_add():
    assert QQ.add(QQ.element("1/2"), QQ.element("1/3")) == Fraction(5, 6)


def test_neg_zero():
    F = PrimeField(5)
    assert F.neg(0) == 0
    assert QQ.neg(QQ.zero) == 0


def test_canonical_representatives():
    F = PrimeField(7)
    assert F.element(-1) == 6
    assert F.element(7) == 0
    x = QQ.element("-4/8")
    assert (x.numerator, x.denominator) == (-1, 2)
    y = QQ.element(Fraction(3, -6))
    assert (y.numerator, y.denominator) == (-1, 2)


def test_modulus_validation():
    for bad in (1, 2, 4, 9, 15, 2**31 + 11):
        with pytest.raises(ValueError):
            PrimeField(bad)
    PrimeField(3)
    PrimeField(2**31 - 1)  # largest allowed Mersenne prime


def test_division_by_zero():
    F = PrimeField(11)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(ZeroDivisionError):
        F.div(3, 0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)


def test_field_axioms_randomized():
    rng = Random(2024)
    for F in (PrimeField(3), PrimeField(101), QQ):
        for _ in range(200):
            a, b, c = (F.random(rng) for _ in range(3))
            assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.add(a, F.neg(a)) == F.zero
            assert F.sub(F.add(a, b), b) == a
            if b != F.zero:
                assert F.mul(F.div(a, b), b) == a


def test_rational_no_overflow():
    # arbitrary precision: 100-fold products stay exact
    x = Fraction(10**30 + 1, 10**15 + 3)
    acc = QQ.one
    for _ in range(100):
        acc = QQ.mul(acc, x)
    assert QQ.div(acc, x**99) == x


def test_json_scalar_roundtrip():
    F = PrimeField(13)
    for a in range(13):
        assert F.decode(F.encode(a)) == a
    for s in ("7", "-3/4", "22/7"):
        v = QQ.element(s) if "/" in s else QQ.element(int(s))
        assert QQ.decode(QQ.encode(v)) == v
    assert QQ.encode(Fraction(4, 2)) == 2  # integral rationals encode as ints
    assert QQ.encode(Fraction(-3, 4)) == "-3/4"


def test_field_from_spec_roundtrip():
    for F in (PrimeField(5), QQ):
        assert field_from_spec(F.spec()) == F
    with pytest.raises(ValueError):
        field_from_spec({"kind": "complex"})
    with pytest.raises(ValueError):
        field_from_spec({"kind": "prime"})


def test_mixed_field_matrices_rejected():
    A = Matrix(PrimeField(5), 1, 1, [[1]])
    B = Matrix(PrimeField(7), 1, 1, [[1]])
    with pytest.raises(FieldMismatchError):
        A.mul(B)
    with pytest.raises(FieldMismatchError):
        A.add(B)


def test_scalar_type_checks():
    F = PrimeField(5)
    with pytest.raises(TypeError):
        F.element(1.5)
    with pytest.raises(TypeError):
        F.element(True)
    with pytest.raises(TypeError):
        QQ.element(0.5)


def test_rational_zero_denominator_is_a_value_error():
    # element and decode agree, also behind the public Matrix constructor
    for parse in (QQ.element, QQ.decode):
        with pytest.raises(ValueError, match="zero denominator"):
            parse("1/0")
    with pytest.raises(ValueError, match="zero denominator"):
        Matrix(QQ, 1, 1, [["1/0"]])


def test_rational_strings_other_than_integers_and_a_over_b_are_value_errors():
    # Fraction would take these; "1e10000000" alone builds a 10^7-digit integer
    for bad in ("1e10000000", "1e5", "2.5", " 3", "-3/-4"):
        for parse in (QQ.element, QQ.decode):
            with pytest.raises(ValueError, match="integer or 'a/b'"):
                parse(bad)
        with pytest.raises(ValueError, match="integer or 'a/b'"):
            Matrix(QQ, 1, 1, [[bad]])
    assert [QQ.element(s) for s in ("+3", "007", "-4/8")] == [3, 7, Fraction(-1, 2)]


@st.composite
def _rational_strings(draw):
    """Strings of the grammar [+-]?[0-9]+(/[0-9]+)?: signs, leading zeros, zero
    numerators and unreduced fractions, at heights up to 2^200."""
    def digits():
        value = draw(st.one_of(st.integers(0, 9), st.integers(0, 2**200)))
        return "0" * draw(st.integers(0, 3)) + str(value)

    text = draw(st.sampled_from(["", "+", "-"])) + digits()
    if draw(st.booleans()):
        denominator = digits()
        if int(denominator) == 0:
            denominator += "1"
        if draw(st.booleans()):  # unreduced: a common factor on both sides
            k = draw(st.integers(2, 2**64))
            text = f"{text[0] if text[0] in '+-' else ''}{int(text.lstrip('+-')) * k}"
            denominator = str(int(denominator) * k)
        text += "/" + denominator
    return text


@settings(max_examples=400, deadline=None)
@given(_rational_strings())
def test_rational_string_parse_matches_fraction(text):
    # the two integer groups of the grammar's match, not a second parse by Fraction(str)
    x = QQ.element(text)
    assert type(x) is Fraction and x == Fraction(text) == QQ.decode(text)


def test_rational_string_refusals_keep_their_messages():
    limit = sys.get_int_max_str_digits()
    for text in ("1/0", "-0/0", "+00/000"):
        for parse in (QQ.element, QQ.decode):
            with pytest.raises(ValueError) as info:
                parse(text)
            assert str(info.value) == f"rational scalar has zero denominator: {text!r}"
    for text in ("1" * (limit + 1), "-" + "7" * (limit + 1), "1/" + "0" * (limit + 1),
                 "0" * (limit + 1) + "/0", "3/" + "9" * (limit + 1)):
        for parse in (QQ.element, QQ.decode):
            with pytest.raises(ValueError) as info:
                parse(text)
            assert str(info.value) == (f"rational scalar {text[:40]!r}... ({len(text)} characters)"
                                       f" exceeds the limit of {limit} digits per integer")
    assert QQ.element("0" * limit) == 0
    assert QQ.element("-" + "9" * limit + "/" + "3" * limit) == -3


# the multiplier's primes: slots of 1, 2, 4 and 8 bytes, and wider than a machine word
_MULTIPLIER_PRIMES = [3, 5, 7, 251, 257, 65521, 2**31 - 1]


@st.composite
def _multiplier_operands(draw):
    """(p, A, B): A with 0-5 rows and B with 1-40 rows and columns over F_p, their
    entries random residues or only 0, 1 and p - 1, which fill every slot to its top."""
    p = draw(st.sampled_from(_MULTIPLIER_PRIMES))
    k, r, c = draw(st.integers(0, 5)), draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = Random(draw(st.integers(0, 2**32)))
    values = range(p) if draw(st.booleans()) else (0, 1, p - 1)
    matrix = lambda rows, cols: [[rng.choice(values) for _ in range(cols)] for _ in range(rows)]
    return p, matrix(k, r), matrix(r, c)


@settings(max_examples=200, deadline=None)
@given(_multiplier_operands())
def test_prime_field_multiplier_matches_the_dot_products_and_the_generic_matmul(operands):
    p, A, B = operands
    F = PrimeField(p)
    assert F.multiplier(B)(A) == F.matmul(A, B) == Field.matmul(F, A, B)


@pytest.mark.parametrize("p", [2**31 - 1, 65521, 3])
def test_multiplier_at_the_largest_dot_products(p):
    # every entry p - 1: each slot holds exactly len(B) (p - 1)^2; at p = 2^31 - 1 and
    # 8 rows that needs 65 bits, so the slots are cut as byte slices, not machine words
    F = PrimeField(p)
    for r in (1, 2, 7, 8, 40):
        A, B = [[p - 1] * r] * 3, [[p - 1] * 5] * r
        expected = [[r * (p - 1) ** 2 % p] * 5] * 3
        assert F.multiplier(B)(A) == F.matmul(A, B) == expected
    assert (8 * (2**31 - 2) ** 2).bit_length() > 64


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5), st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32))
def test_rational_multiplier_matches_fraction_dot_products(k, r, c, seed):
    rng = Random(seed)
    A = [[QQ.random(rng) for _ in range(r)] for _ in range(k)]
    B = [[QQ.random(rng) for _ in range(c)] for _ in range(r)]
    expected = [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*B)]
                for row in A]
    assert QQ.multiplier(B)(A) == QQ.matmul(A, B) == expected


@st.composite
def _extend_rows(draw):
    """(field, n, rows) over F_3, F_(2^31 - 1) or Q: up to n + 3 rows of length n, each
    random, zero, or a planted combination of the rows before it."""
    field = draw(st.sampled_from([PrimeField(3), PrimeField(2**31 - 1), QQ]))
    n = draw(st.integers(1, 7))
    rng, rows = Random(draw(st.integers(0, 2**32))), []
    for kind in draw(st.lists(st.sampled_from(["random", "zero", "dependent"]), max_size=n + 3)):
        if kind == "zero":
            rows.append([field.zero] * n)
        elif kind == "dependent" and rows:
            v = [field.zero] * n
            for row in rows:
                f = field.random(rng)
                v = [field.add(x, field.mul(f, y)) for x, y in zip(v, row)]
            rows.append(v)
        else:
            rows.append(field.draw(rng, n))
    return field, n, rows


@settings(max_examples=300, deadline=None)
@given(_extend_rows())
def test_extend_keeps_the_rref_of_the_rows_so_far(case):
    # the Gauss-Jordan oracle eliminates column by column, apart from any `Field` kernel
    field, n, rows = case
    kept = {}
    for i, v in enumerate(rows):
        before, given_row = {c: list(r) for c, r in kept.items()}, list(v)
        pivot = field.extend(kept, v)
        R, rank, pivots = reference_rref(field, rows[:i + 1], n)
        assert v == given_row
        assert tuple(sorted(kept)) == pivots and [kept[c] for c in pivots] == R[:rank]
        if pivot is None:
            assert rank == len(before) and kept == before
        else:
            assert rank == len(before) + 1 and pivot not in before
        assert field.rref(rows[:i + 1]) == (R[:rank], pivots)
