from math import comb

import pytest

from msgkit import (
    bfm_bound,
    gn_bound,
    rho2_special,
    rho_fixed,
    rho_full,
    stable_locus_inequality,
)


def test_rho_fixed_hand_values():
    # (r^2-1)(g-1) - k(k-d+r(g-1)) at r=2,d=8,k=2,g=5: 12 - 2*(2-8+8) = 8
    assert rho_fixed(2, 8, 2, 5) == 8
    assert rho_fixed(3, 0, 0, 4) == 8 * 3  # k=0 leaves (r^2-1)(g-1)
    assert rho_fixed(1, 0, 0, 7) == 0


def test_rho_fixed_canonical_determinant_simplification():
    for g in range(2, 51):
        for k in range(0, 21):
            assert rho_fixed(2, 2 * g - 2, k, g) == 3 * g - 3 - k * k


def test_rho_full_hand_values():
    # r^2(g-1)+1 - k(k-d+r(g-1)) at r=2,d=8,k=2,g=5: 16+1 - 2*2 = 13
    assert rho_full(2, 8, 2, 5) == 13
    assert rho_full(1, 3, 1, 4) == 4 - 1 * (1 - 3 + 3)  # classical curve case


def test_rho_variants_differ_by_genus():
    for g in range(2, 30):
        for r in (1, 2, 3):
            for d in (-5, 0, 7, 2 * g - 2):
                for k in (0, 1, 4):
                    assert rho_full(r, d, k, g) - rho_fixed(r, d, k, g) == g


def test_rho_param_validation():
    with pytest.raises(ValueError):
        rho_fixed(0, 1, 1, 3)
    with pytest.raises(ValueError):
        rho_fixed(2, 1, -1, 3)
    with pytest.raises(ValueError):
        rho_full(2, 1, 1, 1)


def test_rho2_special():
    # fixed variant at d=4, k=2, g=5, m=2: rho_fixed = 12 - 2*(2-4+8) = 0,
    # then 0 - 5 + 2*C(2,2... C(k,2)=1) = -3
    assert rho_fixed(2, 4, 2, 5) == 0
    assert rho2_special(4, 2, 5, 2, "fixed") == -3
    assert rho2_special(4, 2, 5, 2, "full") == -3 + 5
    with pytest.raises(ValueError):
        rho2_special(4, 2, 5, 0, "fixed")  # m >= 1 required
    with pytest.raises(ValueError):
        rho2_special(4, 2, 5, 1, "other")


def test_bfm_bound():
    assert bfm_bound(2, 1) == 2
    for g in range(2, 30):
        assert bfm_bound(g, 0) == 3 * g - 3
        for k in range(0, 12):
            assert bfm_bound(g, k) == 3 * g - 3 - comb(k + 1, 2)
            # canonical-determinant count never exceeds the BFM bound
            assert bfm_bound(g, k) >= rho_fixed(2, 2 * g - 2, k, g)


def test_bfm_bound_refusals_are_the_rho_ones():
    # one rule for genus and sections: the section count is checked first
    for g, k, message in ((1, 0, "genus must be >= 2, got 1"),
                          (5, -1, "section count must be >= 0, got -1"),
                          (1, -1, "section count must be >= 0, got -1")):
        for call in (lambda: bfm_bound(g, k), lambda: rho_fixed(2, 0, k, g)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message


def test_bfm_consistency_identity():
    # rho_full(2, 2g-2, k, g) - g + C(k,2) == 3g - 3 - C(k+1,2)
    for g in range(2, 51):
        for k in range(0, 21):
            lhs = rho_full(2, 2 * g - 2, k, g) - g + comb(k, 2)
            assert lhs == bfm_bound(g, k)
            # same identity through rho2_special with the full variant
            assert rho2_special(2 * g - 2, k, g, 1, "full") == bfm_bound(g, k)


def test_gn_bound():
    for g in range(2, 20):
        d = 2 * g - 2
        for k in range(0, 8):
            # r=2 coincides with rho2_special at m = h1
            assert gn_bound(2, d, k, g, 3) == rho2_special(d, k, g, 3, "full")
            # h1 = 1 at canonical degree reproduces the BFM bound
            assert gn_bound(2, d, k, g, 1) == bfm_bound(g, k)
        # k < r kills the binomial term
        assert gn_bound(3, d, 2, g, 5) == rho_full(3, d, 2, g) - g
    with pytest.raises(ValueError):
        gn_bound(2, 0, 1, 3, -1)


def test_stable_locus_inequality():
    assert not stable_locus_inequality(5, 0, 10)  # k=0 leaves g > 0
    assert stable_locus_inequality(10, 5, 10)     # 10 + 5*(1-10+5) - 25 < 0
    # floor semantics, including negative degree
    assert stable_locus_inequality(2, 3, 7) == (2 + 3 * (1 - 2 + 3) - 9 < 0)
    assert stable_locus_inequality(2, 3, -7) == (2 + 3 * (1 - 2 + (-4)) - 9 < 0)
