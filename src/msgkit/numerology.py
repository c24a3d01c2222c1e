"""Expected-dimension numerology for rank-2 Brill-Noether loci.

Everything here is exact integer arithmetic on closed-form expressions.
Two Brill-Noether normalizations are in circulation -- fixed determinant
and full moduli -- and they differ by exactly g; the special-determinant
bound is only consistent with the canonical-determinant bound at m = 1
under the full-moduli reading, so callers of `rho2_special` must name the
variant explicitly rather than inherit a silent default.
"""

from __future__ import annotations

from math import comb

VARIANTS = ("fixed", "full")


def _check_params(r: int, k: int, g: int) -> None:
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    if k < 0:
        raise ValueError(f"section count must be >= 0, got {k}")
    if g < 2:
        raise ValueError(f"genus must be >= 2, got {g}")


def rho_fixed(r: int, d: int, k: int, g: int) -> int:
    """(r^2 - 1)(g - 1) - k(k - d + r(g - 1)): fixed-determinant count."""
    _check_params(r, k, g)
    return (r * r - 1) * (g - 1) - k * (k - d + r * (g - 1))


def rho_full(r: int, d: int, k: int, g: int) -> int:
    """r^2(g - 1) + 1 - k(k - d + r(g - 1)): full-moduli count.

    Exceeds rho_fixed by exactly g for every parameter choice.
    """
    _check_params(r, k, g)
    return r * r * (g - 1) + 1 - k * (k - d + r * (g - 1))


def _rho(variant: str, r: int, d: int, k: int, g: int) -> int:
    if variant == "fixed":
        return rho_fixed(r, d, k, g)
    if variant == "full":
        return rho_full(r, d, k, g)
    raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


def rho2_special(d: int, k: int, g: int, m: int, variant: str) -> int:
    """rho(2, d, k, g) - g + m*C(k,2) for special determinants with h^1 >= m >= 1.

    This is the rank-two Grzegorczyk-Newstead bound gn_bound(2, d, k, g, m).
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    return gn_bound(2, d, k, g, m, variant)


def bfm_bound(g: int, k: int) -> int:
    """3g - 3 - C(k+1, 2): the canonical-determinant rank-2 bound."""
    _check_params(2, k, g)
    return 3 * g - 3 - comb(k + 1, 2)


def gn_bound(r: int, d: int, k: int, g: int, h1: int, variant: str = "full") -> int:
    """rho(r, d, k, g) - g + C(k, r) * h1: the coherent-systems conjecture bound.

    C(k, r) = 0 when k < r.  Defaults to the full-moduli rho for
    consistency with rho2_special at r = 2, m = h1.
    """
    if h1 < 0:
        raise ValueError(f"h1 must be >= 0, got {h1}")
    return _rho(variant, r, d, k, g) - g + comb(k, r) * h1


def stable_locus_inequality(g: int, k: int, d: int) -> bool:
    """True iff g + k(1 - g + floor(d/2)) - k^2 < 0 (floor also for negative d)."""
    return g + k * (1 - g + d // 2) - k * k < 0
