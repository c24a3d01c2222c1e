"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Everything asserts exact equality; the only
tolerances are the stated wall-clock budgets.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb
from random import Random

from msgkit import (
    FormSpace,
    Matrix,
    PointContext,
    PrimeField,
    QQ,
    build_constraints,
    canonical_alternating,
    check_even_eigenspaces,
    decode_kernel_element,
    derive_seed,
    enumerate_isotropic_subspaces,
    msg_expected_dim,
    random_form_space,
    random_independent_pair,
    random_invertible,
    random_isotropic_subspace,
    rho_fixed,
    rho_full,
    skew_normal_form,
    standard_form,
    tangent_report,
)
from msgkit.tangent import _seeded_pencil
from conftest import (degenerate_instance, isotropic_plane_count, random_alternating,
                      random_alternating_nonsingular, random_complement)


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    elapsed = time.time() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s")
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({elapsed:.1f}s)")


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "msgkit", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def test_criterion_01_canonical_determinant_identity():
    with criterion(1, "rho_fixed(2,2g-2,k,g) = 3g-3-k^2 on the full grid", 1.0):
        for g in range(2, 51):
            for k in range(0, 21):
                assert rho_fixed(2, 2 * g - 2, k, g) == 3 * g - 3 - k * k


def test_criterion_02_bfm_consistency():
    with criterion(2, "rho_full(2,2g-2,k,g) - g + C(k,2) = 3g-3-C(k+1,2)", 1.0):
        for g in range(2, 51):
            for k in range(0, 21):
                lhs = rho_full(2, 2 * g - 2, k, g) - g + comb(k, 2)
                assert lhs == 3 * g - 3 - comb(k + 1, 2)


def test_criterion_03_single_form_smoothness_exhaustive():
    with criterion(3, "m=1 exhaustive smoothness over F_3", 120.0):
        F3 = PrimeField(3)
        for (n, k) in [(4, 1), (4, 2), (6, 1), (6, 2), (6, 3)]:
            fs = FormSpace([standard_form(n, F3)])
            expected = msg_expected_dim(n, k, 1)
            count = 0
            for V in enumerate_isotropic_subspaces(k, fs):
                ctx = PointContext(V, fs)
                tangent = k * (n - k) - build_constraints(ctx).rank()
                assert tangent == expected, (n, k, V.basis.rows)
                count += 1
            assert count > 0


def assert_points_are_the_k2_closed_form(payload, field):
    """Each pencil's exhaustive point count is its closed-form 2-plane count."""
    n, seed = payload["input"]["n"], payload["input"]["seed"]
    assert [row["points"] for row in payload["per_pair"]] == [
        isotropic_plane_count(_seeded_pencil(n, field, seed, row["pair"]))
        for row in payload["per_pair"]]


def test_criterion_04_theorem_equivalence_cli():
    with criterion(4, "equivalence verification, exhaustive p=3 and p=5", 600.0):
        code, out = run_cli("verify", "--n", "4", "--k", "2", "--p", "3",
                            "--pairs", "100", "--scope", "exhaustive", "--seed", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["mismatch_count"] == 0
        assert payload["pairs_checked"] == 100
        assert payload["points_checked"] > 0
        assert_points_are_the_k2_closed_form(payload, PrimeField(3))

        code, out = run_cli("verify", "--n", "4", "--k", "2", "--p", "5",
                            "--pairs", "25", "--scope", "exhaustive", "--seed", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["mismatch_count"] == 0
        assert payload["pairs_checked"] == 25
        assert_points_are_the_k2_closed_form(payload, PrimeField(5))


def test_criterion_05_recorded_degenerate_point():
    with criterion(5, "recorded n=4,k=2,m=2 degenerate instance", 1.0):
        fs, V = degenerate_instance()
        rep = tangent_report(PointContext(V, fs))
        assert rep.tangent_dim == 3
        assert rep.expected_dim == 2
        assert len(rep.phi_kernel) == 1
        assert rep.degeneracy is not None
        assert len(rep.degeneracy.witnesses) == 1
        (l1, l2), W = rep.degeneracy.witnesses[0]
        assert (l1, l2) == (Fraction(1), Fraction(-1))
        assert W == V


def test_criterion_06_even_rank_and_normal_form():
    with criterion(6, "even rank + normal form, 1000 per field", 60.0):
        rng = Random(606)
        for field in (PrimeField(3), PrimeField(7), QQ):
            for i in range(1000):
                n = 2 + (i % 7)  # sizes 2..8
                M = random_alternating(field, n, rng)
                r = M.rank()
                assert r % 2 == 0
                P, rank = skew_normal_form(M)
                assert rank == r
                assert P.transpose().mul(M).mul(P) == \
                    canonical_alternating(field, n, r)


def test_criterion_07_even_eigenspace_parity():
    with criterion(7, "even eigenspace parity, 500 nonsingular pairs", 120.0):
        rng = Random(707)
        checked = 0
        for field in (PrimeField(7), QQ):
            for n in (4, 6):
                for _ in range(125):
                    M1 = random_alternating_nonsingular(field, n, rng)
                    M2 = random_alternating_nonsingular(field, n, rng)
                    rep = check_even_eigenspaces(M1, M2)
                    assert rep.all_even, (field, n, rep)
                    checked += 1
        assert checked == 500


def test_criterion_08_decoder_soundness():
    """Every kernel element arising in the criterion 4/5 workloads decodes to
    generators annihilated by j_V (replayed in-process from the same seeds)."""
    with criterion(8, "Prop.-level decoder soundness on all kernel elements", 600.0):
        elements_seen = 0

        def sweep(field, pairs, seed):
            nonlocal elements_seen
            for i in range(pairs):
                fs = random_independent_pair(4, field, Random(derive_seed(seed, i)))
                for V in enumerate_isotropic_subspaces(2, fs):
                    ctx = PointContext(V, fs)
                    rep = tangent_report(ctx)
                    for kelem in rep.phi_kernel:
                        elements_seen += 1
                        _, ok = decode_kernel_element(ctx, kelem)
                        assert ok, (field, i, V.basis.rows)

        sweep(PrimeField(3), 100, 0)   # the p=3 criterion-4 stream
        sweep(PrimeField(5), 25, 0)    # the p=5 criterion-4 stream
        fs, V = degenerate_instance()  # the criterion-5 point
        ctx = PointContext(V, fs)
        for kelem in tangent_report(ctx).phi_kernel:
            elements_seen += 1
            _, ok = decode_kernel_element(ctx, kelem)
            assert ok
        assert elements_seen > 0


def test_criterion_09_representation_independence():
    with criterion(9, "complement and basis independence on 100 points", 300.0):
        rng = Random(909)
        configs = [
            (4, 2, 1, PrimeField(5)),
            (4, 2, 2, PrimeField(5)),
            (4, 2, 2, PrimeField(7)),
            (6, 2, 2, PrimeField(3)),
            (6, 3, 1, PrimeField(3)),
            (6, 3, 2, PrimeField(7)),
            (4, 2, 2, QQ),
            (6, 2, 1, QQ),
        ]
        points = 0
        while points < 100:
            n, k, m, field = configs[points % len(configs)]
            fs = random_form_space(n, m, field, rng)
            V = random_isotropic_subspace(k, fs, rng)
            if V is None:
                continue
            points += 1
            ctx = PointContext(V, fs)
            base = tangent_report(ctx)
            for _ in range(10):
                alt = PointContext(V, fs, complement=random_complement(V, rng))
                rep = tangent_report(alt)
                assert rep.tangent_dim == base.tangent_dim
                assert rep.phi_rank == base.phi_rank
            for _ in range(10):
                U = random_invertible(field, k, rng)
                alt = PointContext(V, fs, basis=U.mul(ctx.basis))
                rep = tangent_report(alt)
                assert rep.tangent_dim == base.tangent_dim
                assert rep.phi_rank == base.phi_rank


def test_criterion_10_worker_determinism():
    with criterion(10, "byte-identical scan/verify JSON across 1 and 4 workers", 300.0):
        scan_args = ("scan", "--n", "4", "--k", "2", "--m", "2", "--p", "3",
                     "--samples", "64", "--seed", "7")
        code1, scan1 = run_cli(*scan_args, "--workers", "1")
        code4, scan4 = run_cli(*scan_args, "--workers", "4")
        assert code1 == code4 == 0
        assert scan1 == scan4 and scan1

        verify_args = ("verify", "--n", "4", "--k", "2", "--p", "3",
                       "--pairs", "8", "--scope", "exhaustive", "--seed", "5")
        code1, ver1 = run_cli(*verify_args, "--workers", "1")
        code4, ver4 = run_cli(*verify_args, "--workers", "4")
        assert code1 == code4 == 0
        assert ver1 == ver4 and ver1
