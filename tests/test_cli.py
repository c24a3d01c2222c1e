import concurrent.futures
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from random import Random

import pytest

from msgkit import (
    Matrix,
    PointContext,
    PrimeField,
    QQ,
    canonical_alternating,
    derive_seed,
    random_form_space,
    random_invertible,
    random_isotropic_subspace,
    rho_fixed,
    standard_form,
    tangent_report,
    verify_thm_equivalence,
)
from msgkit import cli, tangent
from conftest import (distinct_denominator_alternating, golden_compare, random_alternating,
                      reference_skew_normal_form)

DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture
def no_digit_limit():
    """Lift this process's limit on int-to-str digits, to read answers past it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


def run_cli(*args, env=None, flags=(), timeout=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "msgkit", *args],
        capture_output=True, text=True, env=full_env, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


# --- rho -------------------------------------------------------------------------

def test_rho_single_value_plain():
    code, out, _ = run_cli("rho", "--r", "2", "--d", "8", "--g", "5",
                           "--k", "2", "--variant", "fixed", "--format", "plain")
    assert code == 0
    assert out.strip() == "8"


def test_rho_multi_row_tables_exact_bytes():
    grid = ("rho", "--r", "2", "--d", "2g-2", "--g", "2..3", "--k", "0..1", "--m", "1")
    header = ["d", "g", "k", "m", "r", "rho2_special_fixed", "rho2_special_full",
              "rho_fixed", "rho_full"]
    rows = [[2, 2, 0, 1, 2, 1, 3, 3, 5], [2, 2, 1, 1, 2, 0, 2, 2, 4],
            [4, 3, 0, 1, 2, 3, 6, 6, 9], [4, 3, 1, 1, 2, 2, 5, 5, 8]]
    for fmt, sep in (("csv", ","), ("plain", "\t")):
        code, out, _ = run_cli(*grid, "--format", fmt)
        assert code == 0
        expected = [sep.join(header)] + [sep.join(map(str, r)) for r in rows]
        assert out == "\n".join(expected) + "\n"
    # json is written row by row, in the bytes of the whole payload's dump
    code, out, _ = run_cli(*grid)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert [[row[c] for c in header] for row in json.loads(out)["rows"]] == rows
    code, out, _ = run_cli("rho", "--r", "2", "--d", "8", "--g", "5", "--k", "1..2",
                           "--variant", "full", "--format", "plain")
    assert code == 0
    assert out == "d\tg\tk\tr\trho_full\n8\t5\t1\t2\t16\n8\t5\t2\t2\t13\n"


def test_rho_grid_canonical_degree():
    code, out, _ = run_cli("rho", "--r", "2", "--d", "2g-2",
                           "--g", "2..10", "--k", "0..5")
    assert code == 0
    payload = json.loads(out)
    rows = payload["rows"]
    assert len(rows) == 9 * 6
    for row in rows:
        g, k = row["g"], row["k"]
        assert row["d"] == 2 * g - 2
        assert row["rho_fixed"] == 3 * g - 3 - k * k  # both variants present
        assert row["rho_full"] == row["rho_fixed"] + g


def test_rho_with_m_columns():
    code, out, _ = run_cli("rho", "--r", "2", "--d", "4", "--g", "5",
                           "--k", "2", "--m", "2")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["rho2_special_fixed"] == -3
    assert row["rho2_special_full"] == 2


def test_rho_missing_flag_exits_2():
    code, _, err = run_cli("rho", "--r", "2", "--d", "8", "--g", "5")
    assert code == 2


def test_rho_bad_range_exits_2():
    code, _, err = run_cli("rho", "--r", "2", "--d", "8", "--g", "five", "--k", "1")
    assert code == 2
    assert "expected an integer" in err


@pytest.mark.parametrize("k, g, budget", [
    ("0..1", "2..200", "100"),  # 2 x 199 = 398 rows
    ("2", "2..100000000000", None),
    ("2", "0..99999999999999999999999999999", None),  # longer than a C ssize_t counts
], ids=["398-rows", "1e11-rows", "1e29-rows"])
def test_rho_grid_over_the_budget_exits_2_before_any_row_is_built(k, g, budget):
    code, out, err = run_cli("rho", "--r", "2", "--d", "8", "--k", k, "--g", g,
                             env=budget and {"MSGKIT_BUDGET": budget}, timeout=10)
    assert (code, out) == (2, "")
    assert "budget" in err and "Traceback" not in err


@pytest.mark.parametrize("flag, text", [
    ("--g", "9" * 6000), ("--g", "2.." + "9" * 6000), ("--d", "9" * 6000 + "g-2"),
    ("--d", "2g-" + "9" * 6000), ("--g", "x" * 6000)],
    ids=["g-digits", "g-range-digits", "d-coefficient-digits", "d-offset-digits", "g-letters"])
def test_rho_overlong_flag_exits_2_with_a_short_message(flag, text):
    argv = {"--r": "2", "--d": "8", "--k": "2", "--g": "5", flag: text}
    code, out, err = run_cli("rho", *[x for item in argv.items() for x in item])
    assert (code, out) == (2, "")
    assert len(err) < 200 and "Traceback" not in err
    assert ("expected an integer" if text[0] == "x" else "digits per integer") in err


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "O"])
def test_rho_answers_past_the_digit_limit_are_written(flags, no_digit_limit):
    # 2000-digit --r and --g parse under the limit of 4300 digits, and their rho,
    # of about 6000 digits, is written past it, in json and in plain
    r, g = "9" * 2000, "8" * 2000
    rho = rho_fixed(int(r), 8, 2, int(g))
    assert len(str(rho)) > sys.int_info.default_max_str_digits
    argv = ("rho", "--r", r, "--d", "8", "--k", "2", "--g", g)
    code, out, err = run_cli(*argv, flags=flags)
    assert (code, err) == (0, "")
    row = json.loads(out)["rows"][0]
    assert (row["rho_fixed"], row["rho_full"]) == (rho, rho + int(g))
    code, out, err = run_cli(*argv, "--format", "plain", "--variant", "fixed", flags=flags)
    assert (code, out, err) == (0, f"{rho}\n", "")


def _rho_peak_rss_kib(rows: int, fmt: str) -> int:
    """Peak RSS (the child's own ru_maxrss, KiB) of a `rho` run of `rows` rows,
    4 k values per genus, its table written in `fmt` to a null stdout."""
    probe = ("import resource, sys; from msgkit.cli import main; "
             f"code = main(['rho', '--r', '2', '--d', '8', '--k', '0..3', '--g', '2..{rows // 4 + 1}',"
             f" '--format', '{fmt}']); "
             "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", probe], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    code, peak = map(int, proc.stderr.split())
    assert code == 0
    return peak


def test_rho_csv_rows_are_written_as_they_are_made():
    # a table 20 times longer needs no more memory; held in memory until
    # written, the longer table took about 100 MiB more
    assert _rho_peak_rss_kib(200_000, "csv") - _rho_peak_rss_kib(10_000, "csv") < 10 * 1024


def test_rho_json_rows_are_written_as_they_are_made():
    # as for csv; dumped whole, the longer json table took about 330 MiB more
    assert _rho_peak_rss_kib(200_000, "json") - _rho_peak_rss_kib(10_000, "json") < 10 * 1024


# --- check-point -----------------------------------------------------------------

def test_check_point_degenerate_file():
    code, out, _ = run_cli("check-point", "--input",
                           os.path.join(DATA, "degenerate_n4k2.json"))
    assert code == 0
    report = json.loads(out)["report"]
    assert report["tangent_dim"] == 3
    assert report["expected_dim"] == 2
    assert report["degenerate"] is True
    assert len(report["phi_kernel"]) == 1
    witnesses = report["degeneracy"]["witnesses"]
    assert len(witnesses) == 1
    assert witnesses[0]["lambda"] == [1, -1]
    assert witnesses[0]["subspace"] == [[1, 0, 0, 0], [0, 1, 0, 0]]


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "O"])
def test_check_point_rational_quadratic_certificate_golden(flags):
    # n = 8, k = 4 over Q: the minors' gcd (u - 2/3 v)(u + 5v) has degree 2 and two
    # rational roots, and 3 divides the leading coefficient of its cleared form
    code, out, err = run_cli("check-point", "--input", os.path.join(DATA, "degenerate_n8k4.json"),
                             flags=flags)
    assert (code, err) == (0, "")
    golden_compare("check_point_degenerate_n8k4.json", out)


def test_check_point_smooth_lagrangian(tmp_path):
    # m=1 point at expected dimension with an empty kernel
    J = standard_form(4, QQ)
    point = {
        "field": {"kind": "rational"},
        "n": 4,
        "forms": [J.gram.encode()],
        "subspace": [[1, 0, 0, 0], [0, 0, 1, 0]],  # span(e1, e3) is isotropic for J
    }
    path = tmp_path / "point.json"
    path.write_text(json.dumps(point))
    code, out, _ = run_cli("check-point", "--input", str(path))
    assert code == 0
    report = json.loads(out)["report"]
    assert report["tangent_dim"] == report["expected_dim"] == 3
    assert report["phi_kernel"] == []
    assert report["degenerate"] is None  # pencil check needs m = 2


def test_check_point_empty_subspace_and_degenerate_form(tmp_path):
    # k = 0 passes the one isotropy scan with no rows; a degenerate Gram
    # matrix is refused by the form's own rank, with exit 2 and its message
    point = json.load(open(os.path.join(DATA, "degenerate_n4k2.json")))
    path = tmp_path / "point.json"
    path.write_text(json.dumps({**point, "subspace": []}))
    code, out, err = run_cli("check-point", "--input", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["report"] == {
        "degeneracy": None, "degenerate": False, "expected_dim": 0, "k": 0, "m": 2, "n": 4,
        "phi_kernel": [], "phi_rank": 0, "tangent_dim": 0}
    path.write_text(json.dumps({**point, "forms": [[[0] * 4] * 4]}))
    assert run_cli("check-point", "--input", str(path)) == (
        2, "", "error: symplectic form must be nondegenerate\n")


def test_check_point_non_isotropic_diagnostic(tmp_path):
    J = standard_form(4, QQ)
    point = {
        "field": {"kind": "rational"},
        "n": 4,
        "forms": [J.gram.encode()],
        "subspace": [[1, 0, 0, 0], [0, 1, 0, 0]],  # <e1, e2> = 1 for J
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(point))
    code, _, err = run_cli("check-point", "--input", str(path))
    assert code == 2
    assert "not isotropic" in err and "form 0" in err and "v_1" in err


def test_check_point_names_the_pairing_of_the_file_rows(tmp_path):
    # the rows are not in RREF: the failure is <v_1, v_2> = <e2, e1> = -1 of the
    # file's own rows, not <e1, e2> = 1 of the canonical basis
    point = {"field": {"kind": "rational"}, "n": 4,
             "forms": [standard_form(4, QQ).gram.encode()],
             "subspace": [[0, 1, 0, 0], [1, 0, 0, 0]]}
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(point))
    assert run_cli("check-point", "--input", str(path)) == (
        2, "", "error: subspace is not isotropic for form 0: <v_1, v_2> = -1\n")


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "O"])
def test_check_point_ragged_gram_row_exit2(tmp_path, flags):
    # Matrix.decode trusts the scalars field.decode returns, but not the row lengths
    with open(os.path.join(DATA, "degenerate_n4k2.json"), encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["forms"][0][2].pop()
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps(obj))
    assert run_cli("check-point", "--input", str(path), flags=flags) == (
        2, "", "error: shape mismatch: expected 4x4\n")


def test_check_point_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli("check-point", "--input", str(path))
    assert code == 2
    assert "JSON" in err or "json" in err


@pytest.mark.parametrize("case", ["missing_file", "malformed_json", "budget", "bad_flag",
                                  "bad_k_verify", "bad_k_scan"])
def test_refusals_print_one_error_line_and_exit_2(tmp_path, monkeypatch, capsys, case):
    # main's two except clauses: JSONDecodeError, a ValueError, first; then the rest
    missing, broken = tmp_path / "missing.json", tmp_path / "broken.json"
    broken.write_text("{")
    verify = ["verify", "--n", "4", "--k", "2", "--p", "3"]
    bad_k = "isotropic dimension must satisfy 1 <= k <= n/2 = 2, got 3"
    argv, message = {
        "missing_file": (["check-point", "--input", str(missing)],
                         f"[Errno 2] No such file or directory: '{missing}'"),
        "malformed_json": (["check-point", "--input", str(broken)],
                           "malformed JSON: Expecting property name enclosed in double quotes:"
                           " line 1 column 2 (char 1)"),
        "budget": ([*verify, "--pairs", "1"], "verifying 1 pairs x 130 subspaces exceeds the"
                                              " budget of 129 (raise MSGKIT_BUDGET to override)"),
        "bad_flag": ([*verify, "--pairs", "0"], "--pairs must be >= 1"),
        "bad_k_verify": (["verify", "--n", "4", "--k", "3", "--p", "3", "--pairs", "1"], bad_k),
        "bad_k_scan": (["scan", "--n", "4", "--k", "3", "--m", "2", "--p", "3"], bad_k),
    }[case]
    if case == "budget":
        monkeypatch.setenv("MSGKIT_BUDGET", "129")
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


_POINT = {"field": {"kind": "rational"}, "n": 4,
          "forms": [[[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]],
          "subspace": [[1, 0, 0, 0], [0, 1, 0, 0]]}
_MATRIX = {"field": {"kind": "rational"}, "matrix": [[0, 1], [-1, 0]]}


@pytest.mark.parametrize("subcommand, good", [("check-point", _POINT),
                                              ("normal-form", _MATRIX)])
@pytest.mark.parametrize("case", ["field_not_object", "zero_denominator", "exponent_scalar",
                                  "deep_nesting", "grid_not_array"])
def test_malformed_input_files_exit_2_without_traceback(tmp_path, subcommand, good, case):
    obj = json.loads(json.dumps(good))
    key = "forms" if "forms" in obj else "matrix"
    if case == "field_not_object":
        obj["field"] = "prime"
        text = json.dumps(obj)
    elif case == "grid_not_array":
        obj[key] = 5
        text = json.dumps(obj)
    elif case in ("zero_denominator", "exponent_scalar"):
        grid = obj["forms"][0] if key == "forms" else obj["matrix"]
        grid[0][1] = "1/0" if case == "zero_denominator" else "1e10000000"
        text = json.dumps(obj)
    else:
        text = "[" * 100000 + "]" * 100000
    path = tmp_path / "bad.json"
    path.write_text(text)
    # a 10^7-digit exponent scalar must be refused, not expanded
    code, _, err = run_cli(subcommand, "--input", str(path), timeout=10)
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err
    if case == "grid_not_array":  # the message names the key, not Python's iteration
        assert key in err and "not iterable" not in err


@pytest.mark.parametrize("subcommand, good", [("check-point", _POINT),
                                              ("normal-form", _MATRIX)])
@pytest.mark.parametrize("case", ["long_string", "many_digits", "many_digit_literal"])
def test_oversized_scalars_exit_2_with_a_short_message(tmp_path, subcommand, good, case):
    # the message names the scalar by a prefix and states the digit limit
    # in msgkit's words, not the interpreter's advice
    obj = json.loads(json.dumps(good))
    grid = obj["forms"][0] if "forms" in obj else obj["matrix"]
    grid[0][1] = {"long_string": "1" * 200000 + ".5", "many_digits": "1" * 5000}.get(case, "@")
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj).replace('"@"', "1" * 5000))
    code, _, err = run_cli(subcommand, "--input", str(path), timeout=30)
    assert code == 2
    assert err.startswith("error:") and len(err.encode()) < 500
    assert "set_int_max_str_digits" not in err and "Traceback" not in err
    assert "1111111111" in err
    if case != "long_string":
        assert f"limit of {sys.get_int_max_str_digits()} digits" in err


def test_check_point_dependent_subspace_rows_exit_2(tmp_path):
    point = dict(_POINT, subspace=[[1, 0, 0, 0], [2, 0, 0, 0]])
    path = tmp_path / "dependent.json"
    path.write_text(json.dumps(point))
    code, out, err = run_cli("check-point", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == "error: subspace basis rows are linearly dependent\n"


def _pencil_point(n, k, scales, p=101):
    """A point over F_p: J, a second form pairing e_2b with e_2b+1 by scales[b], and
    V = span(e_0, e_2, ..., e_2k-2), isotropic for both.  The combination
    second - c*J kills e_2b against everything where scales[b] = c, so a scale
    repeated within the first k makes the pencil degenerate."""
    forms = []
    for c in ([1] * (n // 2), scales):
        G = [[0] * n for _ in range(n)]
        for b in range(n // 2):
            G[2 * b][2 * b + 1], G[2 * b + 1][2 * b] = c[b] % p, -c[b] % p
        forms.append(G)
    return {"field": {"kind": "prime", "p": p}, "n": n, "forms": forms,
            "subspace": [[int(j == 2 * i) for j in range(n)] for i in range(k)]}


def test_check_point_past_the_budget_exits_2_before_the_rank(tmp_path):
    # a 870 x 900 constraint system at n=60, k=30, and at n=40, k=5 a degenerate
    # pencil whose 261800 minors never reach gcd 1; both are refused at once, by
    # n, k and m, while n=28, k=14 (6.9e6 steps) still answers
    budget = {"MSGKIT_BUDGET": "10000000"}
    for n, k, scales in [(60, 30, range(1, 31)), (40, 5, [1, 1, *range(2, 20)])]:
        path = tmp_path / f"n{n}_k{k}.json"
        path.write_text(json.dumps(_pencil_point(n, k, list(scales))))
        start = time.perf_counter()
        code, out, err = run_cli("check-point", "--input", str(path), env=budget, timeout=60)
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "")
        assert err == (f"error: checking a point with n={n}, k={k}, m=2 exceeds the budget"
                       " of 10000000 (raise MSGKIT_BUDGET to override)\n")
    path = tmp_path / "n28_k14.json"
    path.write_text(json.dumps(_pencil_point(28, 14, list(range(1, 15)))))
    code, out, err = run_cli("check-point", "--input", str(path), env=budget, timeout=60)
    assert (code, err) == (0, "")
    report = json.loads(out)["report"]
    assert (report["tangent_dim"], report["degenerate"]) == (report["expected_dim"], False)


# --- scan --------------------------------------------------------------------------

def test_scan_needs_exactly_one_field_flag():
    base = ("scan", "--n", "4", "--k", "1", "--samples", "2")
    code, out, err = run_cli(*base, "--p", "3", "--field", "rational")
    assert (code, out) == (2, "")
    assert "--field: not allowed with argument --p" in err
    code, out, err = run_cli(*base)
    assert (code, out) == (2, "")
    assert err == "error: specify --p PRIME or --field rational\n"


def test_scan_deterministic_bytes():
    args = ("scan", "--n", "4", "--k", "2", "--m", "2", "--p", "3",
            "--samples", "30", "--seed", "0")
    code1, out1, _ = run_cli(*args)
    code2, out2, _ = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("workers", ["1", "2"])
def test_scan_golden_at_one_and_two_workers(workers):
    # pins the histogram and the stall count: 22 points, 38 stalls
    code, out, _ = run_cli("scan", "--n", "6", "--k", "3", "--m", "2", "--p", "3",
                           "--samples", "60", "--seed", "1", "--workers", workers)
    assert code == 0
    golden_compare("scan_n6_k3_m2_p3_seed1.json", out)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("field", [PrimeField(3), PrimeField(5), QQ], ids=str)
def test_scan_sample_is_the_excess_of_the_tangent_report(field, m):
    # the oracle is the point's full report, drawn from the same derived stream;
    # at n=6, k=3 every field stalls for m >= 2, and m = 1 never stalls
    seed, outcomes = 5, []
    for (n, k), i in product([(4, 2), (6, 2), (6, 3)], range(8)):
        rng = Random(derive_seed(seed, i))
        fs = random_form_space(n, m, field, rng)
        V = random_isotropic_subspace(k, fs, rng)
        expected = None if V is None else tangent_report(PointContext(V, fs)).excess()
        assert cli._scan_sample(field, n, k, m, seed, i) == expected
        outcomes.append(expected)
    assert any(e is not None for e in outcomes)
    assert (None in outcomes) == (m >= 2)


def test_scan_builds_no_point_context_or_report(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("scan reached the point-context path")

    monkeypatch.setattr(cli, "PointContext", refuse)
    monkeypatch.setattr(cli, "tangent_report", refuse)
    assert cli.main(["scan", "--n", "6", "--k", "3", "--m", "2", "--p", "3",
                     "--samples", "60", "--seed", "1", "--workers", "1"]) == 0
    golden_compare("scan_n6_k3_m2_p3_seed1.json", capsys.readouterr().out)


_SAMPLED_GOLDENS = [
    ("verify_sampled_n8_k3_p3_pairs2_seed5.json", 0,
     ("verify", "--scope", "sampled", "--n", "8", "--k", "3", "--p", "3", "--pairs", "2",
      "--samples", "40", "--seed", "5")),
    ("verify_sampled_n8_k2_p2147483647_pairs2_seed5.json", 0,
     ("verify", "--scope", "sampled", "--n", "8", "--k", "2", "--p", "2147483647",
      "--pairs", "2", "--samples", "20", "--seed", "5")),
    ("scan_n8_k2_m2_p2147483647_seed5.json", 0,
     ("scan", "--n", "8", "--k", "2", "--m", "2", "--p", "2147483647", "--samples", "40",
      "--seed", "5")),
    # with a fault injected every point is a mismatch, whose record holds its basis
    ("verify_sampled_n8_k3_p3_pairs2_seed5_fault.json", 1,
     ("verify", "--scope", "sampled", "--n", "8", "--k", "3", "--p", "3", "--pairs", "2",
      "--samples", "10", "--seed", "5", "--inject-fault")),
    ("verify_sampled_n8_k2_p2147483647_pairs2_seed5_fault.json", 1,
     ("verify", "--scope", "sampled", "--n", "8", "--k", "2", "--p", "2147483647",
      "--pairs", "2", "--samples", "6", "--seed", "5", "--inject-fault")),
]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("name,status,argv", _SAMPLED_GOLDENS,
                         ids=[g[0][:-5] for g in _SAMPLED_GOLDENS])
def test_sampled_goldens_at_one_and_two_workers(name, status, argv, workers):
    # the sampler's points and the products at them, at a small and at the
    # largest admitted prime, pinned by bytes recorded before the packed kernel
    code, out, _ = run_cli(*argv, "--workers", workers)
    assert code == status
    golden_compare(name, out)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_exhaustive_k3_fault_golden_at_one_and_two_workers(workers):
    # every isotropic point of two n = 6, k = 3 pencils is a mismatch, so the bytes pin
    # each point the walk yields, middle rows included, with its degeneracy
    code, out, _ = run_cli("verify", "--n", "6", "--k", "3", "--p", "3", "--pairs", "2",
                           "--seed", "9", "--inject-fault", "--workers", workers)
    assert code == 1
    golden_compare("verify_n6_k3_p3_pairs2_seed9_fault.json", out)


def test_rational_scan_bytes_agree_across_workers():
    # pool workers compute over an unpickled copy of QQ, not QQ itself
    args = ("scan", "--n", "4", "--k", "2", "--m", "2", "--field", "rational",
            "--samples", "30", "--seed", "1")
    serial, pooled = (run_cli(*args, "--workers", w) for w in ("1", "2"))
    assert serial == pooled
    assert serial[0] == 0 and json.loads(serial[1])["points"] > 0


def test_scan_m1_zero_excess():
    code, out, _ = run_cli("scan", "--n", "6", "--k", "2", "--m", "1",
                           "--p", "5", "--samples", "40", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["excess_dim_histogram"] == {"0": 40}
    assert payload["sampler_exhausted"] == 0


def test_scan_embeds_provenance():
    code, out, _ = run_cli("scan", "--n", "4", "--k", "1", "--m", "1",
                           "--p", "3", "--samples", "5", "--seed", "9")
    assert code == 0
    payload = json.loads(out)
    assert payload["version"]
    assert payload["field"] == {"kind": "prime", "p": 3}
    assert payload["seeds"]["root"] == 9
    assert payload["input"]["samples"] == 5


# --- verify ------------------------------------------------------------------------

def test_verify_small_exhaustive_exit0():
    code, out, _ = run_cli("verify", "--n", "4", "--k", "2", "--p", "3",
                           "--pairs", "5", "--scope", "exhaustive", "--seed", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["mismatch_count"] == 0
    assert payload["points_checked"] > 0


def test_verify_k1_trivial_exit0():
    code, out, _ = run_cli("verify", "--n", "4", "--k", "1", "--p", "3",
                           "--pairs", "2", "--scope", "exhaustive")
    assert code == 0
    assert json.loads(out)["points_checked"] > 0


def test_verify_fault_injection_exit1():
    code, out, _ = run_cli("verify", "--n", "4", "--k", "2", "--p", "3",
                           "--pairs", "2", "--scope", "exhaustive",
                           "--inject-fault")
    assert code == 1
    payload = json.loads(out)
    assert payload["mismatch_count"] > 0
    rec = payload["mismatches"][0]
    assert "forms" in rec and "subspace" in rec and "tangent_dim" in rec


def test_verify_budget_exceeded_exit2():
    code, _, err = run_cli("verify", "--n", "4", "--k", "2", "--p", "3",
                           "--pairs", "1", "--scope", "exhaustive",
                           env={"MSGKIT_BUDGET": "10"})
    assert code == 2
    assert "budget" in err.lower()


def test_verify_budget_exceeded_exit2_in_pool_workers():
    # two pairs at two workers; the parent refuses the run before any pool starts
    code, out, err = run_cli("verify", "--n", "4", "--k", "2", "--p", "3",
                             "--pairs", "2", "--scope", "exhaustive",
                             "--workers", "2", env={"MSGKIT_BUDGET": "10"})
    assert code == 2
    assert out == ""
    assert "budget" in err.lower()
    assert "Traceback" not in err


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("argv", [
    ("scan", "--n", "100000", "--k", "1", "--m", "1", "--p", "3", "--samples", "1"),
    ("verify", "--n", "4", "--k", "2", "--p", "3", "--scope", "sampled", "--samples", "1",
     "--pairs", "100000000"),
    ("verify", "--n", "4", "--k", "2", "--p", "3", "--pairs", "100000000"),
    ("verify", "--n", "100000", "--k", "50000", "--p", "3", "--pairs", "1"),
    # a drawn form costs n^3, so these are over the budget though n^2 is not
    ("scan", "--n", "1000", "--k", "1", "--m", "1", "--p", "3", "--samples", "1"),
    ("verify", "--n", "1000", "--k", "1", "--p", "3", "--scope", "sampled", "--samples", "1",
     "--pairs", "1"),
], ids=["scan-n", "sampled-pairs", "exhaustive-pairs", "exhaustive-n", "scan-n-cubed",
        "sampled-n-cubed"])
def test_oversized_runs_exit_2_before_any_work(argv, workers):
    # the whole run is sized against the budget before a pencil is drawn
    code, out, err = run_cli(*argv, "--workers", workers, timeout=10)
    assert (code, out) == (2, "")
    assert "budget" in err and "Traceback" not in err


def test_verify_fault_injection_golden():
    # pins the point and mismatch order of exhaustive enumeration byte for byte
    code, out, _ = run_cli("verify", "--n", "4", "--k", "2", "--p", "3",
                           "--pairs", "3", "--seed", "2", "--inject-fault")
    assert code == 1
    golden_compare("verify_n4_k2_p3_pairs3_seed2_fault.json", out)


def test_verify_fault_self_test_survives_python_O():
    # -O strips assert statements: no check the run relies on may be one
    argv = ("verify", "--n", "4", "--k", "2", "--p", "3", "--pairs", "3", "--seed", "2",
            "--inject-fault")
    plain = run_cli(*argv)
    optimized = run_cli(*argv, flags=("-O",))
    assert optimized == plain
    code, out, _ = optimized
    assert code == 1 and json.loads(out)["mismatch_count"] > 0


@pytest.mark.parametrize("fault", [False, True])
def test_sampled_verify_at_k4_agrees_across_workers(fault):
    # k = 4 is where the pencil minors are 3x3 and pmat_det divides exactly
    argv = ("verify", "--scope", "sampled", "--n", "10", "--k", "4", "--p", "3",
            "--pairs", "2", "--samples", "50", "--seed", "0") + (("--inject-fault",) * fault)
    serial, pooled = (run_cli(*argv, "--workers", w) for w in ("1", "2"))
    assert pooled == serial
    code, out, _ = serial
    payload = json.loads(out)
    assert payload["points_checked"] == 100
    assert (code, payload["mismatch_count"]) == ((1, 100) if fault else (0, 0))


@pytest.mark.parametrize("workers", ["1", "2"])
def test_verify_fault_injection_at_k1_exits_2(workers):
    # at k = 1 there is no constraint row to corrupt, so the self-test cannot trip
    code, out, err = run_cli("verify", "--n", "4", "--k", "1", "--p", "3", "--pairs", "2",
                             "--inject-fault", "--workers", workers)
    assert (code, out) == (2, "")
    assert err == ("error: fault injection needs k >= 2, got k=1:"
                   " there is no constraint row to corrupt\n")


@pytest.mark.parametrize("workers, flags", [("1", ()), ("2", ()), ("1", ("-O",))])
def test_sampled_verify_that_checks_no_point_exits_2(workers, flags):
    # at n=6, k=3 over F_101 every greedy draw stalls, so even the fault self-test
    # would pass on no point at all; the run is refused before any output, also under -O
    code, out, err = run_cli("verify", "--scope", "sampled", "--n", "6", "--k", "3", "--p",
                             "101", "--pairs", "2", "--samples", "5", "--seed", "0",
                             "--inject-fault", "--workers", workers, flags=flags)
    assert (code, out) == (2, "")
    assert err == ("error: sampled verify checked no point: all 5 greedy draws of each"
                   " of the 2 pairs stalled\n")


def test_verify_rejects_bad_shape():
    code, _, _ = run_cli("verify", "--n", "4", "--k", "3", "--p", "3", "--pairs", "1")
    assert code == 2


def test_verify_malformed_budget_exits_2_in_both_scopes():
    for scope in ("exhaustive", "sampled"):
        code, out, err = run_cli("verify", "--n", "4", "--k", "2", "--p", "3",
                                 "--pairs", "1", "--scope", scope,
                                 env={"MSGKIT_BUDGET": "ten"})
        assert (scope, code, out) == (scope, 2, "")
        assert "MSGKIT_BUDGET" in err and "Traceback" not in err


_FAILED_SELF_CHECK = """
import sys
from msgkit import Matrix, Subspace, cli, tangent
# span(e_1, e_2) as every draw: the seeded forms do not vanish on it
tangent.random_isotropic_subspace = lambda k, fs, rng: Subspace(
    Matrix(fs.field, k, fs.dim, [[int(i == j) for j in range(fs.dim)] for i in range(k)]))
sys.exit(cli.main(sys.argv[1:]))
"""

_DEAD_POOL_WORKER = """
import multiprocessing, os, sys
from msgkit import cli
multiprocessing.set_start_method("fork")  # a worker finds `die` in its copy of this script
os.cpu_count = lambda: 2  # two pairs start two workers, on one core too

def die(*args, **kwargs):  # a pool worker that dies at its first pair
    os._exit(9)

cli._verify_seeded_pair = die
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "O"])
def test_a_failed_self_check_exits_3_with_one_error_line(flags):
    # exit 1 means a counterexample, so a broken invariant must not read as one
    argv = ("verify", "--scope", "sampled", "--n", "6", "--k", "2", "--p", "3", "--pairs", "1",
            "--samples", "3", "--inject-fault")
    proc = subprocess.run([sys.executable, *flags, "-c", _FAILED_SELF_CHECK, *argv],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", "error: internal failure: ArithmeticError('a sampled point is not isotropic')\n")


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "O"])
def test_a_dead_pool_worker_exits_3_with_one_error_line(flags):
    argv = ("verify", "--n", "4", "--k", "2", "--p", "3", "--pairs", "2", "--workers", "2",
            "--inject-fault")
    proc = subprocess.run([sys.executable, *flags, "-c", _DEAD_POOL_WORKER, *argv],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("error: internal failure: BrokenProcessPool(")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("exc, status", [(ArithmeticError, 3), (KeyboardInterrupt, 130)])
def test_a_failed_write_leaves_no_partial_output_file(tmp_path, monkeypatch, capsys, exc,
                                                      status):
    # the first record is made before the file opens, the third while it is written
    path, encode, calls = tmp_path / "F.json", tangent.MismatchRecord.encode, []

    def failing(self):
        calls.append(self)
        if len(calls) == 3:
            assert path.exists()  # opened, its first bytes buffered or written
            raise exc("record 3")
        return encode(self)

    monkeypatch.setattr(tangent.MismatchRecord, "encode", failing)
    assert cli.main(["verify", "--n", "4", "--k", "2", "--p", "3", "--pairs", "3", "--seed",
                     "2", "--inject-fault", "--output", str(path)]) == status
    assert len(calls) == 3 and not path.exists()
    out, err = capsys.readouterr()
    assert out == "" and err == ("" if status == 130 else
                                 "error: internal failure: ArithmeticError('record 3')\n")


def test_a_failed_write_removes_no_path_it_did_not_make(tmp_path, monkeypatch):
    # a directory fails to open and stays; a link is written through, and stays
    argv = ["rho", "--r", "2", "--d", "8", "--k", "2", "--g", "5..6", "--output"]
    (tmp_path / "dir").mkdir()
    assert cli.main(argv + [str(tmp_path / "dir")]) == 2 and (tmp_path / "dir").is_dir()
    link, rho, calls = tmp_path / "link", cli._rho, []
    link.symlink_to(tmp_path / "target")

    def failing(*args):
        calls.append(args)
        if len(calls) == 3:  # the first row's two variants are made before the file opens
            raise ArithmeticError("row 2")
        return rho(*args)

    monkeypatch.setattr(cli, "_rho", failing)
    assert cli.main(argv + [str(link)]) == 3
    assert link.is_symlink() and (tmp_path / "target").exists()


@pytest.mark.parametrize("argv, flag", [
    (("scan", "--n", "4", "--k", "1", "--p", "3", "--workers", "0"), "--workers"),
    (("verify", "--n", "4", "--k", "1", "--p", "3", "--pairs", "1",
      "--workers", "-2"), "--workers"),
    (("verify", "--n", "4", "--k", "2", "--p", "3", "--pairs", "1",
      "--scope", "sampled", "--samples", "-3"), "--samples"),
])
def test_nonpositive_counts_exit_2(argv, flag):
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert f"{flag} must be >= 1" in err


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size and chunk sizes,
    maps in process."""

    sizes: list = []
    chunks: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        self.chunks.append(chunksize)
        return map(fn, items)


def test_run_tasks_caps_the_pool_at_tasks_and_cpus(monkeypatch, capsys):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(_RecordingPool, "chunks", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    double = lambda x: 2 * x  # noqa: E731  (the stand-in pool does not pickle)
    assert cli._run_tasks(double, [1, 2], 100000) == [2, 4]
    assert cli._run_tasks(double, list(range(10)), 3) == list(range(0, 20, 2))
    assert cli._run_tasks(double, list(range(10)), 100) == list(range(0, 20, 2))
    assert cli._run_tasks(double, [1, 2, 3], 1) == [2, 4, 6]
    assert cli._run_tasks(double, [7], 8) == [14]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._run_tasks(double, [1, 2, 3], 8) == [2, 4, 6]
    assert _RecordingPool.sizes == [2, 3, 4]
    # chunks of ceil(tasks / (4 * workers)): 1600 tasks on 2 workers go out as 8 chunks
    assert _RecordingPool.chunks == [1, 1, 1]
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert cli._run_tasks(double, list(range(1600)), 2) == list(range(0, 3200, 2))
    assert cli._run_tasks(double, list(range(13)), 3) == list(range(0, 26, 2))
    assert _RecordingPool.chunks == [1, 1, 1, 200, 2]
    # the CLI path: two pairs never start more than two workers
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    code = cli.main(["verify", "--n", "4", "--k", "1", "--p", "3", "--pairs", "2",
                     "--workers", "100000"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["pairs_checked"] == 2
    assert _RecordingPool.sizes == [2, 3, 4, 2, 3, 2]


@pytest.mark.parametrize("scope", ["exhaustive", "sampled"])
def test_cli_verify_folds_its_pairs_once(monkeypatch, capsys, scope):
    # the pool's results, in pair order, go through the library's own fold once
    assert cli._verify_report is tangent._verify_report
    fold, calls = cli._verify_report, []

    def counting(results, *rest):
        calls.append([points for _, points, _ in results])
        return fold(results, *rest)

    monkeypatch.setattr(cli, "_verify_report", counting)
    assert cli.main(["verify", "--n", "4", "--k", "2", "--p", "3", "--pairs", "3",
                     "--scope", scope, "--samples", "5", "--inject-fault"]) == 1
    assert calls == [[p["points"] for p in json.loads(capsys.readouterr().out)["per_pair"]]]


@pytest.mark.parametrize("n, scope, extra", [
    (4, "exhaustive", ()),
    (6, "sampled", ("--samples", "15")),
    (4, "exhaustive", ("--inject-fault",)),
    (6, "sampled", ("--samples", "15", "--inject-fault")),  # subspaces follow the rng
])
def test_cli_verify_agrees_with_library(n, scope, extra):
    k, pairs, seed, samples = 2, 3, 7, 15
    fault = "--inject-fault" in extra

    report = verify_thm_equivalence(n, k, PrimeField(3), pairs=pairs, scope=scope,
                                    seed=seed, samples_per_pair=samples, fault=fault)
    expected = [(i, [g.encode() for g in fs.grams()], rec.subspace.basis.encode())
                for i, fs, rec in report.mismatches]
    assert bool(expected) == fault
    for workers in ("1", "2"):
        code, out, _ = run_cli("verify", "--n", str(n), "--k", str(k), "--p", "3",
                               "--pairs", str(pairs), "--scope", scope, "--seed", str(seed),
                               "--workers", workers, *extra)
        assert code == (1 if fault else 0)
        payload = json.loads(out)
        assert [p["points"] for p in payload["per_pair"]] == report.pair_points
        assert payload["points_checked"] == report.points_checked > 0
        assert [(m["pair"], m["forms"], m["subspace"])
                for m in payload["mismatches"]] == expected


# --- normal-form --------------------------------------------------------------------

def test_normal_form_standard_j(tmp_path):
    J = standard_form(4, QQ).gram
    path = tmp_path / "J.json"
    path.write_text(json.dumps({"field": {"kind": "rational"}, "matrix": J.encode()}))
    code, out, _ = run_cli("normal-form", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 4
    assert payload["P"] == Matrix.identity(QQ, 4).encode()
    assert payload["canonical"] == J.encode()


def test_normal_form_zero_matrix(tmp_path):
    path = tmp_path / "Z.json"
    path.write_text(json.dumps(
        {"field": {"kind": "prime", "p": 7}, "matrix": [[0, 0], [0, 0]]}))
    code, out, _ = run_cli("normal-form", "--input", str(path))
    assert code == 0
    assert json.loads(out)["rank"] == 0


def test_normal_form_is_sized_as_n_cubed_before_the_schur_steps(tmp_path):
    path = tmp_path / "J.json"
    path.write_text(json.dumps({"field": {"kind": "prime", "p": 7},
                                "matrix": standard_form(4, PrimeField(7)).gram.encode()}))
    code, out, err = run_cli("normal-form", "--input", str(path), env={"MSGKIT_BUDGET": "63"})
    assert (code, out) == (2, "")
    assert err == ("error: a normal form of n=4 (n^3 = 64) exceeds the budget of 63"
                   " (raise MSGKIT_BUDGET to override)\n")
    code, out, err = run_cli("normal-form", "--input", str(path), env={"MSGKIT_BUDGET": "64"})
    assert (code, err) == (0, "")
    assert json.loads(out)["rank"] == 4


def test_normal_form_of_66_distinct_prime_denominators(tmp_path):
    # a 12 x 12 matrix whose 66 upper entries each have their own prime
    # denominator: every row of the lift has its own scale, and the bytes of P
    # are those of the elimination over Q; the n^3 budget still bounds the run
    M = distinct_denominator_alternating(12, Random(12), numerators=99)
    path = tmp_path / "M.json"
    path.write_text(json.dumps({"field": QQ.spec(), "matrix": M.encode()}))
    code, out, err = run_cli("normal-form", "--input", str(path))
    assert (code, err) == (0, "")
    P, rank = reference_skew_normal_form(M)
    data = json.loads(out)
    assert (data["P"], data["rank"]) == (P.encode(), rank)
    assert data["canonical"] == canonical_alternating(QQ, 12, rank).encode()
    code, out, err = run_cli("normal-form", "--input", str(path), env={"MSGKIT_BUDGET": "1727"})
    assert (code, out) == (2, "")
    assert err == ("error: a normal form of n=12 (n^3 = 1728) exceeds the budget of 1727"
                   " (raise MSGKIT_BUDGET to override)\n")


@pytest.mark.parametrize("field", [PrimeField(7), QQ], ids=str)
def test_normal_form_lifts_twice(tmp_path, monkeypatch, capsys, field):
    # `skew_normal_form` tests alternation on the lift it eliminates, and
    # `_congruent` re-verifies P on a lift of its own; nothing else lifts
    path = tmp_path / "M.json"
    path.write_text(json.dumps({"field": field.spec(),
                                "matrix": random_alternating(field, 6, Random(3)).encode()}))
    lift, calls = type(field).lift, []

    def counting(self, *matrices):
        calls.append(len(matrices))
        return lift(self, *matrices)

    monkeypatch.setattr(type(field), "lift", counting)
    assert cli.main(["normal-form", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == 6
    assert calls == [1, 1]


def _digit_limit_matrix() -> dict:
    """A 4 x 4 alternating Q matrix with 1500-digit denominators from a fixed seed,
    as the CI step draws it: its lift's row scales and the entries of P have more
    digits than the interpreter converts to text by default."""
    rng = Random(11)
    M = [[0] * 4 for _ in range(4)]
    for i, j in [(i, j) for i in range(4) for j in range(i + 1, 4)]:
        b = rng.randrange(10 ** 1499, 10 ** 1500)
        M[i][j], M[j][i] = f"1/{b}", f"-1/{b}"
    return {"field": {"kind": "rational"}, "matrix": M}


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "O"])
def test_normal_form_past_the_digit_limit_is_written(tmp_path, flags, no_digit_limit):
    obj = _digit_limit_matrix()
    path = tmp_path / "M.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli("normal-form", "--input", str(path), flags=flags)
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["rank"] == 4 and data["canonical"] == canonical_alternating(QQ, 4, 4).encode()
    # P^T M P == canonical, re-verified here on Fractions read from the text
    M, P, C = ([[Fraction(x) for x in row] for row in rows]
               for rows in (obj["matrix"], data["P"], data["canonical"]))
    assert max(len(str(x.denominator)) for row in P for x in row) > (
        sys.int_info.default_max_str_digits)
    assert [[sum(P[a][i] * M[a][b] * P[b][j] for a in range(4) for b in range(4))
             for j in range(4)] for i in range(4)] == C


def test_normal_form_non_alternating_exit2(tmp_path):
    path = tmp_path / "I.json"
    path.write_text(json.dumps(
        {"field": {"kind": "prime", "p": 7}, "matrix": [[1, 0], [0, 1]]}))
    code, _, err = run_cli("normal-form", "--input", str(path))
    assert code == 2
    assert "alternating" in err


_REFUSED_MATRICES = {
    "non_alternating_f7": ({"field": {"kind": "prime", "p": 7},
                            "matrix": [[0, 1, 2], [6, 0, 3], [5, 4, 1]]},
                           "error: matrix is not alternating (skew with zero diagonal)\n"),
    "ragged_q": ({"field": {"kind": "rational"},
                  "matrix": [[0, "1/2", -3], ["-1/2", 0], [3, -2, 0]]},
                 "error: shape mismatch: expected 3x3\n"),
}


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "O"])
@pytest.mark.parametrize("name", list(_REFUSED_MATRICES))
def test_normal_form_refusals_are_one_error_line(tmp_path, name, flags):
    obj, message = _REFUSED_MATRICES[name]
    path = tmp_path / "M.json"
    path.write_text(json.dumps(obj))
    assert run_cli("normal-form", "--input", str(path), flags=flags) == (2, "", message)


_WRONG_NORMAL_FORM = """
import sys
from msgkit import Matrix, cli
normal_form = cli.skew_normal_form

def wrong(M):  # the elimination's P with one entry off, its rank kept
    P, rank = normal_form(M)
    rows = P.to_lists()
    rows[-1][0] = M.field.add(rows[-1][0], M.field.one)
    return Matrix(M.field, M.nrows, M.ncols, rows), rank

cli.skew_normal_form = wrong
sys.exit(cli.main(["normal-form", "--input", sys.argv[1]]))
"""


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "O"])
@pytest.mark.parametrize("field", [PrimeField(7), QQ], ids=str)
def test_normal_form_re_verification_is_recomputed_from_m_and_p(tmp_path, field, flags):
    M = random_alternating(field, 6, Random(5))
    path = tmp_path / "M.json"
    path.write_text(json.dumps({"field": field.spec(), "matrix": M.encode()}))
    proc = subprocess.run([sys.executable, *flags, "-c", _WRONG_NORMAL_FORM, str(path)],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", "error: internal failure: ArithmeticError('normal form re-verification failed')\n")


def _normal_form_inputs():
    """Four matrices whose `normal-form` output, P included, is pinned by a golden."""
    F3, F7 = PrimeField(3), PrimeField(7)
    dense = random_alternating(F7, 6, Random(11))
    assert dense.rank() == 6 and all(x for i, row in enumerate(dense.rows) for x in row[i + 1:])
    P = random_invertible(F3, 8, Random(5))
    rank4 = P.transpose().mul(canonical_alternating(F3, 8, 4)).mul(P)
    assert rank4.rank() == 4
    rational = random_alternating(QQ, 6, Random(3))
    assert any(x.denominator > 1 for row in rational.rows for x in row)
    return {"dense_f7_6x6": dense, "rank4_f3_8x8": rank4, "fractions_q_6x6": rational,
            "zero_f5_4x4": Matrix.zeros(PrimeField(5), 4, 4)}


@pytest.mark.parametrize("name, M", _normal_form_inputs().items())
def test_normal_form_golden_bytes(tmp_path, name, M):
    path = tmp_path / "M.json"
    path.write_text(json.dumps({"field": M.field.spec(), "matrix": M.encode()}))
    code, out, _ = run_cli("normal-form", "--input", str(path))
    assert code == 0
    golden_compare(f"normal_form_{name}.json", out)


def test_output_flag_writes_file(tmp_path):
    out_path = tmp_path / "result.json"
    code, out, _ = run_cli("rho", "--r", "2", "--d", "8", "--g", "5", "--k", "2",
                           "--output", str(out_path))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["rows"][0]["rho_fixed"] == 8


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("scope", ["exhaustive", "sampled"])
@pytest.mark.parametrize("fault", [False, True], ids=["clean", "fault"])
def test_verify_answers_are_the_bytes_of_one_dump(fault, scope, workers):
    # the mismatches, streamed or empty, are written in the bytes of the whole payload's dump
    code, out, _ = run_cli("verify", "--n", "4", "--k", "2", "--p", "3", "--pairs", "3",
                           "--seed", "2", "--scope", scope, "--samples", "5",
                           "--workers", workers, *(("--inject-fault",) * fault))
    assert code == fault
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert bool(json.loads(out)["mismatches"]) == fault


class _RecordingStdout:
    """Stands in for sys.stdout: keeps every string written, one write each."""

    def __init__(self):
        self.writes = []

    def writelines(self, lines):
        self.writes.extend(lines)


def test_verify_writes_its_mismatches_a_record_at_a_time(monkeypatch):
    stdout = _RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli.main(["verify", "--n", "4", "--k", "2", "--p", "3", "--pairs", "3", "--seed", "2",
                     "--inject-fault"]) == 1
    out = "".join(stdout.writes)
    head = out[:out.index('"mismatches": [')]
    records = [json.dumps(r, indent=2, sort_keys=True).replace("\n", "\n    ")
               for r in json.loads(out)["mismatches"]]
    assert len(records) > 1
    assert max(map(len, stdout.writes)) < len(head) + max(map(len, records))
