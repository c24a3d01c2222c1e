"""Command-line front end.

Subcommands: `rho` (formula tables), `check-point` (tangent report for a JSON
point file), `scan` (random sampling statistics), `verify` (exhaustive or
sampled equivalence verification), `normal-form` (alternating canonical form).

Every answer goes through one writer, `_write`, and every JSON answer
through `_answer`: one envelope (command, version, field spec, seeds) beside
the command's own keys, with an echo of the logical inputs but not of the
workers, output path or format, so the bytes do not depend on the worker
count.  Answers are written past the interpreter's int-digit limit; input
keeps it.  An iterator value, rho's rows or verify's mismatches, is written
an element at a time; a failed write leaves no partial --output file.

Exit codes: 0 success, 1 verify found mismatches, 2 invalid input, budget
exceeded or a sampled verify that checked no point, 3 internal failure (a
failed self-check, a dead pool worker, no memory), 130 interrupted.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import Counter
from collections.abc import Iterator
from functools import partial
from itertools import chain, islice, product
from math import comb, prod
from random import Random

from . import __version__
from .fields import Field, PrimeField, QQ, _digit_limit_error, _shown, field_from_spec
from .matrices import Matrix, _congruent, canonical_alternating, skew_normal_form
from .numerology import VARIANTS, _rho, rho2_special
from .symplectic import (
    BudgetExceeded,
    Subspace,
    _require_budget,
    _require_forms,
    _require_isotropic_dim,
    _subspace_count,
    decode_point,
    derive_seed,
    random_form_space,
)
from .tangent import (PointContext, _constraint_rows, _require_fault_row, _sampled_points,
                      _verify_report, _verify_seeded_pair, msg_expected_dim, tangent_report)

_SEED_RULE = "splitmix64(seed, index)"


def _write(args, make_lines) -> None:
    """The one writer: the strings of `make_lines()` to --output or stdout, each as it
    is made.  An answer is msgkit's own work, so it is made and written with the
    interpreter's limit on int digits lifted; input, parsed before, keeps the limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        lines, out = make_lines(), getattr(args, "output", None)
        if out:
            fh = open(out, "w", encoding="utf-8")  # a path that fails to open is never removed
            try:
                with fh:
                    fh.writelines(lines)
            except BaseException:  # no partial file: a failed or interrupted write removes it
                if os.path.isfile(out) and not os.path.islink(out):  # never /dev/null or a link
                    os.remove(out)
                raise
        else:
            sys.stdout.writelines(lines)
    finally:
        sys.set_int_max_str_digits(limit)


def _envelope(args, field: Field | None = None) -> dict:
    """The keys every JSON answer shares: the command, the tool version, the field,
    and the root seed with its derivation when the command takes --seed."""
    envelope = {"command": args.command, "version": __version__}
    if field is not None:
        envelope["field"] = field.spec()
    if hasattr(args, "seed"):
        envelope["seeds"] = {"root": args.seed, "derivation": _SEED_RULE}
    return envelope


def _answer(args, field: Field | None, keys) -> None:
    """Write the envelope and the command's own keys, made by `keys()` inside the writer
    so that their encodes run under its lift, as one sorted JSON object; a value that is an
    iterator is written an element at a time in the same bytes, its first before any write."""
    def lines():
        payload = {**_envelope(args, field), **keys()}
        key = next((k for k, v in payload.items() if isinstance(v, Iterator)), None)
        texts = (json.dumps(item, indent=2, sort_keys=True).replace("\n", "\n    ")
                 for item in payload.get(key, ()))
        first = list(islice(texts, 1))  # the iterator's place: one element to split at, or []
        text = json.dumps({**payload, key: [0] * len(first)} if key else payload,
                          indent=2, sort_keys=True)
        if not first:
            return [text + "\n"]
        head, tail = text.split("\n    0\n")
        return chain([head, "\n    ", *first], (",\n    " + t for t in texts), ["\n" + tail + "\n"])
    _write(args, lines)


def _fail(message: str, status: int = 2) -> int:
    print(f"error: {message}", file=sys.stderr)
    return status


def _json_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # the JSON grammar passed, so only the digit limit is left
        raise _digit_limit_error("JSON integer", text) from None


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_int=_json_int)
        except RecursionError:
            raise ValueError(f"malformed JSON: {path} is nested too deeply") from None


def _field_from_args(args) -> Field:
    if args.p is not None:
        return PrimeField(args.p)
    if args.field is None:
        raise ValueError("specify --p PRIME or --field rational")
    return QQ


# ---------------------------------------------------------------------------
# rho
# ---------------------------------------------------------------------------

_SPAN_RE = re.compile(r"^([+-]?\d+)(?:\.\.([+-]?\d+))?$")
_LINEAR_RE = re.compile(r"^([+-]?\d*)g([+-]\d+)?$")


def _flag_int(text: str, name: str, whole: str) -> int:
    try:
        return int(text)
    except ValueError:  # the flag's grammar passed, so only the digit limit is left
        raise _digit_limit_error(f"--{name}", whole) from None


def _parse_span(text: str, name: str) -> range:
    """An integer or an inclusive range 'a..b'."""
    m = _SPAN_RE.match(text)
    if not m:
        raise ValueError(f"--{name}: expected an integer or 'a..b', got {_shown(text)}")
    lo = _flag_int(m.group(1), name, text)
    hi = lo if m.group(2) is None else _flag_int(m.group(2), name, text)
    if hi < lo:
        raise ValueError(f"--{name}: empty range {_shown(text)}")
    return range(lo, hi + 1)


def _parse_degree(text: str):
    """Degree flag: an integer or range, or the (coefficient, offset) of a
    linear expression in g like '2g-2'."""
    m = _LINEAR_RE.match(text.replace(" ", ""))
    if m:
        coef_txt = m.group(1)
        coef = 1 if coef_txt in ("", "+") else -1 if coef_txt == "-" else _flag_int(
            coef_txt, "d", text)
        return coef, _flag_int(m.group(2), "d", text) if m.group(2) else 0
    return _parse_span(text, "d")


def cmd_rho(args) -> int:
    rs = _parse_span(args.r, "r")
    ks = _parse_span(args.k, "k")
    gs = _parse_span(args.g, "g")
    ms = _parse_span(args.m, "m") if args.m is not None else [None]
    ds = _parse_degree(args.d)
    variants = [args.variant] if args.variant else list(VARIANTS)
    if args.m is not None and ms[0] < 1:
        raise ValueError("--m must be >= 1")
    # the grid is sized before any row is built, with one d per g when d is
    # linear in g; a range's length may pass ssize_t, so it is not len()
    size = prod(s.stop - s.start for s in (rs, ks, gs, ms, ds) if isinstance(s, range))
    _require_budget(size, f"a rho grid of {size} rows")

    def rows():
        for g, r in product(gs, rs):
            for d, k, m in product(ds if isinstance(ds, range) else [ds[0] * g + ds[1]], ks, ms):
                row = {"r": r, "d": d, "k": k, "g": g}
                row.update((f"rho_{v}", _rho(v, r, d, k, g)) for v in variants)
                if m is not None:
                    row["m"] = m
                    row.update((f"rho2_special_{v}", rho2_special(d, k, g, m, v))
                               for v in variants)
                yield row

    # all checks pass before any output: the first row has the least r, k and g
    table = rows()
    first = next(table)
    if args.m is not None and rs != range(2, 3):
        raise ValueError("--m applies to r = 2 only")
    if args.format == "plain" and size == 1 and len(variants) == 1 and args.m is None:
        _write(args, lambda: [f"{first[f'rho_{variants[0]}']}\n"])
        return 0
    if args.format in ("plain", "csv"):
        sep = "\t" if args.format == "plain" else ","
        cols = sorted(first)
        lines = (sep.join(str(row[c]) for c in cols) + "\n" for row in chain([first], table))
        _write(args, lambda: chain([sep.join(cols) + "\n"], lines))
        return 0
    _answer(args, None, lambda: {"input": {"r": args.r, "d": args.d, "k": args.k, "g": args.g,
                                           "m": args.m, "variant": args.variant},
                                 "rows": chain([first], table)})
    return 0


# ---------------------------------------------------------------------------
# check-point
# ---------------------------------------------------------------------------

def cmd_check_point(args) -> int:
    obj = _load_json(args.input)
    fs, basis = decode_point(obj)
    # sized before any work: the R x C constraint system, R = m C(k,2) and C = k(n-k),
    # and at m = 2 the k C(n-k, k-1) pencil minors of size k-1
    n, k, m = fs.dim, basis.nrows, fs.m
    R, C = m * (k * (k - 1) // 2), k * (n - k)
    minors = k * comb(n - k, k - 1) * (k - 1) ** 3 if m == 2 and k >= 2 else 0
    _require_budget(R * C * min(R, C) + minors, f"checking a point with n={n}, k={k}, m={m}")
    V = Subspace.from_span(basis)
    ctx = PointContext(V, fs, basis=basis)
    report = tangent_report(ctx)
    _answer(args, fs.field, lambda: {"input": obj, "report": report.encode()})
    return 0


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def _scan_sample(field: Field, n: int, k: int, m: int, seed: int, index: int) -> int | None:
    """Sample `index` of a seeded scan: the excess dimension of a random point,
    m C(k,2) minus its constraint rank, or None when the sampler stalls.  The
    point is the one record `_sampled_points` yields, as in sampled verify."""
    rng = Random(derive_seed(seed, index))
    for _, _, restrictions in _sampled_points(k, random_form_space(n, m, field, rng), rng, 1):
        return m * (k * (k - 1) // 2) - field.rank(_constraint_rows(field, k, n - k, restrictions))
    return None


def _run_tasks(worker, tasks, workers: int) -> list:
    """`worker` mapped over `tasks` (sample or pair indices) in order,
    optionally across a process pool.

    The pool never outnumbers the tasks or the CPUs: a fork-started pool
    starts all of its processes at once.  Chunks of a quarter of each
    worker's share cut the pickling round trips and still balance the tail.
    """
    if workers < 1:
        raise ValueError("--workers must be >= 1")
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(t) for t in tasks]
    import concurrent.futures  # here, so that a serial run never pays its import

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks, chunksize=-(-len(tasks) // (4 * workers))))


def cmd_scan(args) -> int:
    field = _field_from_args(args)
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    _require_isotropic_dim(args.n, args.k)
    expected = msg_expected_dim(args.n, args.k, args.m)
    _require_forms(args.n, args.m)
    # a drawn form costs O(n^3): the one rank of each drawn P, then P^T J P
    _require_budget(args.samples * args.m * args.n ** 3,
                    f"scanning {args.samples} samples x {args.m} forms x n^3 = {args.n ** 3}")
    excesses = _run_tasks(partial(_scan_sample, field, args.n, args.k, args.m, args.seed),
                          range(args.samples), args.workers)
    histogram = Counter(str(e) for e in excesses if e is not None)
    points = sum(histogram.values())
    _answer(args, field, lambda: {
        "input": {"n": args.n, "k": args.k, "m": args.m, "field": field.spec(),
                  "samples": args.samples, "seed": args.seed},
        "points": points,
        "sampler_exhausted": args.samples - points,
        "expected_dim": expected,
        "expected_dim_count": histogram["0"],
        "excess_dim_histogram": histogram,
    })
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    field = PrimeField(args.p)
    if args.pairs < 1:
        raise ValueError("--pairs must be >= 1")
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    # what every pair would refuse, and the whole run sized against the budget, come
    # before any pencil is drawn or any pool starts: a bad MSGKIT_BUDGET fails in both scopes
    _require_isotropic_dim(args.n, args.k)
    _require_forms(args.n, 2)
    _require_fault_row(args.k, args.inject_fault)
    if args.scope == "sampled":
        each, what = args.samples * args.n ** 3, f"steps ({args.samples} samples x n^3)"
    else:
        each, what = _subspace_count(args.n, args.k, args.p)
    _require_budget(args.pairs * each, f"verifying {args.pairs} pairs x {each} {what}")
    task = partial(_verify_seeded_pair, args.n, args.k, field, args.seed, scope=args.scope,
                   samples=args.samples, fault=args.inject_fault)
    report = _verify_report(_run_tasks(task, range(args.pairs), args.workers),
                            args.scope, args.samples)
    found = Counter(i for i, _, _ in report.mismatches)
    _answer(args, field, lambda: {
        "input": {"n": args.n, "k": args.k, "p": args.p, "pairs": args.pairs,
                  "scope": args.scope, "samples": args.samples,
                  "seed": args.seed, "inject_fault": args.inject_fault},
        "pairs_checked": report.pairs_checked,
        "points_checked": report.points_checked,
        "mismatch_count": len(report.mismatches),
        "per_pair": [{"pair": i, "points": points, "mismatches": found[i]}
                     for i, points in enumerate(report.pair_points)],
        "mismatches": ({"pair": i, "forms": [g.encode() for g in fs.grams()], **rec.encode()}
                       for i, fs, rec in report.mismatches),
    })
    return 1 if report.mismatches else 0


# ---------------------------------------------------------------------------
# normal-form
# ---------------------------------------------------------------------------

def cmd_normal_form(args) -> int:
    obj = _load_json(args.input)
    if not isinstance(obj, dict) or "field" not in obj or "matrix" not in obj:
        raise ValueError("matrix file must be {'field': ..., 'matrix': ...}")
    field = field_from_spec(obj["field"])
    M = Matrix.decode(field, obj["matrix"])
    # the Schur steps and the re-verification each cost O(n^3); `skew_normal_form`
    # refuses a matrix that is not square or not alternating, on its own lift
    n = M.nrows
    _require_budget(n ** 3, f"a normal form of n={n} (n^3 = {n ** 3})")
    P, rank = skew_normal_form(M)
    canonical = canonical_alternating(field, n, rank)
    if not _congruent(M, P, canonical):  # P^T M P, recomputed on ints
        raise ArithmeticError("normal form re-verification failed")
    _answer(args, field, lambda: {"input": obj, "P": P.encode(),
                                  "canonical": canonical.encode(), "rank": rank})
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msgkit",
        description="Exact tangent-space and degeneracy computations on "
                    "multiply symplectic Grassmannians.",
    )
    parser.add_argument("--version", action="version", version=f"msgkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rho = sub.add_parser("rho", help="Brill-Noether expected-dimension formulas")
    p_rho.add_argument("--r", required=True, help="rank (int or a..b)")
    p_rho.add_argument("--d", required=True,
                       help="degree (int, a..b, or linear in g like '2g-2')")
    p_rho.add_argument("--k", required=True, help="section count (int or a..b)")
    p_rho.add_argument("--g", required=True, help="genus (int or a..b)")
    p_rho.add_argument("--m", default=None,
                       help="h^1 of the determinant; adds rho2_special columns")
    p_rho.add_argument("--variant", choices=VARIANTS, default=None,
                       help="rho normalization (default: emit both)")
    p_rho.add_argument("--format", choices=("json", "csv", "plain"), default="json")
    p_rho.add_argument("--output", default=None)
    p_rho.set_defaults(func=cmd_rho)

    p_chk = sub.add_parser("check-point", help="tangent report for a JSON point file")
    p_chk.add_argument("--input", required=True, help="point file path")
    p_chk.add_argument("--output", default=None)
    p_chk.set_defaults(func=cmd_check_point)

    p_scan = sub.add_parser("scan", help="sample random points, tabulate excess")
    p_scan.add_argument("--n", type=int, required=True)
    p_scan.add_argument("--k", type=int, required=True)
    p_scan.add_argument("--m", type=int, default=1)
    scan_field = p_scan.add_mutually_exclusive_group()
    scan_field.add_argument("--p", type=int, default=None, help="prime field modulus")
    scan_field.add_argument("--field", choices=("rational",), default=None,
                            help="use the rationals instead of --p")
    p_scan.add_argument("--samples", type=int, default=100)
    p_scan.add_argument("--seed", type=int, default=0)
    p_scan.add_argument("--workers", type=int, default=1)
    p_scan.add_argument("--output", default=None)
    p_scan.set_defaults(func=cmd_scan)

    p_ver = sub.add_parser("verify", help="verify the dimension/degeneracy equivalence")
    p_ver.add_argument("--n", type=int, required=True)
    p_ver.add_argument("--k", type=int, required=True)
    p_ver.add_argument("--p", type=int, required=True, help="prime field modulus")
    p_ver.add_argument("--pairs", type=int, required=True,
                       help="number of random independent pencils")
    p_ver.add_argument("--scope", choices=("exhaustive", "sampled"),
                       default="exhaustive")
    p_ver.add_argument("--samples", type=int, default=100,
                       help="points per pair in sampled scope")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--workers", type=int, default=1)
    p_ver.add_argument("--inject-fault", action="store_true",
                       help="self-test: corrupt one constraint row; must exit 1")
    p_ver.add_argument("--output", default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_nf = sub.add_parser("normal-form", help="canonical form of an alternating matrix")
    p_nf.add_argument("--input", required=True, help="matrix file path")
    p_nf.add_argument("--output", default=None)
    p_nf.set_defaults(func=cmd_normal_form)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:  # a ValueError, so it comes first
        return _fail(f"malformed JSON: {exc}")
    except (BudgetExceeded, ValueError, KeyError, TypeError, OSError) as exc:
        return _fail(str(exc))
    except (ArithmeticError, RuntimeError, MemoryError) as exc:  # a self-check, a dead worker
        return _fail(f"internal failure: {exc!r}", 3)
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
