"""The four benchmark workloads: their command lines, inputs and correctness checks.

Every workload runs msgkit in a fresh process, as a user would.  The
benchmark seed selects one of `REF_SEEDS` input sets (seed modulo
`REF_SEEDS`); `reference.json` holds the answers this repository gave
for each of them when the benchmark was defined, so a check compares
the program's own output with recorded counts as well as with the
invariants the output must satisfy.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
REF_SEEDS = 32


def input_seed(seed: int) -> int:
    return seed % REF_SEEDS


# ---------------------------------------------------------------------------
# F_p workloads through the CLI
# ---------------------------------------------------------------------------

class VerifyWorkload:
    """`msgkit verify` at one size; every pair must match its recorded point count."""

    workers = 1

    def __init__(self, name: str, scope: str, n: int, k: int, pairs: int, samples: int = 100):
        self.name, self.scope = name, scope
        self.n, self.k, self.pairs, self.samples = n, k, pairs, samples

    def argv(self, seed: int, workdir: Path) -> list[str]:
        return ["-m", "msgkit", "verify", "--scope", self.scope, "--n", str(self.n),
                "--k", str(self.k), "--p", "3", "--pairs", str(self.pairs),
                "--samples", str(self.samples), "--workers", "1", "--seed", str(seed)]

    def reference(self, out: dict) -> dict:
        return {"points": [p["points"] for p in out["per_pair"]]}

    def check(self, code: int, out: dict, ref: dict, seed: int) -> list[str]:
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if out["mismatch_count"] != 0 or out["mismatches"]:
            problems.append(f"mismatch_count {out['mismatch_count']}")
        points = [p["points"] for p in out["per_pair"]]
        if points != ref["points"]:
            problems.append(f"per-pair points {points} != reference {ref['points']}")
        if out["points_checked"] != sum(ref["points"]):
            problems.append(f"points_checked {out['points_checked']}")
        if any(p["mismatches"] for p in out["per_pair"]):
            problems.append("a pair reports mismatches")
        return problems

    def work(self, out: dict) -> int:
        return out["points_checked"]

    def draws(self, out: dict) -> tuple[int, int]:
        """(stalled draws, draws); exhaustive scope draws nothing."""
        if self.scope == "exhaustive":
            return 0, 0
        total = self.pairs * self.samples
        return total - out["points_checked"], total


class ScanWorkload:
    """`msgkit scan` through the process pool; counts and histogram must match."""

    def __init__(self, name: str, n: int, k: int, m: int, samples: int, workers: int):
        self.name = name
        self.n, self.k, self.m, self.samples, self.workers = n, k, m, samples, workers

    def argv(self, seed: int, workdir: Path, workers: int | None = None) -> list[str]:
        return ["-m", "msgkit", "scan", "--n", str(self.n), "--k", str(self.k),
                "--m", str(self.m), "--p", "3", "--samples", str(self.samples),
                "--workers", str(workers or self.workers), "--seed", str(seed)]

    def reference(self, out: dict) -> dict:
        return {"points": out["points"], "sampler_exhausted": out["sampler_exhausted"],
                "histogram": out["excess_dim_histogram"]}

    def check(self, code: int, out: dict, ref: dict, seed: int) -> list[str]:
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        got = self.reference(out)
        for key in ("points", "sampler_exhausted", "histogram"):
            if got[key] != ref[key]:
                problems.append(f"{key} {got[key]} != reference {ref[key]}")
        if out["points"] + out["sampler_exhausted"] != self.samples:
            problems.append("points + sampler_exhausted != samples")
        if sum(out["excess_dim_histogram"].values()) != out["points"]:
            problems.append("histogram does not sum to points")
        return problems

    def work(self, out: dict) -> int:
        return out["points"]

    def draws(self, out: dict) -> tuple[int, int]:
        return out["sampler_exhausted"], self.samples


# ---------------------------------------------------------------------------
# rational pencils through the library
# ---------------------------------------------------------------------------

def _J(n: int) -> list[list[int]]:
    """Block diagonal of [[0, 1], [-1, 0]]."""
    M = [[0] * n for _ in range(n)]
    for b in range(n // 2):
        M[2 * b][2 * b + 1], M[2 * b + 1][2 * b] = 1, -1
    return M


def _matmul(A, B):
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


def _transpose(A):
    return [list(r) for r in zip(*A)]


def _det(A) -> Fraction:
    A = [[Fraction(x) for x in row] for row in A]
    n, det = len(A), Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if A[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            A[c], A[p] = A[p], A[c]
            det = -det
        det *= A[c][c]
        for i in range(c + 1, n):
            f = A[i][c] / A[c][c]
            A[i] = [x - f * y for x, y in zip(A[i], A[c])]
    return det


def _random_prime(rng: Random, digits: int) -> int:
    """A random prime above 3 with `digits` digits."""
    while True:
        q = rng.randint(10 ** (digits - 1), 10 ** digits - 1)
        if q > 3 and all(q % f for f in range(2, int(q ** 0.5) + 1)):
            return q


def _random_alternating(rng: Random, n: int, bound: int):
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            M[i][j] = rng.randint(-bound, bound)
            M[j][i] = -M[i][j]
    return M


def _encode(x) -> int | str:
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class RationalWorkload:
    """Alternating pencils over Q, half with planted rational eigenvalues.

    A planted pencil is M1 = P^T J P, M2 = P^T diag(d_i J) P for a random
    integer P, so M2 M1^{-1} is similar to diag(d_i I_2): its eigenvalues
    are exactly the d_i, each with even nullity.  The i-th d_i is
    +-2^(i+1) q / (3^(i+1) r) for distinct random primes q, r > 3 of one to
    four digits, the digit count cycling with the pencil index, so root
    finding over Q meets growing heights.  The fixed powers of 2 and 3 give
    the constant and leading coefficients many divisors, which the rational
    root search must try; the random primes change that count little, so
    the work is nearly the same from seed to seed.
    """

    workers = 1

    def __init__(self, name: str, n: int, pencils: int):
        self.name, self.n, self.pencils = name, n, pencils

    def make_pencils(self, seed: int) -> list[tuple]:
        rng = Random(seed)
        n, out = self.n, []
        for i in range(self.pencils):
            if i % 2 == 0:
                digits = 1 + (i // 2) % 4
                while True:
                    P = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
                    if _det(P):
                        break
                ds = []
                for b in range(n // 2):
                    q = r = 0
                    while q == r:
                        q, r = _random_prime(rng, digits), _random_prime(rng, digits)
                    sign = rng.choice((-1, 1))
                    ds.append(Fraction(sign * 2 ** (b + 1) * q, 3 ** (b + 1) * r))
                D = [[0] * n for _ in range(n)]
                for b, d in enumerate(ds):
                    D[2 * b][2 * b + 1], D[2 * b + 1][2 * b] = d, -d
                Pt = _transpose(P)
                out.append((_matmul(_matmul(Pt, _J(n)), P), _matmul(_matmul(Pt, D), P), ds))
            else:
                while True:
                    M1, M2 = _random_alternating(rng, n, 3), _random_alternating(rng, n, 3)
                    if _det(M1) and _det(M2):
                        break
                out.append((M1, M2, None))
        return out

    def argv(self, seed: int, workdir: Path) -> list[str]:
        path = workdir / f"rational-input-{seed}.json"
        pencils = [{"m1": [[_encode(x) for x in r] for r in M1],
                    "m2": [[_encode(x) for x in r] for r in M2]}
                   for M1, M2, _ in self.make_pencils(seed)]
        path.write_text(json.dumps({"pencils": pencils}))
        return [str(HERE / "rational_driver.py"), str(path)]

    def reference(self, out: dict) -> dict:
        return {"eigen": [[p["eigenvalues"], p["nullities"]] for p in out["pencils"]]}

    def check(self, code: int, out: dict, ref: dict, seed: int) -> list[str]:
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        pencils = self.make_pencils(seed)
        if out["pencils_checked"] != len(pencils) or len(out["pencils"]) != len(pencils):
            return problems + [f"pencils_checked {out['pencils_checked']} != {len(pencils)}"]
        if self.reference(out) != ref:
            problems.append("eigenvalues or nullities differ from the reference")
        canonical = _J(self.n)
        for i, ((M1, M2, ds), res) in enumerate(zip(pencils, out["pencils"])):
            if any(nu % 2 for nu in res["nullities"]) or not res["all_even"]:
                problems.append(f"pencil {i}: odd nullity {res['nullities']}")
            if ds is not None:
                got = [Fraction(x) for x in res["eigenvalues"]]
                mult = Counter(ds)
                if got != sorted(mult):
                    problems.append(f"pencil {i}: eigenvalues {got} != planted {sorted(mult)}")
                elif res["nullities"] != [2 * mult[d] for d in got]:
                    problems.append(f"pencil {i}: nullities {res['nullities']}")
            for M, form in zip((M1, M2), res["normal_forms"]):
                P = [[Fraction(x) for x in row] for row in form["P"]]
                if form["rank"] != self.n or _matmul(_matmul(_transpose(P), M), P) != canonical:
                    problems.append(f"pencil {i}: P^T M P is not the canonical form")
        return problems

    def work(self, out: dict) -> int:
        return out["pencils_checked"]

    def draws(self, out: dict) -> tuple[int, int]:
        return 0, 0


WORKLOADS = {w.name: w for w in (
    VerifyWorkload("verify-exhaustive", "exhaustive", n=6, k=2, pairs=1),
    VerifyWorkload("verify-sampled", "sampled", n=8, k=3, pairs=8, samples=100),
    ScanWorkload("scan-pool", n=8, k=3, m=2, samples=1600, workers=2),
    RationalWorkload("rational-pencils", n=6, pencils=48),
)}


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())
