"""Library driver over Q: eigenspace parity and normal forms of alternating pencils.

    python3 perfbench/rational_driver.py INPUT.json

INPUT holds {"pencils": [{"m1": rows, "m2": rows}, ...]} with entries in
msgkit's rational encoding.  For each pencil this runs
`check_even_eigenspaces(M1, M2)` and `skew_normal_form` on both matrices,
and prints one JSON object with the results, as a user script would.
"""

from __future__ import annotations

import json
import sys

from msgkit import QQ, Matrix, __version__, check_even_eigenspaces, skew_normal_form


def main(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        pencils = json.load(fh)["pencils"]
    results = []
    for pencil in pencils:
        M1 = Matrix.decode(QQ, pencil["m1"])
        M2 = Matrix.decode(QQ, pencil["m2"])
        report = check_even_eigenspaces(M1, M2)
        forms = []
        for M in (M1, M2):
            P, rank = skew_normal_form(M)
            forms.append({"P": P.encode(), "rank": rank})
        results.append({
            "eigenvalues": [QQ.encode(d) for d in report.eigenvalues_in_field],
            "nullities": list(report.nullities),
            "all_even": report.all_even,
            "normal_forms": forms,
        })
    json.dump({"version": __version__, "pencils_checked": len(results),
               "pencils": results}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
