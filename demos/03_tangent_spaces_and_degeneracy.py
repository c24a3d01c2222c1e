"""Tangent dimensions at isotropic points, and how excess arises.

The intersection of two symplectic Grassmannians has expected codimension
2*C(k,2) inside the ambient Grassmannian; a point exceeds that dimension
exactly when some nonzero combination of the two forms kills a 2-plane of
V against E/V.  This script walks the recorded excess instance: both
tangent constraints coincide there, the pencil contracts onto u + v, and
the witness combination annihilates all of V.
"""

from msgkit import (
    FormSpace,
    Matrix,
    PointContext,
    QQ,
    Subspace,
    SymplecticForm,
    build_constraints,
    decode_kernel_element,
    find_degenerate_pencil,
    j_V,
    tangent_report,
)

w1 = Matrix(QQ, 4, 4, [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
w2 = Matrix(QQ, 4, 4, [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 1], [0, -1, -1, 0]])
fs = FormSpace([SymplecticForm(w1), SymplecticForm(w2)])
V = Subspace(Matrix(QQ, 2, 4, [[1, 0, 0, 0], [0, 1, 0, 0]]))
ctx = PointContext(V, fs)

print("== the point ==")
print("V = span(e1, e2) in F^4, isotropic for both forms")
print("complement (default):", ctx.complement.encode())

print("\n== restriction matrices <v_i, w_a>_t ==")
R1, R2 = ctx.restrictions
print("R1 =", R1.encode())
print("R2 =", R2.encode(), " (identical: the forms agree on V x complement)")

print("\n== constraint system ==")
C = build_constraints(ctx)
print("rows:", C.encode())
print("two conditions, rank", C.rank(), "-> one redundant")

print("\n== tangent report ==")
rep = tangent_report(ctx)
print(f"tangent_dim = {rep.tangent_dim}, expected = {rep.expected_dim}"
      f" -> excess {rep.excess()}")

print("\n== the kernel element and its decoded generators ==")
kelem = rep.phi_kernel[0]
print("coefficient matrices per form:", [M.encode() for M in kelem.matrices])
generators, verified = decode_kernel_element(ctx, kelem)
for idx, gen in enumerate(generators, start=1):
    print(f"generator {idx} (rows = v_i, cols = forms):", gen.encode(),
          " j_V ->", [QQ.encode(x) for x in j_V(ctx, gen)])
print("all generators annihilated by j_V:", verified)

print("\n== the degenerate pencil combination ==")
deg = find_degenerate_pencil(ctx)
print("certificate (gcd of pencil minors):", deg.certificate)
(lam, W) = deg.witnesses[0]
print("witness lambda:", tuple(QQ.encode(x) for x in lam),
      " kills V' with basis", W.basis.encode())
comb = fs.combination(list(lam))
print("combination Gram matrix:", comb.encode())
print("V' x complement pairing:",
      W.basis.mul(comb).mul(ctx.complement.transpose()).encode())
