"""A tour of the braided pair constructors.

A braided pair is a finite-dimensional space with an invertible solution
of the braid equation; every constructor validates the braid equation on
the triple tensor power, invertibility, and the attached group-like
actions before returning.
"""

from nichols.scalars import format_scalar, integer, one, root_of_unity
from nichols import pairs, quandles

# diagonal braidings: a matrix of roots of unity
w = root_of_unity(3, 1)
c6 = pairs.diagonal([[integer(-1), w], [integer(-1), w]])
print(c6, "->", pairs.check(c6))

# the three-dimensional family with cyclic index arithmetic
v3 = pairs.v3(integer(-1))
print(v3)
for (i, j) in ((0, 1), (1, 2)):
    terms = v3.braiding_terms(i, j)
    print(f"  c(x{i} (x) x{j}) =",
          " + ".join(f"{format_scalar(c)} x{k}(x)x{l}" for (k, l), c in terms))

# a crossed-set cocycle braiding: the cyclic quandle with a constant
# cocycle rebuilds the same pair
xs = quandles.zmod3_crossed_set()
f = quandles.Cochain2.constant(xs, 2, 1)
print("cocycle pair equals v3(-1):", pairs.from_cocycle(xs, f).cmap == v3.cmap)

# the four-dimensional family, and the two-plus-two module whose basis
# change reveals a diagonal braiding
v4 = pairs.v4(integer(-1), integer(1))
print(v4)
ms = pairs.two_by_two(integer(-1), integer(-1), one(), one(), one(), one())
print(ms, "decomposes as", pairs.find_decomposition(ms))
zb = pairs.change_basis(ms, pairs.two_by_two_z_basis(one(), one()))
print("diagonal after the eigenvector basis change:",
      pairs.is_diagonal(zb) is not None)

# decompositions are the finest basis partitions the braiding respects
print("v3 is indecomposable:", pairs.find_decomposition(v3))
print("diagonal pairs split into lines:", pairs.find_decomposition(c6))
