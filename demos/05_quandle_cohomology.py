"""Crossed sets, their cochain complex, and braidings from 2-cocycles.

Multiplicative cochains valued in roots of unity become integer exponent
tables and the differentials become integer matrices.  Cohomology over a
finite cyclic coefficient group Z/m comes from the integer Smith normal
forms of two differentials via the universal coefficient theorem.
"""

from nichols.quandles import (
    Cochain2,
    conjugation_crossed_set,
    delta_matrix,
    dihedral_crossed_set,
    h1,
    h2,
    pi0,
    trivial_crossed_set,
    zmod3_crossed_set,
)
from nichols.groups import symmetric
from nichols.algebra import hilbert
from nichols import pairs

# the cyclic quandle on three elements: i |> j = -i - j
xs = zmod3_crossed_set()
print(xs, "table:", xs.table)
print("connected components:", pi0(xs))

# its second cohomology is only the constants, for every modulus
for m in (2, 3, 4, 6):
    print(f"H2(X; Z/{m}) invariant factors:", h2(xs, m).factors)

# first cohomology counts components
group, comps = h1(trivial_crossed_set(3), 4)
print("trivial set of size three: pi0 =", comps, " H1 =", group.factors)

# conjugacy classes give crossed sets; the transpositions in the symmetric
# group on three letters form the dihedral quandle
s3 = symmetric(3)
transposition = next(x for x in s3.elements()
                     if x != s3.identity and s3.mul(x, x) == s3.identity)
conj = conjugation_crossed_set(s3, [transposition])
print("transposition class:", conj, conj.table)

# a 2-cochain braids the spanned space exactly when it is a 2-cocycle; the
# constant cocycle -1 on the cyclic quandle produces a twelve-dimensional
# Nichols algebra
f = Cochain2.constant(xs, 2, 1)
print("constant -1 braids:", f.is_cocycle(xs))
bp = pairs.from_cocycle(xs, f)
print("its Nichols algebra:", hilbert(bp, 6).total, "dimensional")

# the differentials compose to zero: it really is a cochain complex
d1 = delta_matrix(dihedral_crossed_set(5), 1)
d2 = delta_matrix(dihedral_crossed_set(5), 2)
square = [[sum(d2[r][k] * d1[k][c] for k in range(len(d1)))
           for c in range(len(d1[0]))] for r in range(len(d2))]
print("delta^2 after delta^1 vanishes:",
      all(v == 0 for row in square for v in row))
