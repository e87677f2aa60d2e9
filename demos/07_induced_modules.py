"""Braided pairs read off finite group data.

A group element and a representation of its centralizer induce a
Yetter-Drinfeld module on the indexed conjugacy class; characters give
monomial braidings.  ``pairs.yd_module`` takes a list of such summands and
braids their sum by c(v (x) w) = (deg v . w) (x) v, so the cross terms
between summands come from the group as well.
"""

from nichols.algebra import hilbert
from nichols.groups import (
    centralizer,
    conjugacy_classes,
    cyclic,
    cyclic_character,
    dihedral,
    symmetric,
)
from nichols.scalars import format_scalar, root_of_unity
from nichols import pairs

s3 = symmetric(3)
print("class sizes in the symmetric group on three letters:",
      sorted(len(c) for c in conjugacy_classes(s3)))

# a three-cycle has a cyclic centralizer of order three; the character
# sending it to a cube root induces a two-dimensional diagonal pair
three = next(g for g in s3.elements()
             if g != s3.identity and s3.mul(g, s3.mul(g, g)) == s3.identity
             and s3.mul(g, g) != s3.identity)
print("centralizer size:", len(centralizer(s3, three)))
w = root_of_unity(3, 1)
bp = pairs.yd_module(s3, [(three, cyclic_character(s3, three, w))])
print("induced pair:", bp, "diagonal matrix:",
      [[format_scalar(v) for v in row] for row in pairs.is_diagonal(bp)])

# dihedral groups carry the classes behind the two-plus-two modules
d4 = dihedral(4)
print("dihedral group of order 8 has class sizes",
      sorted(len(c) for c in conjugacy_classes(d4)))

# abelian case: two lines over the cyclic group of order four, graded by
# sigma^2 and sigma and acted on through one character chi(sigma) = i; the
# group supplies the cross actions, and the sum is the sixteen-dimensional
# type-A2 algebra
c4 = cyclic(4)
i = root_of_unity(4, 1)
chi = cyclic_character(c4, 1, i)
total = pairs.yd_module(c4, [(2, chi), (1, chi)])
print("glued pair dimension:", hilbert(total, 8).total)
