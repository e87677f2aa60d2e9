"""Exact cyclotomic arithmetic: the scalar layer everything else rides on.

Every scalar is a residue modulo a cyclotomic polynomial, so arithmetic is
exact and equality is decidable; no floating point appears anywhere.
"""

from nichols.scalars import (
    format_scalar,
    integer,
    one,
    order,
    q_binomial,
    q_factorial,
    q_number,
    root_of_unity,
)

# primitive roots of unity of any order mix freely across conductors
w = root_of_unity(3, 1)       # a primitive cube root
i = root_of_unity(4, 1)       # a primitive fourth root
z = w * i                     # lands in the conductor-12 field
print("w =", format_scalar(w), " (conductor", w.conductor, ")")
print("i =", format_scalar(i), " (conductor", i.conductor, ")")
print("w*i =", format_scalar(z), " (conductor", z.conductor, ")")
print("order(w*i) =", order(z))

# the sum of the two primitive cube roots is -1
print("w + w^2 =", format_scalar(w + w * w))

# multiplicative orders follow the convention that 1 has infinite order,
# which order() reports as None
n1 = order(one())
print("order(1) =", "inf" if n1 is None else n1,
      "   order(-1) =", order(integer(-1)))

# q-numbers evaluate integer polynomials, never ratios, so root-of-unity
# degenerations are exact: the q-factorial (3)_w! vanishes because the
# quantum integer (3)_w does
print("(2)_w =", format_scalar(q_number(2, w)))
print("(3)_w! =", format_scalar(q_factorial(3, w)))
print("binom(4,2) at q=-1 =", format_scalar(q_binomial(4, 2, integer(-1))))
