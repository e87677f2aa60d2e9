"""Graded dimensions of Nichols algebras, exactly.

The degree-n component is the image of the quantum symmetrizer inside the
tensor coalgebra.  Generation in degree one lets the engine build each
component from the previous one: the skew derivations of u . x_a come
from those of u, multiplied on the right by a letter, and the braiding
of two letters, so even the nine-step computation on four letters
finishes in under a second with exact cyclotomic arithmetic.
"""

import time

from nichols.algebra import GradedComputation, hilbert, relations
from nichols.linalg import decode_word
from nichols.scalars import format_scalar, integer, root_of_unity
from nichols import pairs


def show(name, bp, cutoff):
    t0 = time.time()
    res = hilbert(bp, cutoff)
    verdict = f"total {res.total}" if res.finite else "unknown at cutoff"
    print(f"{name:12s} dims {res.dims}  {verdict}  ({time.time()-t0:.2f}s)")
    return res


# the three-dimensional pair at q = -1: twelve dimensional
v3 = pairs.v3(integer(-1))
show("v3(-1)", v3, 8)

# its defining relations: three squares and two cyclic sums, all quadratic
cache = GradedComputation(v3)
for row in relations(v3, 2, cache):
    terms = " + ".join(
        f"{format_scalar(c)}*x{'x'.join(str(t) for t in decode_word(w, 3, 2))}"
        for w, c in sorted(row.items()))
    print("   relation:", terms)

# the four-dimensional pair at q = -1, alpha = +1: seventy-two dimensional,
# with one extra relation hiding in degree six
v4 = pairs.v4(integer(-1), integer(1))
show("v4(-1,+1)", v4, 12)
cache4 = GradedComputation(v4)
counts = {n: len(relations(v4, n, cache4)) for n in range(2, 7)}
print("   new relation ideal generators per degree:", counts)
sextic = relations(v4, 6, cache4)[0]
lead = decode_word(min(sextic), 4, 6)
print("   the degree-six relation leads with the word",
      "x" + "x".join(str(t) for t in lead), f"({len(sextic)} terms)")

# two diagonal club examples and the two-plus-two module
i4 = root_of_unity(4, 1)
w3 = root_of_unity(3, 1)
show("type A2", pairs.diagonal([[integer(-1), i4], [integer(-1), i4]]), 8)
show("type B2", pairs.diagonal([[integer(-1), w3], [integer(-1), w3]]), 12)
show("2+2 module", pairs.two_by_two(integer(-1), integer(-1), integer(1),
                                    integer(1), integer(1), integer(1)), 10)

# an infinite example: no zero dimension appears, so no verdict is claimed
show("free line", pairs.diagonal([[integer(1)]]), 6)
