"""The group-algebra operator identities behind the generalized quantum
Serre relations, packaged for verification over suites of braided pairs.

Formal sums of braid words have no normal form, so each identity is checked
through its action (``braids.verify_identity``): per pair, both sides act
once on the sum of all standard basis tensors, each term tagged with its
input word in the high digits of its key, in the pair's field
``scalars.field(m)``.  Each side is embedded into each field of the suite
once, and each pair keeps its embedded braiding.  Sides are kept as
products of factors and evaluated right to left, which avoids expanding
sums of sums.  R^j_i stays its j - i + 1 binomials e - D^j_k sigma_j
(``braids.r_binomials``), not the sum of 2^(j-i+1) words it expands to; a
sum of words crosses each shared suffix once, and the full symmetrizer
factor runs through its quadratic-cost recursion (itself checked against
the brute-force word sum elsewhere).  The identity families are indexed by
the number of moving strands n and act on n + 1 strands.
"""

import random
from math import lcm

from .braids import (GroupAlgElt, d_elt, r_binomials, symmetrizer_apply,
                     u_elt)
from .scalars import root_of_unity
from . import pairs as _pairs


class Product:
    """A product of operator factors, rightmost acting first.  A factor is
    a GroupAlgElt, or an int k for the degree-k symmetrizer acting on the
    first k strands."""

    __slots__ = ("strands", "factors")

    def __init__(self, strands, factors):
        self.strands = strands
        self.factors = list(factors)

    @property
    def conductor(self):
        """The lcm of the conductors of the GroupAlgElt factors."""
        return lcm(1, *(f.conductor for f in self.factors
                        if not isinstance(f, int)))

    def embed(self, field):
        """The same product with its coefficients in ``field``."""
        return Product(self.strands, [f if isinstance(f, int)
                                      else f.embed(field)
                                      for f in self.factors])

    def apply(self, bp, vec, n):
        cur = vec
        for f in reversed(self.factors):
            if isinstance(f, int):
                cur = symmetrizer_apply(bp, n, cur, f)
            else:
                cur = f.apply(bp, cur, n)
        return cur


def _gen(strands, j):
    return GroupAlgElt.from_word(strands, (j,))


def identity_family(n):
    """All identity instances on n + 1 strands, as (name, lhs, rhs)."""
    s = n + 1
    out = []
    un1 = u_elt(s, n, 1)
    dn1 = d_elt(s, n, 1)
    for j in range(2, n + 1):
        out.append((f"u_shift_intertwiner n={n} j={j}",
                    un1 * _gen(s, j), _gen(s, j - 1) * un1))
        out.append((f"d_shift_intertwiner n={n} j={j}",
                    _gen(s, j) * dn1, dn1 * _gen(s, j - 1)))
        out.append((f"du_centralizer n={n} j={j}",
                    _gen(s, j) * dn1 * un1, dn1 * un1 * _gen(s, j)))
    if n >= 3:
        dn2 = d_elt(s, n, 2)
        sn = _gen(s, n)
        for j in range(2, n):
            out.append((f"u_slide n={n} j={j}",
                        u_elt(s, j, 1) * dn2 * sn,
                        dn1 * sn * u_elt(s, j - 1, 1)))
    if n >= 2:
        e = GroupAlgElt.unit(s)
        usum = e
        for k in range(1, n):
            usum = usum + u_elt(s, k, 1)
        dsum = GroupAlgElt(s)
        for k in range(1, n + 1):
            dsum = dsum + d_elt(s, n, k) * un1
        out.append((f"ladder_exchange n={n}",
                    Product(s, [usum - dsum, *r_binomials(s, n, 2)]),
                    Product(s, [*r_binomials(s, n, 1), usum])))
    # the symmetrizer factorization producing the Serre-type relations
    e = GroupAlgElt.unit(s)
    binomials = [e - u_elt(s, n, k) for k in range(1, n + 1)]
    lhs = Product(s, [s] + binomials)
    rhs = Product(s, [*r_binomials(s, n, 1), n])
    out.append((f"symmetrizer_factorization n={n}", lhs, rhs))
    return out


def all_identities(max_n):
    out = []
    for n in range(1, max_n + 1):
        out.extend(identity_family(n))
    return out


def standard_suite(count=10, max_order=12, seed=20240):
    """Deterministic suite of random 2 x 2 diagonal braided pairs with
    entries of bounded multiplicative order.

    Each pair draws all of its entries from a single conductor m <= the
    order bound, so the pair's scalars stay in one small cyclotomic field;
    mixing coprime conductors would square the coefficient length without
    exercising anything new.  An empty suite would verify nothing, so
    ``count`` must be at least 1.
    """
    if count < 1:
        raise ValueError(f"a suite needs at least one pair, got count {count}")
    rng = random.Random(seed)
    suite = []
    while len(suite) < count:
        m = rng.randint(1, max_order)
        q = [[root_of_unity(m, rng.randrange(m)) for _ in range(2)]
             for _ in range(2)]
        suite.append(_pairs.diagonal(q))
    return suite
