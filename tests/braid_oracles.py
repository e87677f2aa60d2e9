"""Braid group algebra elements built the long way, as test oracles.

The package applies the symmetrizers and R^j_i through their
factorizations (``braids.symmetrizer_apply``, ``braids.r_binomials``);
these build the same elements as sums of braid words, so the tests can
compare the two.
"""

from itertools import permutations

from nichols.braids import GroupAlgElt, matsumoto_section, r_binomials
from nichols.scalars import ONE


def transposition(n, i):
    """The adjacent transposition swapping positions i-1 and i (1-based i)."""
    out = list(range(n))
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def shifted(elt, offset, strands):
    """The image of ``elt`` under the inclusion sending sigma_i to
    sigma_(i+offset), on ``strands`` strands."""
    terms = {tuple((i + offset) if i > 0 else (i - offset) for i in w): c
             for w, c in elt.terms.items()}
    return GroupAlgElt(strands, terms)


def block(a, b):
    """(a | b): a on the first strands, b shifted past them."""
    strands = a.strands + b.strands
    out = GroupAlgElt(strands)
    bs = shifted(b, a.strands, strands)
    for w1, c1 in a.terms.items():
        for w2, c2 in bs.terms.items():
            out.terms[w1 + w2] = c1 * c2
    return out


def r_elt(strands, j, i):
    """R^j_i expanded: the product of ``r_binomials(strands, j, i)``, a sum
    of 2^(j-i+1) words."""
    out = GroupAlgElt.unit(strands)
    for factor in r_binomials(strands, j, i):
        out = out * factor
    return out


def symmetrizer(n):
    """The full quantum symmetrizer: sum of the lifts of all of S_n; for
    n = 0 the identity on zero strands."""
    out = GroupAlgElt(n)
    for p in permutations(range(n)):
        out.terms[matsumoto_section(p)] = ONE
    return out
