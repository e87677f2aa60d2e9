"""Crossed sets (quandles), their multiplicative cochain complex, and
cohomology over finite cyclic coefficient groups.

Cochains X^n -> (roots of unity) are written additively as exponent tables
modulo m, so the differentials become integer matrices.  H^n over Z/m
comes from the integer Smith normal forms of delta^n and delta^(n-1) via
the universal coefficient theorem.  Coefficients are fixed to Z/m:
computable, and nothing is lost for braidings of finite group type, whose
cocycle values are roots of unity.  Cohomology with all units as
coefficients is the directed union of these finite-cyclic answers
(compute over Z/m for every m of interest); it is not materialized as a
single object here.
"""

from functools import lru_cache
from math import gcd

from .groups import conjugacy_class, orbits
from .linalg import InvalidInput, divisibility_chain, smith_normal_form
from .scalars import root_of_unity


class CrossedSet:
    """A finite set with a self-distributive operation i |> j satisfying
    the crossed-set axioms; conjugation on unions of conjugacy classes is
    the motivating example."""

    __slots__ = ("size", "table", "name")

    def __init__(self, table, name="crossed set"):
        table = tuple(tuple(row) for row in table)
        if not table:
            raise ValueError("crossed sets need at least one element")
        self.size = len(table)
        self.table = table
        self.name = name
        ok, why = check_crossed_set(table)
        if not ok:
            raise InvalidInput(why)

    def act(self, i, j):
        return self.table[i][j]

    def __len__(self):
        return self.size

    def __repr__(self):
        return f"CrossedSet({self.name}, size={self.size})"


def check_crossed_set(table):
    """Verify the four axioms exhaustively.  Returns (ok, diagnostics)."""
    n = len(table)
    if any(len(row) != n for row in table):
        return False, "table is not square"
    rng = range(n)
    for i in rng:
        if sorted(table[i]) != list(rng):
            return False, f"left translation by {i} is not a bijection"
    for i in rng:
        if table[i][i] != i:
            return False, f"axiom i|>i=i fails at i={i}"
    for i in rng:
        for j in rng:
            if table[i][j] == j and table[j][i] != i:
                return False, f"axiom (i|>j=j => j|>i=i) fails at ({i},{j})"
    for i in rng:
        ti = table[i]
        for j in rng:
            for k in rng:
                if ti[table[j][k]] != table[ti[j]][ti[k]]:
                    return False, f"self-distributivity fails at ({i},{j},{k})"
    return True, "ok"


def trivial_crossed_set(n):
    return CrossedSet([[j for j in range(n)] for _ in range(n)],
                      name=f"trivial{n}")


def dihedral_crossed_set(n):
    """Z/n with i |> j = 2i - j, the involutory quandle of the dihedral
    group; for n = 3 this is the class of transpositions."""
    return CrossedSet([[(2 * i - j) % n for j in range(n)] for i in range(n)],
                      name=f"dihedral{n}")


def zmod3_crossed_set():
    """Z/3 with i |> j = -i - j, which is dihedral3 since 2i = -i mod 3."""
    return CrossedSet(dihedral_crossed_set(3).table, name="zmod3")


def conjugation_crossed_set(group, classes):
    """The union of conjugacy classes under conjugation i |> j = i j i^-1.

    ``classes`` lists group elements; their classes' union must be closed
    (it always is) and the elements are indexed in sorted order.
    """
    elems = sorted({x for g in classes for x in conjugacy_class(group, g)})
    pos = {x: i for i, x in enumerate(elems)}
    table = [[pos[group.conj(x, y)] for y in elems] for x in elems]
    return CrossedSet(table, name=f"conj({group.name})")


class Cochain2:
    """A 2-cochain as an exponent table into Z/m: f(i, j) = zeta_m^e(i,j)."""

    __slots__ = ("modulus", "exponents")

    def __init__(self, modulus, exponents):
        if modulus < 1:
            raise ValueError("cochain modulus must be positive")
        self.modulus = modulus
        self.exponents = tuple(tuple(v % modulus for v in row)
                               for row in exponents)
        if any(len(row) != len(self.exponents) for row in self.exponents):
            raise ValueError("cochain exponent table must be square")

    @classmethod
    def constant(cls, xset, modulus, exponent):
        n = xset.size
        return cls(modulus, [[exponent] * n for _ in range(n)])

    def value(self, i, j):
        return root_of_unity(self.modulus, self.exponents[i][j])

    def values(self, xset):
        """The table of values f(i, j) on ``xset``, which must have the
        cochain's size."""
        self._require_size(xset)
        n = xset.size
        return [[self.value(i, j) for j in range(n)] for i in range(n)]

    def is_cocycle(self, xset):
        """Whether delta^2 kills the exponent table: exactly when the
        crossed-set braiding f(i, j) x_(i |> j) (x) x_i solves the braid
        equation (Andruskiewitsch-Grana 2003)."""
        self._require_size(xset)
        flat = [v for row in self.exponents for v in row]
        acc = [0] * xset.size ** 3
        for sign, cols in _coboundary_columns(xset.table, 2):
            acc = [a + sign * flat[c] for a, c in zip(acc, cols)]
        return not any(a % self.modulus for a in acc)

    def _require_size(self, xset):
        if len(self.exponents) != xset.size:
            raise ValueError(f"cochain on {len(self.exponents)} elements "
                             f"does not fit {xset!r}")

    def __repr__(self):
        return f"Cochain2(mod={self.modulus}, table={self.exponents})"


@lru_cache(maxsize=8)
def _coboundary_columns(table, n):
    """The terms of delta^n on exponent tables as (sign, columns) pairs:
    every row r (a word of X^(n+1), lexicographic) reads the cochain at
    column columns[r] (a word of X^n) with that sign.

    The multiplicative formula contributes, for each i < n, the cochain
    argument with x_i omitted (sign (-1)^i) and the argument with x_i
    acting on everything to its right (sign (-1)^(i+1)).  Words are base-
    |X| integers: with low = |X|^(n-i), row r splits as
    (r // (low |X|), x_i, r % low), and acted[x][w] is x acting on every
    letter of the word w of length n - i.  Cached per table, since a
    sweep calls ``is_cocycle`` on many cochains over one crossed set.
    """
    size = len(table)
    rows = range(size ** (n + 1))
    acted = [[0] for _ in range(size)]
    terms = []
    for i in reversed(range(n)):
        low = size ** (n - i)
        acted = [[table[x][a] * (low // size) + w for a in range(size)
                  for w in acted[x]] for x in range(size)]
        sign = 1 if i % 2 == 0 else -1
        terms.append((sign, tuple(r // (low * size) * low + r % low
                                  for r in rows)))
        terms.append((-sign, tuple(r // (low * size) * low
                                   + acted[r // low % size][r % low]
                                   for r in rows)))
    return tuple(terms)


def _coboundary_rows(xset, n):
    """The n-th differential on exponent tables as sparse rows, one per
    word of X^(n+1) in lexicographic order: {column: nonzero integer},
    columns the words of X^n.  Terms that cancel leave no entry.  For
    n = 0 every row is empty: constants have trivial differential."""
    rows = [{} for _ in range(xset.size ** (n + 1))]
    for sign, cols in _coboundary_columns(xset.table, n):
        for row, col in zip(rows, cols):
            v = row.get(col, 0) + sign
            if v:
                row[col] = v
            else:
                del row[col]
    return rows


def delta_matrix(xset, n):
    """The integer matrix of the n-th differential on exponent tables:
    rows indexed by X^(n+1), columns by X^n, both in lexicographic order;
    the dense view of the rows ``cohomology`` reduces."""
    cols = range(xset.size ** n)
    return [[row.get(j, 0) for j in cols] for row in _coboundary_rows(xset, n)]


def pi0(xset):
    """The number of connected components of the relation generated by
    j ~ i |> j: the orbits of the elements under the bijections i |> -."""
    n = xset.size
    return len(orbits(range(n), lambda j: (xset.act(i, j) for i in range(n))))


class CohomologyGroup:
    """Invariant factors of ker(delta^n) / im(delta^(n-1)) over Z/m."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = list(factors)

    def __eq__(self, other):
        if isinstance(other, CohomologyGroup):
            return self.factors == other.factors
        return NotImplemented

    def __repr__(self):
        return f"CohomologyGroup({self.factors})"


def cohomology(xset, n, modulus):
    """H^n(X; Z/m) as invariant factors, by the universal coefficient theorem.

    The integer cochain groups are free, so H^n(X; Z/m) is
    H^n(X; Z) (x) Z/m plus Tor(H^(n+1)(X; Z), Z/m).  With a_i the invariant
    factors of delta^n and b_i those of delta^(n-1), H^n(X; Z) is
    Z^(|X|^n - #a - #b) plus the Z/b_i, and the torsion of H^(n+1)(X; Z) is
    the sum of the Z/a_i; both functors send Z/k to Z/gcd(k, m).  Only the
    two differentials, as sparse rows, go through ``smith_normal_form``,
    one sparse elimination: it pivots on the entries +-1 of the
    coboundaries while any is left, then on least entries.  The orders of
    the resulting sum of cyclic groups become invariant factors through
    ``divisibility_chain``, and the trivial factors 1 it leaves are
    dropped.
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    if n < 0:
        raise ValueError(f"no cochains in negative degree {n}")
    cols = xset.size ** n
    a = smith_normal_form(_coboundary_rows(xset, n), cols)
    b = []
    if n > 0:
        b = smith_normal_form(_coboundary_rows(xset, n - 1), cols // xset.size)
    orders = [modulus] * (cols - len(a) - len(b))
    orders += [g for g in (gcd(k, modulus) for k in b + a) if g > 1]
    return CohomologyGroup(f for f in divisibility_chain(orders) if f > 1)


def h1(xset, modulus):
    """H^1 plus the number of connected components it is supported on."""
    return cohomology(xset, 1, modulus), pi0(xset)


def h2(xset, modulus):
    return cohomology(xset, 2, modulus)

