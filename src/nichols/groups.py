"""Finite groups given by multiplication tables, and the group data behind
Yetter-Drinfeld braidings: centralizers, conjugacy classes, coset
representatives, and the conjugation action on a class indexed by those
representatives.  ``pairs.yd_module`` builds the braided pairs from them.

``orbits`` is the package's one orbit routine: the blocks of a braiding
(``pairs.find_decomposition``), the components of a crossed set
(``quandles.pi0``), the components of a decomposable pair
(``algebra._components``) and the conjugation orbits of the blocks of a
degree (``algebra.GradedComputation._block_orbits``) are all orbits under
a set of moves.  ``conjugacy_classes`` and
``coset_representatives`` keep their own loops, since each of their steps
already yields a whole class or coset.

Groups here are desk scale (at most a few hundred elements); everything is
validated on construction and computed by direct enumeration.
"""

from .scalars import one


class FiniteGroup:
    """A finite group as an n x n multiplication table of element indices."""

    __slots__ = ("order", "table", "identity", "name", "_inverses")

    def __init__(self, table, name="group"):
        table = tuple(tuple(row) for row in table)
        n = len(table)
        if any(len(row) != n for row in table):
            raise ValueError("multiplication table must be square")
        if any(not 0 <= v < n for row in table for v in row):
            raise ValueError(f"table entries must lie in 0..{n - 1}")
        self.order = n
        self.table = table
        self.name = name
        ident = None
        for e in range(n):
            if all(table[e][x] == x and table[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise ValueError("no identity element")
        self.identity = ident
        inverses = [None] * n
        for x in range(n):
            for y in range(n):
                if table[x][y] == ident:
                    inverses[x] = y
                    break
            if inverses[x] is None:
                raise ValueError(f"element {x} has no inverse")
        self._inverses = tuple(inverses)
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if table[table[x][y]][z] != table[x][table[y][z]]:
                        raise ValueError("multiplication is not associative")

    def mul(self, x, y):
        return self.table[x][y]

    def inv(self, x):
        return self._inverses[x]

    def conj(self, x, y):
        """x y x^-1."""
        return self.table[self.table[x][y]][self._inverses[x]]

    def elements(self):
        return range(self.order)

    def __len__(self):
        return self.order

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


def cyclic(n):
    """Z/n with elements 0..n-1 under addition."""
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, name=f"C{n}")


def dihedral(n):
    """The dihedral group of order 2n: element 2a+b is r^a s^b."""
    def mul(x, y):
        a1, b1 = divmod(x, 2)
        a2, b2 = divmod(y, 2)
        # r^a1 s^b1 r^a2 s^b2 = r^(a1 + (-1)^b1 a2) s^(b1+b2)
        a = (a1 + (a2 if b1 == 0 else -a2)) % n
        return 2 * a + (b1 ^ b2)
    table = [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]
    return FiniteGroup(table, name=f"D{n}")


def symmetric(n):
    """The symmetric group on n letters, n <= 4, elements sorted."""
    if n > 4:
        raise ValueError("symmetric(n) supports n <= 4")
    from itertools import permutations
    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    table = [[index[tuple(p[q[k]] for k in range(n))] for q in elems]
             for p in elems]
    return FiniteGroup(table, name=f"S{n}")


def orbits(points, moves):
    """The orbits of ``points`` under ``moves``, a function from a point to
    the points one move reaches from it; the moves must be invertible on
    the orbits (permutations of a finite set, or a symmetric relation), so
    that reaching is an equivalence.

    The orbits come in the order of their first point in ``points``, each
    listed breadth-first from that point, and may hold points outside
    ``points``; a point of ``points`` already listed starts no orbit."""
    seen = set()
    out = []
    for start in points:
        if start in seen:
            continue
        seen.add(start)
        orbit = [start]
        for x in orbit:
            for y in moves(x):
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
        out.append(orbit)
    return out


def centralizer(group, g):
    """Elements commuting with g, as a sorted list of indices."""
    return [x for x in group.elements()
            if group.mul(x, g) == group.mul(g, x)]


def conjugacy_classes(group):
    """Partition of the group into conjugacy classes (sorted lists)."""
    seen = set()
    classes = []
    for g in group.elements():
        if g in seen:
            continue
        cls = conjugacy_class(group, g)
        seen.update(cls)
        classes.append(cls)
    return classes


def conjugacy_class(group, g):
    return sorted({group.conj(x, g) for x in group.elements()})


def coset_representatives(group, subgroup):
    """Deterministic representatives of left cosets: the least element of
    each coset under the group's element order."""
    sub = sorted(subgroup)
    seen = set()
    reps = []
    for x in group.elements():
        if x in seen:
            continue
        coset = {group.mul(x, h) for h in sub}
        reps.append(min(coset))
        seen.update(coset)
    return reps


def _indexed_class(group, g):
    """The class of g indexed through the deterministic coset
    representatives h_j of its centralizer.

    Returns ``(cent, reps, ts, pos)``: the centralizer, the h_j, the class
    elements t_j = h_j g h_j^-1, and the position pos[t_j] = j.
    """
    cent = centralizer(group, g)
    reps = coset_representatives(group, cent)
    ts = [group.conj(h, g) for h in reps]
    pos = {t: i for i, t in enumerate(ts)}
    if len(pos) != len(ts):
        raise RuntimeError("coset representatives do not index the class")
    return cent, reps, ts, pos


def cyclic_character(group, gen, value):
    """Character of the cyclic subgroup generated by ``gen`` sending gen to
    ``value``; handy for ``pairs.yd_module`` summands over cyclic
    centralizers."""
    out = {group.identity: one()}
    x, v = gen, value
    while x != group.identity:
        out[x] = v
        x = group.mul(x, gen)
        v = v * value
    return out
