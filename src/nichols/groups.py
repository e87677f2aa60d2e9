"""Finite groups given by multiplication tables, and the data feeding
induced Yetter-Drinfeld braidings: centralizers, conjugacy classes, coset
representatives, the conjugation action on an indexed class, and induced
module data.

Groups here are desk scale (at most a few hundred elements); everything is
validated on construction and computed by direct enumeration.
"""

from .scalars import as_scalar, one, zero


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


def f_g_map(group, g):
    """The conjugation action of the group on the indexed class of g.

    Returns ``(ts, perms)`` where ts = [t_0..t_(s-1)] enumerates the class
    (t_j = h_j g h_j^-1 for the deterministic coset representatives h_j)
    and perms[k][i] = j whenever k t_i k^-1 = t_j.  The map k -> perms[k]
    is verified to be a homomorphism.
    """
    cent = centralizer(group, g)
    reps = coset_representatives(group, cent)
    ts = [group.conj(h, g) for h in reps]
    pos = {t: i for i, t in enumerate(ts)}
    if len(pos) != len(ts):
        raise RuntimeError("coset representatives do not index the class")
    perms = []
    for k in group.elements():
        perms.append(tuple(pos[group.conj(k, t)] for t in ts))
    for x in group.elements():
        for y in group.elements():
            xy = group.mul(x, y)
            if tuple(perms[x][perms[y][i]] for i in range(len(ts))) != perms[xy]:
                raise RuntimeError("conjugation action is not a homomorphism")
    return ts, perms


def orbit_factorization(group, target, fmap, g):
    """Factor the class size s = [G : G_g] as s = n*m through a homomorphism.

    ``fmap`` lists the image in ``target`` of each element of ``group``.
    n is the index of the pullback of the centralizer of f(g); m the index
    of the centralizer of g inside that pullback.
    """
    n_g = len(group)
    for x in range(n_g):
        for y in range(n_g):
            if fmap[group.mul(x, y)] != target.mul(fmap[x], fmap[y]):
                raise ValueError("fmap is not a homomorphism")
    s = len(conjugacy_class(group, g))
    fg = fmap[g]
    target_cent = set(centralizer(target, fg))
    pullback = [x for x in range(n_g) if fmap[x] in target_cent]
    n = n_g // len(pullback)
    m = len(pullback) // len(centralizer(group, g))
    if n * m != s:
        raise RuntimeError("orbit factorization failed")
    return n, m


class InducedDatum:
    """Everything needed to braid the module induced from a centralizer
    representation: indexed class, coset representatives, and the
    representation matrices."""

    __slots__ = ("group", "g", "centralizer", "coset_reps", "ts", "rho", "degree")

    def __init__(self, group, g, cent, reps, ts, rho, degree):
        self.group = group
        self.g = g
        self.centralizer = cent
        self.coset_reps = reps
        self.ts = ts
        self.rho = rho
        self.degree = degree

    @property
    def class_size(self):
        return len(self.coset_reps)


def _as_matrix(value):
    """A character value or a matrix, as tuple rows of Cyc."""
    if isinstance(value, (list, tuple)):
        return tuple(tuple(as_scalar(v) for v in row) for row in value)
    return ((as_scalar(value),),)


def induced_datum(group, g, chi):
    """Validate a representation of the centralizer of g and package the
    induction data.

    ``chi`` maps each centralizer element to a scalar (a character) or to
    a square matrix of scalars (an explicit matrix representation); ints,
    Fractions and Cyc are accepted.  It must be a homomorphism on the
    centralizer.
    """
    cent = centralizer(group, g)
    rho = {h: _as_matrix(chi[h]) for h in cent}
    degree = len(rho[group.identity])
    ident = rho[group.identity]
    for i in range(degree):
        for j in range(degree):
            want = one() if i == j else zero()
            if ident[i][j] != want:
                raise ValueError("representation does not send identity to identity")
    for a in cent:
        for b in cent:
            ab = group.mul(a, b)
            prod = _mat_mul(rho[a], rho[b])
            if prod != rho[ab]:
                raise ValueError("chi is not multiplicative on the centralizer")
    reps = coset_representatives(group, cent)
    ts = [group.conj(h, g) for h in reps]
    if len(set(ts)) != len(ts) or sorted(ts) != conjugacy_class(group, g):
        raise RuntimeError("representatives do not enumerate the class")
    return InducedDatum(group, g, cent, reps, ts, rho, degree)


def _mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(n)), start=zero())
                       for j in range(n)) for i in range(n))


def cyclic_character(group, gen, value):
    """Character of the cyclic subgroup generated by ``gen`` sending gen to
    ``value``; handy for building induced data over cyclic centralizers."""
    out = {group.identity: one()}
    x, v = gen, value
    while x != group.identity:
        out[x] = v
        x = group.mul(x, gen)
        v = v * value
    return out
