"""Sparse exact linear algebra over cyclotomic scalars, plus integer SNF.

Vectors are dicts mapping integer keys to nonzero scalars.  The scalars
are the values of one field, a ``scalars.Field``, and every operation on
them is one of that field's functions (``submul(x, a, b)``, x - a*b or
None when that is zero, is elimination's step).  So the same ``Echelon``
and ``vec_add_into`` run on the bare values of a graded computation's
``scalars.field(m)`` and, through ``scalars.CYCLOTOMIC`` (the default),
on ``Cyc``, the package's API type, never mixing the two.  ``Echelon``
stores its rows as inserted, scaled on first use: a row is scaled to pivot
coefficient one only when it first eliminates, so no inverse is taken for
a row that is never used, and a vector stored as it was given is held
once.  A vector given to ``insert`` must not be changed afterwards.
Throughout the package a key encodes a word over the alphabet {0..d-1} in
base d with the leftmost tensor factor most significant, so integer order
on keys is lexicographic order on words.
"""

import heapq
from math import gcd, lcm

from .scalars import CYCLOTOMIC, field as _field


class InvalidInput(ValueError):
    """Input that parses but is mathematically invalid: a map that fails
    the braid equation, a braiding that is not invertible, group-like
    actions that do not match the braiding, a table that fails a
    crossed-set axiom, or a diagonal entry that is neither 1 nor a root of
    unity where a nilpotency order is asked for."""


def encode_word(word, d):
    """Base-d integer key of a word, leftmost letter most significant."""
    out = 0
    for x in word:
        out = out * d + x
    return out


def decode_word(key, d, n):
    """Inverse of encode_word for words of length n."""
    out = []
    for _ in range(n):
        out.append(key % d)
        key //= d
    return tuple(reversed(out))


def vec_add_into(dst, src, scale=None, field=CYCLOTOMIC):
    """dst += scale * src in place, dropping exact zeros, with the values
    of ``field``; src must hold no zeros.  A scale of None or one adds src
    as it is, and a zero ``Cyc`` scale leaves dst as it is (a field has no
    zero value)."""
    if scale is None or field.is_one(scale):
        add = field.add
        for k, c in src.items():
            cur = dst.get(k)
            if cur is None:
                dst[k] = c
            else:
                t = add(cur, c)
                if t is None:
                    del dst[k]
                else:
                    dst[k] = t
    elif scale:
        # src holds no zeros, so a new key's product is nonzero
        mul, submul = field.mul, field.submul
        neg = field.neg(scale)
        for k, c in src.items():
            cur = dst.get(k)
            if cur is None:
                dst[k] = mul(c, scale)
            else:
                t = submul(cur, neg, c)
                if t is None:
                    del dst[k]
                else:
                    dst[k] = t


class Echelon:
    """A growing echelon basis of a subspace, rows pivoted on their least key.

    Rows are stored as inserted, scaled on first use.  ``insert``
    eliminates only while the least key of the residue is a pivot, and
    stores the residue as it stands, with any nonzero pivot coefficient:
    when the least key of the vector is free at once, the row is the
    caller's vector itself, so a vector given to ``insert`` must not be
    changed afterwards.  The first time a row is used, to eliminate in
    ``reduce`` or by ``rref``, it is replaced by a new dict scaled to pivot
    coefficient one, or kept as it is when its pivot is one already; no
    stored dict is ever scaled in place.  A row may still hold later pivot
    keys, and no row is back-substituted.  Rank, pivots and membership do
    not depend on that: the pivots are the least keys of the nonzero
    vectors of the row space, whatever basis of it is stored.
    ``reduce`` eliminates every pivot key; since every stored row has its
    pivot as its least key, the residue it returns contains no pivot keys
    at all and is therefore the canonical projection along the row space,
    however far the rows are reduced.  ``rref`` scales and
    back-substitutes every row, which canonical rows and nullspace
    extraction require; no method changes a vector given to it.

    ``record`` holds, in the order of insertion, each row inserted with
    ``steps``: the inverse that scales its pivot to one (None until the row
    is first scaled) and the multipliers of the earlier rows subtracted
    from it, so that ``combination`` can write a vector of the row space
    in the inserted vectors.

    Every scalar is a value of ``field``, ``scalars.CYCLOTOMIC`` (``Cyc``)
    unless given.
    """

    __slots__ = ("field", "rows", "record", "_units")

    def __init__(self, field=CYCLOTOMIC):
        self.field = field
        self.rows = {}
        self.record = {}
        # the rows already scaled to a unit pivot, the same dicts as in
        # ``rows``
        self._units = {}

    @property
    def rank(self):
        return len(self.rows)

    def pivots(self):
        return sorted(self.rows)

    def _unit(self, p):
        """Row p scaled to pivot coefficient one, which replaces the row as
        stored: a new dict, or the row itself when its pivot is one
        already.  A recorded row's inverse is filled in."""
        row = self.rows[p]
        field = self.field
        inv = row[p]
        if not field.is_one(inv):
            inv = field.inverse(inv)
            mul = field.mul
            row = {u: mul(c, inv) for u, c in row.items()}
        self.rows[p] = self._units[p] = row
        got = self.record.get(p)
        if got is not None:
            self.record[p] = (inv, got[1])
        return row

    def reduce(self, vec, steps=None, stop_at_free=False):
        """Residue of vec modulo the row space (forward elimination, least
        key first), a new dict; the multiplier c of each row subtracted, c
        times the row at pivot k scaled to pivot one, goes to ``steps[k]``
        when a dict is given.  A row still as inserted is scaled first.

        With ``stop_at_free`` the elimination ends at the first key that is
        no pivot, and the residue is returned as it stands then: it leads
        with a free key, or is empty exactly when vec lies in the row
        space, but it may hold later pivot keys.  Either way the first key
        of the residue is its least."""
        work = dict(vec)
        heap = list(work)
        heapq.heapify(heap)
        out = {}
        rows, units = self.rows, self._units
        field = self.field
        mul, neg, submul = field.mul, field.neg, field.submul
        while heap:
            k = heapq.heappop(heap)
            c = work.pop(k, None)
            if c is None:
                continue
            row = units.get(k)
            if row is None:
                if k not in rows:
                    out[k] = c
                    if stop_at_free:
                        out.update(work)
                        return out
                    continue
                row = self._unit(k)
            if steps is not None:
                steps[k] = c
            nc = neg(c)
            # inline rather than vec_add_into: this is the inner loop of
            # elimination, and new keys must also enter the heap; a new
            # key's product of nonzero scalars is nonzero
            for u, s in row.items():
                if u == k:
                    continue
                cur = work.get(u)
                if cur is None:
                    work[u] = mul(nc, s)
                    heapq.heappush(heap, u)
                else:
                    t = submul(cur, c, s)
                    if t is None:
                        del work[u]
                    else:
                        work[u] = t
        return out

    def insert(self, vec, steps=None):
        """Reduce vec until its least key is free and adjoin the residue as
        a new row, pivoted on that key, not reduced further and not scaled;
        returns the new pivot key, or None if vec was already in the row
        space.  When the least key of vec is free, the row is vec itself.
        With a dict ``steps``, the multipliers of the reduction are written
        to it (as in ``reduce``) and a new row is entered in ``record``."""
        if not vec:
            return None
        rows = self.rows
        p = min(vec)
        if p in rows:
            vec = self.reduce(vec, steps, stop_at_free=True)
            if not vec:
                return None
            p = next(iter(vec))
        rows[p] = vec
        if steps is not None:
            self.record[p] = (None, steps)
        return p

    def combination(self, steps):
        """The vector whose reduction took the multipliers ``steps`` to
        zero, written in the vectors inserted with ``steps``: {p: a} with
        vec = sum a * (the vector inserted at pivot p).  Row p is
        inv * (v_p - sum m_k row_k) over rows k inserted before it, so the
        rows are resolved from the latest back.  Every row the multipliers
        name has eliminated, so it was scaled then and its inverse is
        recorded."""
        field = self.field
        work = dict(steps)
        out = {}
        for p in reversed(self.record):
            if not work:
                break
            c = work.pop(p, None)
            if c is not None:
                inv, mults = self.record[p]
                out[p] = a = field.mul(c, inv)
                vec_add_into(work, mults, field.neg(a), field)
        return out

    def rref(self):
        """Scale and back-substitute all rows, as new dicts; afterwards each
        row has pivot coefficient one and mentions no other pivot."""
        rows, units = self.rows, self._units
        for p in sorted(rows, reverse=True):
            row = units.get(p)
            if row is None:
                row = self._unit(p)
            tail = {u: c for u, c in row.items() if u != p}
            red = self.reduce(tail)
            red[p] = row[p]
            rows[p] = units[p] = red
        return self

    def sorted_rows(self):
        """Rows in increasing pivot order (call rref first for canonical form
        and unit pivots)."""
        return [self.rows[p] for p in sorted(self.rows)]

    def nullspace(self, universe):
        """Basis of the orthogonal complement read off the RREF rows.

        ``universe`` iterates all coordinate keys of the ambient space.  For
        each non-pivot key f the vector e_f - sum_p row_p[f] e_p annihilates
        every row; together these span the kernel of the matrix whose row
        space this echelon basis spans.

        No function of the package calls it: symmetrizer kernels come from
        the rewriting rules (``algebra.kernel_basis``).  It is the tests'
        oracle for them, as the null space of the transposed pair's
        component, and the benchmark's span timer wraps it by this name.
        """
        self.rref()
        rows = self.rows
        one, neg = self.field.one, self.field.neg
        # column index of the pivot rows
        cols = {}
        for p, row in rows.items():
            for u, c in row.items():
                if u != p:
                    cols.setdefault(u, []).append((p, c))
        out = []
        for f in universe:
            if f in rows:
                continue
            vec = {f: one}
            for p, c in cols.get(f, ()):
                vec[p] = neg(c)
            out.append(vec)
        return out


def invert_square(columns, n, field=None):
    """Inverse of an n x n matrix given as dict ``columns[j] = {i: scalar}``.

    Returns the inverse in the same column-dict form.  Raises ValueError if
    the matrix is singular.  With a ``field`` the entries are its values,
    and so are the inverse's.  Without one they are ``Cyc``, and the
    elimination runs in ``scalars.field(m)``, m the lcm of the entries'
    conductors.
    """
    if field is None:
        F = _field(lcm(1, *(c.conductor for col in columns.values()
                            for c in col.values())))
        embed, to_cyc = F.from_cyc, F.to_cyc
        inv = invert_square({j: {i: embed(c) for i, c in col.items() if c}
                             for j, col in columns.items()}, n, F)
        return {j: {i: to_cyc(c) for i, c in col.items()}
                for j, col in inv.items()}
    # rows of [M | I]; augmented keys live at n + row index
    rows = [{n + i: field.one} for i in range(n)]
    for j, col in columns.items():
        for i, c in col.items():
            rows[i][j] = c
    ech = Echelon(field)
    for r in rows:
        ech.insert(r)
    if ech.pivots() != list(range(n)):
        raise ValueError("matrix is singular")
    ech.rref()
    inv_cols = {}
    for p, row in ech.rows.items():
        # row p of the RREF reads e_p = sum_j inv[p][j] (aug j)
        for u, c in row.items():
            if u >= n:
                inv_cols.setdefault(u - n, {})[p] = c
    return inv_cols


# ---------------------------------------------------------------------------
# integer Smith normal form

def smith_normal_form(rows, cols):
    """Invariant factors of an integer matrix with ``cols`` columns, given
    as sparse rows: a sequence of dicts {column: nonzero integer}, which is
    not modified.  Returns the nonzero invariant factors d1 | d2 | ..., all
    positive, found by unimodular row and column operations in two phases.

    Unit elimination works on sparse rows.  While an entry +-1 remains, it
    pivots on one: in a column with the fewest entries, the shortest row
    with a unit there.  Integer row operations clear the column, and the
    pivot row and column are dropped with factor 1.  That is exact: once
    the column is cleared, the column operations that would clear the
    pivot row touch that row alone.  Units go first because a unit divides
    every entry: each step drops a row and a column with no division
    remainder, and the sparse choice keeps the fill-in of the other rows
    small.  The coboundary matrices of crossed sets have two or four
    entries +-1 per row; on the dihedral crossed sets of up to 12 elements
    and the S4 classes this phase leaves at most six columns.

    The remainder holds no unit.  It is compacted to a dense block and
    diagonalized by least-entry pivoting, and ``divisibility_chain`` turns
    its diagonal into d1 | d2 | ....
    """
    # sparse rows by index, and for each column the rows with an entry in it
    srows = {i: dict(r) for i, r in enumerate(rows) if r}
    where = [set() for _ in range(cols)]
    for i, row in srows.items():
        for j in row:
            where[j].add(i)
    # (entries, column) of the live columns, least first; an entry whose
    # count is out of date is skipped, since a fresh one follows it
    counts = [(len(w), j) for j, w in enumerate(where) if w]
    heapq.heapify(counts)
    units = 0
    while True:
        pivot = _unit_pivot(srows, where, counts)
        if pivot is None:
            break
        p, c = pivot
        prow = srows.pop(p)
        for j in prow:
            where[j].discard(p)
        # the pivot is +-1, its own inverse: row i -= row[c] * u * prow
        u = prow[c]
        for i in list(where[c]):
            row = srows[i]
            f = row[c] * u
            for j, x in prow.items():
                y = row.get(j, 0) - f * x
                if y:
                    if j not in row:
                        where[j].add(i)
                    row[j] = y
                else:
                    del row[j]
                    where[j].discard(i)
            if not row:
                del srows[i]
        # only the pivot row's columns changed their entries
        for j in prow:
            if where[j]:
                heapq.heappush(counts, (len(where[j]), j))
        units += 1
    keep = [j for j in range(cols) if where[j]]
    rest = [[row.get(j, 0) for j in keep] for row in srows.values()]
    return [1] * units + divisibility_chain(
        _diagonalize(rest, len(rest), len(keep)))


def _unit_pivot(srows, where, counts):
    """(row, column) of a unit entry in a column with the fewest entries,
    in the shortest row, ties to the least index; None if no unit is left.

    ``counts`` is the heap of (entries, column) that ``smith_normal_form``
    keeps; the columns popped without a unit go back on it."""
    passed = []
    last = None
    found = None
    while counts:
        entry = heapq.heappop(counts)
        n, c = entry
        # a duplicate pops right after its twin
        if entry == last or n != len(where[c]):
            continue
        last = entry
        best = None
        for i in where[c]:
            row = srows[i]
            if row[c] in (1, -1) and (best is None or (len(row), i) < best):
                best = (len(row), i)
        if best is not None:
            found = best[1], c
            break
        passed.append(entry)
    for entry in passed:
        heapq.heappush(counts, entry)
    return found


def _diagonalize(a, rows, cols):
    """Absolute values of the diagonal that unimodular row and column
    operations leave on the dense matrix ``a`` (changed in place), not yet
    a divisibility chain."""

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]

    def col_add(dst, src, k):
        for r in a:
            r[dst] += k * r[src]

    def row_add(dst, src, k):
        ra, rs = a[dst], a[src]
        for idx in range(cols):
            ra[idx] += k * rs[idx]

    t = 0
    while t < min(rows, cols):
        # pivot on an entry of least absolute value in the remaining block,
        # so the multiples added to other rows and columns stay small; a
        # unit cannot be beaten
        pi = pj = -1
        best = 0
        for i in range(t, rows):
            for j in range(t, cols):
                x = abs(a[i][j])
                if x and (not best or x < best):
                    pi, pj, best = i, j, x
                    if x == 1:
                        break
            if best == 1:
                break
        if pi < 0:
            break
        a[t], a[pi] = a[pi], a[t]
        col_swap(t, pj)
        p = a[t][t]
        for i in range(t + 1, rows):
            if a[i][t]:
                row_add(i, t, -(a[i][t] // p))
        for j in range(t + 1, cols):
            if a[t][j]:
                col_add(j, t, -(a[t][j] // p))
        # a nonzero remainder is a smaller pivot for the next round
        if (all(a[i][t] == 0 for i in range(t + 1, rows))
                and all(a[t][j] == 0 for j in range(t + 1, cols))):
            t += 1
    return [abs(a[i][i]) for i in range(t)]


def divisibility_chain(values):
    """The invariant factors d1 | d2 | ... of the sum of the cyclic groups
    Z/v, one per positive integer v, as a list of the same length (so it
    may start with ones): Z/a + Z/b is Z/gcd(a, b) + Z/lcm(a, b), applied
    to every pair in turn.  After the pairs (i, j > i), d_i divides every
    later entry, and later steps keep that, since they only take gcds and
    lcms of multiples of d_i."""
    out = list(values)
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            a, b = out[i], out[j]
            g = gcd(a, b)
            out[i], out[j] = g, a // g * b
    return out
