"""Sparse exact linear algebra over cyclotomic scalars, plus integer SNF.

Vectors are dicts mapping integer keys to nonzero scalars.  The scalars
are the values of one field, a ``scalars.Field``, and every operation on
them is one of that field's functions (``submul(x, a, b)``, x - a*b or
None when that is zero, is elimination's step).  So the same ``Echelon``
and ``vec_add_into`` run on the bare values of a graded computation's
``scalars.field(m)`` and, through ``scalars.CYCLOTOMIC`` (the default),
on ``Cyc``, the package's API type, never mixing the two.  ``Echelon``
holds each row once, as inserted: a vector whose least key is free is
stored as the very dict given, so a vector given to ``insert`` must not be
changed afterwards.  The inverse of a row's pivot coefficient is taken
when the row first eliminates and cached, so no inverse is taken for a row
that is never used, and only ``rref`` writes rows scaled to pivot one.
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

    Each row is stored once, as inserted.  ``insert`` eliminates only
    while the least key of the residue is a pivot, and stores the residue
    as it stands, with any nonzero pivot coefficient: when the least key
    of the vector is free at once, the row is the caller's vector itself,
    so a vector given to ``insert`` must not be changed afterwards.  The
    first time a row eliminates, the inverse of its pivot coefficient is
    cached (``_inverses``); no row is scaled or replaced then.  A row may
    still hold later pivot keys, and no row is back-substituted.  Rank,
    pivots and membership do not depend on that: the pivots are the least
    keys of the nonzero vectors of the row space, whatever basis of it is
    stored.  ``reduce`` eliminates every pivot key; since every stored row
    has its pivot as its least key, the residue it returns contains no
    pivot keys at all and is therefore the canonical projection along the
    row space, however far the rows are reduced.  ``rref``, which
    canonical rows and nullspace extraction require, is the only method
    that replaces rows: it scales and back-substitutes each one into a new
    dict.  No method changes a vector given to it.

    ``record`` holds, in the order of insertion, the ``steps`` of each row
    inserted with them: the multipliers of the earlier rows subtracted
    from it, so that ``combination`` can write a vector of the row space
    in the inserted vectors.

    Every scalar is a value of ``field``, ``scalars.CYCLOTOMIC`` (``Cyc``)
    unless given.
    """

    __slots__ = ("field", "rows", "record", "_inverses")

    def __init__(self, field=CYCLOTOMIC):
        self.field = field
        self.rows = {}
        self.record = {}
        # the inverse of the pivot coefficient of each row that has
        # eliminated, the ``one`` of the field for a unit pivot
        self._inverses = {}

    @property
    def rank(self):
        return len(self.rows)

    def pivots(self):
        return sorted(self.rows)

    def reduce(self, vec, steps=None, stop_at_free=False):
        """Residue of vec modulo the row space (forward elimination, least
        key first), a new dict; the multiplier f of each row subtracted, f
        times the row at pivot k as stored, goes to ``steps[k]`` when a
        dict is given.  f is the coefficient at k times the cached inverse
        of the row's pivot coefficient, taken when the row first
        eliminates.

        With ``stop_at_free`` the elimination ends at the first key that is
        no pivot, and the residue is returned as it stands then: it leads
        with a free key, or is empty exactly when vec lies in the row
        space, but it may hold later pivot keys.  Either way the first key
        of the residue is its least."""
        work = dict(vec)
        heap = list(work)
        heapq.heapify(heap)
        out = {}
        rows, inverses = self.rows, self._inverses
        field = self.field
        one, is_one = field.one, field.is_one
        mul, neg, submul = field.mul, field.neg, field.submul
        while heap:
            k = heapq.heappop(heap)
            c = work.pop(k, None)
            if c is None:
                continue
            row = rows.get(k)
            if row is None:
                out[k] = c
                if stop_at_free:
                    out.update(work)
                    return out
                continue
            inv = inverses.get(k)
            if inv is None:
                piv = row[k]
                inv = inverses[k] = one if is_one(piv) else field.inverse(piv)
            # a unit pivot needs no product
            f = c if inv is one else mul(c, inv)
            if steps is not None:
                steps[k] = f
            nf = neg(f)
            # inline rather than vec_add_into: this is the inner loop of
            # elimination, and new keys must also enter the heap; a new
            # key's product of nonzero scalars is nonzero
            for u, s in row.items():
                if u == k:
                    continue
                cur = work.get(u)
                if cur is None:
                    work[u] = mul(nf, s)
                    heapq.heappush(heap, u)
                else:
                    t = submul(cur, f, s)
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
            self.record[p] = steps
        return p

    def combination(self, steps):
        """The vector whose reduction took the multipliers ``steps`` to
        zero, written in the vectors inserted with ``steps``: {p: a} with
        vec = sum a * (the vector inserted at pivot p).  Row p is
        v_p - sum m_k row_k over rows k inserted before it, so the rows are
        resolved from the latest back."""
        field = self.field
        work = dict(steps)
        out = {}
        for p in reversed(self.record):
            if not work:
                break
            a = work.pop(p, None)
            if a is not None:
                out[p] = a
                vec_add_into(work, self.record[p], field.neg(a), field)
        return out

    def rref(self):
        """Scale and back-substitute all rows, as new dicts, the only
        method that replaces rows; afterwards each row has pivot
        coefficient one and mentions no other pivot."""
        rows, inverses = self.rows, self._inverses
        field = self.field
        for p in sorted(rows, reverse=True):
            row = rows[p]
            # a cached inverse is never zero, so never falsy
            inv = inverses.get(p) or field.inverse(row[p])
            red = self.reduce({u: field.mul(c, inv)
                               for u, c in row.items() if u != p})
            red[p] = inverses[p] = field.one
            rows[p] = red
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
    positive, found by unimodular row and column operations in one sparse
    elimination.

    Each step pivots on an entry a: while an entry +-1 remains, on one in
    a column with the fewest entries, in the shortest row with a unit
    there (a unit divides every entry, and the sparse choice keeps the
    fill-in of the other rows small); else on an entry of least absolute
    value, so the multiples added stay small.  Row operations take every
    other entry x of the pivot column to x mod a.  Once the column holds
    the pivot alone, column operations change the pivot row only, taking
    each other entry y of it to y mod a.  A nonzero remainder, smaller
    than |a|, leaves the pivot in place for a later step; else the pivot
    row and column are dropped with the factor |a|.  A unit pivot always
    drops.  The coboundary matrices of crossed sets have two or four
    entries +-1 per row, so most steps are unit steps; on the dihedral
    crossed sets of up to 12 elements and the S4 classes at most six
    columns are left for the others.  ``divisibility_chain`` turns the
    factors into d1 | d2 | ..., the units kept out of it.
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
    factors = []
    while srows:
        pivot = _unit_pivot(srows, where, counts)
        if pivot is None:
            _, p, c = min((abs(x), i, j) for i, row in srows.items()
                          for j, x in row.items())
        else:
            p, c = pivot
        prow = srows[p]
        a = prow[c]
        # the columns whose entries change, read before the column
        # operations below take some of them out of the pivot row
        touched = list(prow)
        # row i -= (row[c] // a) * prow, which leaves row[c] mod a
        for i in list(where[c]):
            if i == p:
                continue
            row = srows[i]
            f = row[c] // a
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
        # with the pivot alone in its column, column j -= (y // a) * column c
        # changes only the pivot row's y, to y mod a
        if len(where[c]) == 1:
            for j in touched:
                y = prow[j] % a
                if y:
                    prow[j] = y
                elif j != c:
                    del prow[j]
                    where[j].discard(p)
            if len(prow) == 1:
                del srows[p]
                where[c].clear()
                if a in (1, -1):
                    units += 1
                else:
                    factors.append(abs(a))
        for j in touched:
            if where[j]:
                heapq.heappush(counts, (len(where[j]), j))
    return [1] * units + divisibility_chain(factors)


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
