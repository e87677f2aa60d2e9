"""Sparse exact linear algebra over cyclotomic scalars, plus integer SNF.

Vectors are dicts mapping integer keys to nonzero scalars.  The code is
generic over the scalar type: it needs only ``+``, ``-``, unary ``-``,
``*``, truth, ``is_one`` and ``inverse``, so the same ``Echelon`` runs on
``Cyc`` (the package's API type) and on the field type of a graded
computation (``scalars.field``), never mixing the two.  It knows no unit
of its own: a stored pivot is the pivot times its inverse.  Throughout
the package a key encodes a word over the alphabet {0..d-1} in base d with
the leftmost tensor factor most significant, so integer order on keys is
lexicographic order on words.
"""

import heapq


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


def vec_add_into(dst, src, scale=None):
    """dst += scale * src in place, dropping exact zeros."""
    if scale is None:
        for k, c in src.items():
            cur = dst.get(k)
            if cur is None:
                dst[k] = c
            else:
                t = cur + c
                if t:
                    dst[k] = t
                else:
                    del dst[k]
    else:
        for k, c in src.items():
            t = c * scale
            if not t:
                continue
            cur = dst.get(k)
            if cur is None:
                dst[k] = t
            else:
                t = cur + t
                if t:
                    dst[k] = t
                else:
                    del dst[k]


class Echelon:
    """A growing reduced basis of a subspace, rows pivoted on their least key.

    Rows are stored with pivot coefficient exactly one.  ``reduce`` performs
    forward elimination only; since every stored row has its pivot as its
    least key, the residue it returns contains no pivot keys at all and is
    therefore the canonical projection along the row space, independent of
    whether rows have been back-substituted.  ``rref`` back-substitutes the
    stored rows in place, which nullspace extraction requires.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = {}

    @property
    def rank(self):
        return len(self.rows)

    def pivots(self):
        return sorted(self.rows)

    def reduce(self, vec):
        """Residue of vec modulo the row space (forward elimination)."""
        work = dict(vec)
        heap = list(work)
        heapq.heapify(heap)
        out = {}
        rows = self.rows
        while heap:
            k = heapq.heappop(heap)
            c = work.pop(k, None)
            if c is None:
                continue
            row = rows.get(k)
            if row is None:
                out[k] = c
                continue
            nc = -c
            # inline rather than vec_add_into: this is the inner loop of
            # elimination, and new keys must also enter the heap
            for u, s in row.items():
                if u == k:
                    continue
                cur = work.get(u)
                if cur is None:
                    t = nc * s
                    if t:
                        work[u] = t
                        heapq.heappush(heap, u)
                else:
                    t = cur + nc * s
                    if t:
                        work[u] = t
                    else:
                        del work[u]
        return out

    def insert(self, vec):
        """Reduce vec and adjoin the residue as a new row; returns the new
        pivot key, or None if vec was already in the row space."""
        red = self.reduce(vec)
        if not red:
            return None
        p = min(red)
        inv = red[p].inverse()
        # the pivot entry becomes the pivot times its inverse: the unit
        self.rows[p] = {u: c * inv for u, c in red.items()}
        return p

    def rref(self):
        """Back-substitute all rows; afterwards no row mentions another pivot."""
        for p in sorted(self.rows, reverse=True):
            row = self.rows[p]
            tail = {u: c for u, c in row.items() if u != p}
            red = self.reduce(tail)
            red[p] = row[p]
            self.rows[p] = red
        return self

    def sorted_rows(self):
        """Rows in increasing pivot order (call rref first for canonical form)."""
        return [self.rows[p] for p in sorted(self.rows)]

    def nullspace(self, universe, one):
        """Basis of the orthogonal complement read off the RREF rows.

        ``universe`` iterates all coordinate keys of the ambient space.  For
        each non-pivot key f the vector e_f - sum_p row_p[f] e_p annihilates
        every row; together these span the kernel of the matrix whose row
        space this echelon basis spans.  ``one`` is the unit of the scalar
        type.
        """
        self.rref()
        rows = self.rows
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
                vec[p] = -c
            out.append(vec)
        return out


def invert_square(columns, n):
    """Inverse of an n x n matrix given as dict ``columns[j] = {i: scalar}``.

    Returns the inverse in the same column-dict form.  Raises ValueError if
    the matrix is singular.
    """
    # rows of [M | I]; augmented keys live at n + row index, and the unit
    # is an entry times its inverse
    rows = [{} for _ in range(n)]
    one = None
    for j, col in columns.items():
        for i, c in col.items():
            rows[i][j] = c
            if one is None and c:
                one = c * c.inverse()
    if one is None:
        if n:
            raise ValueError("matrix is singular")
        return {}
    for i in range(n):
        rows[i][n + i] = one
    ech = Echelon()
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

def smith_normal_form(mat, rows, cols):
    """Invariant factors of an integer matrix.

    ``mat`` is a list of ``rows`` lists of length ``cols``; it is copied.
    Returns the nonzero invariant factors d1 | d2 | ..., all positive,
    found by unimodular row and column operations.
    """
    a = [list(r) for r in mat]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]

    def col_add(dst, src, k):
        for r in a:
            r[dst] += k * r[src]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]

    def row_add(dst, src, k):
        ra, rs = a[dst], a[src]
        for idx in range(cols):
            ra[idx] += k * rs[idx]

    def row_neg(i):
        a[i] = [-x for x in a[i]]

    limit = min(rows, cols)

    def diagonalize():
        t = 0
        while t < limit:
            # pivot on an entry of least absolute value in the remaining
            # block, so the multiples added to other rows and columns stay
            # small; a unit cannot be beaten
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
            row_swap(t, pi)
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
                if p < 0:
                    row_neg(t)
                t += 1
        return t

    t = diagonalize()
    # enforce d1 | d2 | ... by folding offending pairs and re-diagonalizing
    while True:
        bad = -1
        for i in range(t - 1):
            if a[i + 1][i + 1] % a[i][i]:
                bad = i
                break
        if bad < 0:
            break
        col_add(bad, bad + 1, 1)
        t = diagonalize()
    return [a[i][i] for i in range(t)]
