"""Symmetric and braid group combinatorics acting on tensor powers.

Permutations are tuples of images on {0..n-1}, composed so that
``perm_mul(p, q)`` applies q first.  Braid words are tuples of signed
generator indices: +i stands for the i-th positive crossing (1-based) and
-i for its inverse.  A formal sum of braid words with cyclotomic
coefficients is a ``GroupAlgElt``; such sums have no normal form and are
compared through their actions on braided vector spaces.

Tensor vectors are sparse dicts keyed by base-d integers (see linalg);
``sigma_pass`` is the hot path that applies one crossing to such a vector.
A crossing pass has one of two shapes.  A crossed-set braiding
c(x_i (x) x_j) = f(i, j) x_(i |> j) (x) x_i, and its inverse, sends each
word to exactly one other word times a scalar, so its pass relabels each
key and scales its coefficient (a ``Relabelling``, found once when
``FieldPair`` embeds the braiding); any other braiding goes through the
merging loop, which sums the terms landing on one word and drops zeros.
The actions read only the n lowest digits of a key, so the digits above
them can tag each term with where it came from (``verify_identity``).
"""

from functools import cache, cached_property
from itertools import combinations as _combinations
from math import lcm

from .linalg import invert_square, vec_add_into
from .scalars import CYCLOTOMIC, ONE, field as _field


# ---------------------------------------------------------------------------
# permutations

def perm_mul(p, q):
    """Composition applying q first: (p*q)(i) = p(q(i))."""
    return tuple(p[x] for x in q)


def perm_inv(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def perm_length(p):
    """Coxeter length: the number of inversions."""
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def matsumoto_section(p):
    """The lexicographically least reduced word for p, as 1-based letters.

    Greedy: repeatedly strip the smallest left descent.  Any reduced word
    lifts to the same braid group element, so the choice only pins down a
    reproducible representative.
    """
    p = tuple(p)
    n = len(p)
    inv = list(perm_inv(p))
    word = []
    remaining = perm_length(p)
    while remaining:
        for i in range(1, n):
            if inv[i - 1] > inv[i]:
                word.append(i)
                inv[i - 1], inv[i] = inv[i], inv[i - 1]
                remaining -= 1
                break
    return tuple(word)


def shuffles(parts):
    """All (i1,...,ir)-shuffles: x whose inverse ascends on each block.

    Built directly by distributing the positions among the blocks, so the
    cost is the multinomial coefficient rather than a scan of the whole
    symmetric group.
    """
    if not parts or any(p <= 0 for p in parts):
        raise ValueError("parts must be a nonempty list of positive integers")
    n = sum(parts)

    def place(positions, idx):
        if idx == len(parts):
            yield ()
            return
        for chosen in _combinations(positions, parts[idx]):
            taken = set(chosen)
            rest = tuple(p for p in positions if p not in taken)
            for tail in place(rest, idx + 1):
                yield chosen + tail

    out = []
    for inv in place(tuple(range(n)), 0):
        # inv lists x^-1 blockwise; combinations come out ascending, which
        # is exactly the defining condition
        out.append(perm_inv(inv))
    return out


# ---------------------------------------------------------------------------
# formal sums in the braid group algebra

class GroupAlgElt:
    """Finite formal sum of braid words with Cyc coefficients on n strands."""

    __slots__ = ("strands", "terms")

    def __init__(self, strands, terms=None):
        self.strands = strands
        self.terms = {}
        if terms:
            for w, c in terms.items():
                if c:
                    self.terms[w] = c

    @classmethod
    def from_word(cls, strands, letters):
        for i in letters:
            if not 1 <= abs(i) <= strands - 1:
                raise ValueError(f"letter {i} out of range on {strands} strands")
        return cls(strands, {tuple(letters): ONE})

    @classmethod
    def unit(cls, strands):
        return cls(strands, {(): ONE})

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        vec_add_into(terms, other.terms)
        return GroupAlgElt(self.strands, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return GroupAlgElt(self.strands, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, GroupAlgElt):
            self._check(other)
            terms = {}
            for w1, c1 in self.terms.items():
                vec_add_into(terms, {w1 + w2: c2 for w2, c2
                                     in other.terms.items()}, c1)
            return GroupAlgElt(self.strands, terms)
        return GroupAlgElt(self.strands,
                           {w: c * other for w, c in self.terms.items()})

    __rmul__ = __mul__

    def _check(self, other):
        if self.strands != other.strands:
            raise ValueError("strand count mismatch")

    @property
    def conductor(self):
        """The lcm of the coefficients' conductors."""
        return lcm(1, *(c.conductor for c in self.terms.values()))

    def embed(self, field):
        """The same sum with its coefficients values of ``field`` (a
        ``scalars.Field``), for ``apply`` with a ``FieldPair`` of it."""
        return GroupAlgElt(self.strands, {w: field.from_cyc(c)
                                          for w, c in self.terms.items()})

    def apply(self, bp, vec, n):
        return apply_elt(bp, self, vec, n)

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        names = []
        for w, c in sorted(self.terms.items()):
            word = "e" if not w else "".join(
                f"s{i}" if i > 0 else f"S{-i}" for i in w)
            names.append(f"{c!r}*{word}")
        return f"GroupAlgElt[{self.strands}](" + " + ".join(names) + ")"


def u_elt(strands, j, i):
    """U^j_i = sigma_j sigma_(j-1) ... sigma_i."""
    if not 1 <= i <= j <= strands - 1:
        raise ValueError("need 1 <= i <= j <= strands-1")
    return GroupAlgElt.from_word(strands, range(j, i - 1, -1))


def d_elt(strands, j, i):
    """D^j_i = sigma_i sigma_(i+1) ... sigma_j."""
    if not 1 <= i <= j <= strands - 1:
        raise ValueError("need 1 <= i <= j <= strands-1")
    return GroupAlgElt.from_word(strands, range(i, j + 1))


def r_binomials(strands, j, i):
    """The factors of R^j_i = (e - D^j_j sigma_j)(e - D^j_(j-1) sigma_j) ...
    (e - D^j_i sigma_j), leftmost first: the j - i + 1 binomials
    e - D^j_k sigma_j for k = j, j-1, ..., i."""
    if not 1 <= i <= j <= strands - 1:
        raise ValueError("need 1 <= i <= j <= strands-1")
    e = GroupAlgElt.unit(strands)
    sigma_j = GroupAlgElt.from_word(strands, (j,))
    return [e - d_elt(strands, j, k) * sigma_j for k in range(j, i - 1, -1)]


@cache
def t_shuffle(i, j):
    """Sum of lifts s(x) over x with x^-1 an (i,j)-shuffle, on i+j strands."""
    out = GroupAlgElt(i + j)
    for x in shuffles((i, j)):
        out.terms[matsumoto_section(perm_inv(x))] = ONE
    return out


# ---------------------------------------------------------------------------
# actions on tensor powers

def sigma_pass(cmap, d, n, terms, k):
    """Apply the crossing at slots (k-1, k), 1-based k, to a sparse vector.

    ``terms`` maps base-d encoded words of length n to coefficients; the
    braiding acts through ``cmap[pair] = ((out_pair, coeff), ...)`` with
    pairs encoded as (left letter)*d + (right letter).

    A pass has one of two shapes.  When ``cmap`` is a ``Relabelling`` (a
    crossed-set braiding or its inverse, embedded by ``FieldPair``), it
    relabels and scales: each key goes to its one image word and its
    coefficient is scaled, one dict store per term.  That is exact with
    no merging and no zero test, since distinct words have distinct images
    and a product of nonzero scalars is nonzero.  Any other ``cmap`` goes
    through the merging loop: each term spreads over its column, terms
    landing on one word are summed, and zero sums are dropped.  The
    scalars are values of ``cmap.field`` for an embedded cmap, else
    ``Cyc``.
    """
    shift = d ** (n - 1 - k)
    dd = d * d
    out = {}
    if cmap.__class__ is Relabelling:
        jumps = [(t - p) * shift for p, t in enumerate(cmap.targets)]
        scales = cmap.scales
        for w, c in terms.items():
            pair = (w // shift) % dd
            out[w + jumps[pair]] = scales[pair](c)
        return out
    field = _field_of(cmap)
    mul, add = field.mul, field.add
    for w, c in terms.items():
        pair = (w // shift) % dd
        base = w - pair * shift
        # inline rather than vec_add_into: this is the inner loop of
        # apply_elt (verify) and of pair validation, where one call per
        # term costs time
        for kl, s in cmap[pair]:
            t = mul(c, s)
            if not t:
                # a zero Cyc in ``terms``; a field has no zero value
                continue
            w2 = base + kl * shift
            cur = out.get(w2)
            if cur is None:
                out[w2] = t
            else:
                t = add(cur, t)
                if t is None:
                    del out[w2]
                else:
                    out[w2] = t
    return out


def _field_of(cmap):
    """The field of a cmap's coefficients: its own when embedded, else the
    interface over ``Cyc``."""
    return cmap.field if isinstance(cmap, FieldCmap) else CYCLOTOMIC


def apply_elt(bp, elt, vec, n):
    """Act by a formal sum of braid words on a degree-n sparse vector.

    A word acts right to left, so words sharing a suffix share their first
    passes.  The words are walked in the sorted order of their reversals
    with a stack of partial results, one per letter of the current
    reversal: each distinct suffix is crossed once, however many words end
    in it.  The scalars of ``vec``, of ``bp.cmap`` and of the coefficients
    must be of one field, ``Cyc`` for a ``BraidedPair``, or the field of a
    ``FieldPair`` with ``elt`` embedded in it (``elt.embed``).
    """
    if elt.strands != n:
        raise ValueError(f"element on {elt.strands} strands applied in degree {n}")
    d = bp.dim
    field = _field_of(bp.cmap)
    total = {}
    path = ()
    stack = [vec]
    for w, c in sorted(elt.terms.items(), key=lambda t: t[0][::-1]):
        rev = w[::-1]
        k = 0
        for x, y in zip(path, rev):
            if x != y:
                break
            k += 1
        del stack[k + 1:]
        cur = stack[-1]
        for letter in rev[k:]:
            if letter > 0:
                cur = sigma_pass(bp.cmap, d, n, cur, letter)
            else:
                cur = sigma_pass(bp.cmap_inverse(), d, n, cur, -letter)
            stack.append(cur)
        path = rev
        vec_add_into(total, cur, c, field)
    return total


def sweep(cmap, d, n, vec, slots):
    """Cross at each of ``slots`` in turn.  Returns the running sum of
    ``vec`` and every intermediate result, and the last result."""
    field = _field_of(cmap)
    total = dict(vec)
    cur = vec
    for k in slots:
        cur = sigma_pass(cmap, d, n, cur, k)
        vec_add_into(total, cur, None, field)
    return total, cur


def t1_apply(bp, vec, n):
    """Apply T_(1,n-1), the (1,n-1) coalgebra multiplication, in O(n) passes.

    The inverse-(1,n-1)-shuffle lifts are e, s1, s2 s1, ..., s(n-1)...s1,
    so one sweep over slots 1..n-1 produces all summands.
    """
    return sweep(bp.cmap, bp.dim, n, vec, range(1, n))[0]


def symmetrizer_apply(bp, n, vec, k=None):
    """Apply the degree-k quantum symmetrizer to the first k of n tensor
    slots (k defaults to n), via the iterated factorization
    S^j = T_(1,j-1) (id (x) S^(j-1)): O(k^2) crossing passes instead of k!
    words."""
    if k is None:
        k = n
    cur = dict(vec)
    for j in range(2, k + 1):
        offset = k - j  # leading slots are inert while S^j builds up
        cur = sweep(bp.cmap, bp.dim, n, cur, range(offset + 1, offset + j))[0]
    return cur


class FieldPair:
    """A braided pair's braiding embedded into a field ``field``
    (``scalars.field(m)``, m a multiple of the pair's conductor): the
    ``dim``, ``cmap`` and ``cmap_inverse()`` that the actions of this
    module read, with every coefficient a value of ``field``.

    A pair keeps one per field (``BraidedPair.embedded``), so pair
    validation, every identity that ``verify_identity`` checks on the pair
    and the graded engine share it.  It holds no reference back to the
    pair, so the two form no reference cycle.  Each embedded map is a
    ``Relabelling`` when it is one, so that ``sigma_pass`` relabels and
    scales with it, else a ``FieldCmap``.  The inverse is computed in the
    field from the embedded columns on first use: a ``Relabelling``
    inverts its targets and its scalars, any other map goes through
    ``linalg.invert_square`` on the field's values, which raises
    ValueError for a singular map."""

    __slots__ = ("dim", "field", "cmap", "_cinv")

    def __init__(self, bp, field):
        self.dim = bp.dim
        self.field = field
        embed = field.from_cyc
        self.cmap = _field_cmap(tuple(tuple((kl, embed(c)) for kl, c in col)
                                      for col in bp.cmap), field)
        self._cinv = None

    def cmap_inverse(self):
        if self._cinv is None:
            self._cinv = _inverse_cmap(self.cmap)
        return self._cinv


def _field_cmap(cols, field):
    """The columns ``cols`` of values of ``field`` as an embedded cmap: a
    ``Relabelling`` when every column has exactly one term and the
    targets of the columns are a permutation of the d^2 letter pairs, else
    a ``FieldCmap``.  A map that fails only the permutation test is not
    invertible, so pair validation refuses it, but it is read first: it
    keeps the merging loop, which sums the terms that land on one word.
    The columns of a pair's cmap hold no zeros, so neither do the embedded
    ones."""
    if all(len(col) == 1 for col in cols):
        targets = tuple(col[0][0] for col in cols)
        if len(set(targets)) == len(cols):
            return Relabelling(cols, targets, field)
    return FieldCmap(cols, field)


def _inverse_cmap(cmap):
    """The inverse of an embedded cmap, in its field: c(p) = f t(p) for a
    ``Relabelling`` inverts to c^-1(t(p)) = f^-1 p, and any other map is
    inverted by elimination (ValueError when singular)."""
    field = cmap.field
    size = len(cmap)
    if cmap.__class__ is Relabelling:
        inverse = field.inverse
        cols = [None] * size
        for p, ((t, f),) in enumerate(cmap):
            cols[t] = ((p, inverse(f)),)
    else:
        inv = invert_square({p: dict(col) for p, col in enumerate(cmap)},
                            size, field)
        cols = [tuple(sorted(inv.get(p, {}).items())) for p in range(size)]
    return _field_cmap(tuple(cols), field)


class FieldCmap(tuple):
    """An embedded cmap: the tuple of columns, as any cmap, with every
    coefficient a value of ``field``."""

    def __new__(cls, cols, field):
        self = super().__new__(cls, cols)
        self.field = field
        return self


class Relabelling(FieldCmap):
    """An embedded cmap whose crossing maps each letter pair to exactly
    one pair, bijectively, times a nonzero scalar: the shape of every
    crossed-set braiding c(x_i (x) x_j) = f(i, j) x_(i |> j) (x) x_i and of
    its inverse.  Besides the columns it holds ``targets[pair]``, the one
    image pair, and ``scales[pair]``, the function c -> c * f of the field
    (``scaling``: straight-line for a root of unity or its negative).  The
    scales are made on the first pass, so an embedding that never crosses
    with the map, such as the graded engine's, compiles no multiplier."""

    def __new__(cls, cols, targets, field):
        self = super().__new__(cls, cols, field)
        self.targets = targets
        return self

    @cached_property
    def scales(self):
        scaling = self.field.scaling
        return tuple(scaling(col[0][1]) for col in self)


def verify_identity(lhs, rhs, suite):
    """Check two operators act identically on every standard basis tensor
    of every braided pair in the suite; the suite must not be empty.
    Returns an IdentityReport.

    Each pair goes through ``_compare`` with all d^n basis words, in
    ``scalars.field(m)``, m the lcm of the pair's conductor and of both
    sides' ``conductor``.  Each side is embedded once per field of the
    suite, and each pair's braiding once per field for the pair's
    lifetime (``BraidedPair.embedded``).  Either side may be a
    GroupAlgElt or anything exposing ``strands``, ``conductor`` (a
    multiple of the conductor of every coefficient), ``embed(field)`` (the
    operator with its coefficients in ``field``) and ``apply(bp, vec,
    n)``, such as a product of factors evaluated without expanding the
    formal sum.  ``apply`` is called on embedded operators only, with
    ``bp`` a ``FieldPair`` and ``vec`` a tagged vector of field elements.
    On a mismatch the report holds the first failing pair in suite order,
    the least failing basis word and its two image vectors as ``Cyc``
    values in ascending word order.
    """
    if lhs.strands != rhs.strands:
        raise ValueError("strand count mismatch")
    if not suite:
        raise ValueError("an empty suite verifies nothing")
    n = lhs.strands
    m = lcm(lhs.conductor, rhs.conductor)
    sides = {}
    for bp in suite:
        field = _field(lcm(bp.conductor, m))
        embedded = sides.get(field.m)
        if embedded is None:
            embedded = sides[field.m] = (lhs.embed(field), rhs.embed(field))
        failure = _compare(*embedded, bp.embedded(field),
                           range(bp.dim ** n))
        if failure is not None:
            return IdentityReport(False, bp, *failure)
    return IdentityReport(True, None, None, None, None)


def _mismatch(lhs, rhs, bp, words):
    """``_compare`` of two operators with ``Cyc`` coefficients on the
    basis tensors ``words`` of the braided pair ``bp``, in
    ``scalars.field(m)``, m the lcm of ``bp.conductor`` and of both sides'
    ``conductor``.  Only the crossings the sides name are read, so a
    braiding not yet known to be invertible can be checked with positive
    words."""
    field = _field(lcm(bp.conductor, lhs.conductor, rhs.conductor))
    return _compare(lhs.embed(field), rhs.embed(field), bp.embedded(field),
                    words)


def _compare(lhs, rhs, fp, words):
    """Compare two operators on n = ``lhs.strands`` strands, embedded in
    the field of the ``FieldPair`` ``fp``, on the basis tensors ``words``
    (base-d words of length n).  Returns None if they agree there, else
    the least failing word and its two image vectors as ``Cyc`` values in
    ascending word order.

    Both sides act once, on the sum of the basis tensors with each term
    tagged by its input word in the high digits: the key of output word
    w_out from input word w_in is w_in * d^n + w_out.  The crossings read
    only the low n digits, so the tagged terms never mix, and the
    canonical values of the field compare with ``==``.
    """
    n = lhs.strands
    field = fp.field
    size = fp.dim ** n
    basis = {w * size + w: field.one for w in words}
    a = lhs.apply(fp, basis, n)
    b = rhs.apply(fp, basis, n)
    if a == b:
        return None
    w = min(key // size for key in a.keys() | b.keys()
            if key not in a or key not in b or a[key] != b[key])
    return w, _block(a, w, size, field), _block(b, w, size, field)


def _block(vec, w, size, field):
    """The image of basis word w in a tagged vector of values of
    ``field``, as Cyc values."""
    low = w * size
    return {key - low: field.to_cyc(vec[key])
            for key in sorted(vec) if low <= key < low + size}


class IdentityReport:
    __slots__ = ("ok", "pair", "basis_word", "lhs_value", "rhs_value")

    def __init__(self, ok, pair, basis_word, lhs_value, rhs_value):
        self.ok = ok
        self.pair = pair
        self.basis_word = basis_word
        self.lhs_value = lhs_value
        self.rhs_value = rhs_value

    def __bool__(self):
        return self.ok
