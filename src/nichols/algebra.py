"""Graded components of the Nichols algebra of a braided pair, inside the
tensor coalgebra: bases, Hilbert series, symmetrizer kernels, relation
bases, skew derivations, shuffle multiplication, and the braided adjoint.

The degree-n component is the image of the quantum symmetrizer.  It is
never materialized as a d^n x d^n matrix: since the algebra is generated
in degree one, the component is spanned by T_(1,n-1)(x_i (x) b) over the
degree-(n-1) basis vectors b, which costs d * dim bases of sparse vectors
per degree.  Symmetrizer kernels come from the row space instead: the
transpose of the degree-n symmetrizer is the degree-n symmetrizer of the
transposed braiding, so the kernel falls out of the reduced echelon basis
computed for that pair, and stays sparse (each kernel vector touches at
most rank+1 coordinates).
"""

from .braids import apply_elt, sigma_pass, t1_apply, t_shuffle
from .linalg import Echelon, decode_word
from .scalars import INFINITE, ONE
from . import pairs as _pairs
from . import rank2 as _rank2


class HilbertResult:
    __slots__ = ("dims", "total", "finite")

    def __init__(self, dims, total, finite):
        self.dims = dims
        self.total = total
        self.finite = finite

    def __repr__(self):
        return f"HilbertResult(dims={self.dims}, total={self.total}, finite={self.finite})"


class GradedComputation:
    """Per-degree echelon bases of the graded components, with caches for
    the transposed pair (row spaces), kernels, and relation bases.

    Treat instances as single-writer: all public functions taking a cache
    mutate only the one they are given.
    """

    def __init__(self, bp):
        self.bp = bp
        ech0 = Echelon()
        ech0.insert({0: ONE})
        self.bases = [ech0]
        self._transposed = None
        self.kernels = {}
        self.relation_bases = {}
        self.leading_words = {}

    def basis(self, n):
        """Echelon basis of the degree-n component (computed on demand)."""
        while len(self.bases) <= n:
            self._extend()
        return self.bases[n]

    def dim(self, n):
        return self.basis(n).rank

    def _extend(self):
        n = len(self.bases)
        bp = self.bp
        d = bp.dim
        prev = self.bases[n - 1]
        ech = Echelon()
        if prev.rank:
            shift = d ** (n - 1)
            cands = []
            for row in prev.rows.values():
                for i in range(d):
                    base = i * shift
                    cands.append({base + w: c for w, c in row.items()})
            cands.sort(key=min)
            for vec in cands:
                ech.insert(t1_apply(bp, vec, n))
        self.bases.append(ech)

    def transposed(self):
        if self._transposed is None:
            self._transposed = GradedComputation(_pairs.transpose(self.bp))
        return self._transposed


def degree_basis(bp, n, cache=None):
    """Canonical reduced-echelon basis of the degree-n component, as a list
    of sparse vectors in increasing pivot order."""
    cache = cache or GradedComputation(bp)
    ech = cache.basis(n)
    ech.rref()
    return ech.sorted_rows()


def hilbert(bp, max_degree, cache=None):
    """Graded dimensions up to max_degree.

    Stops at the first zero dimension, which certifies finiteness (the
    algebra is generated in degree one, so every higher component also
    vanishes); without a zero the verdict at the cutoff stays unknown.
    """
    cache = cache or GradedComputation(bp)
    dims = []
    for n in range(max_degree + 1):
        dims.append(cache.dim(n))
        if dims[-1] == 0:
            return HilbertResult(dims, sum(dims), True)
    return HilbertResult(dims, None, None)


def kernel_basis(bp, n, cache=None):
    """Exact basis of the kernel of the degree-n symmetrizer on the tensor
    power, via the row space; in degree two the row space is that of
    1 + (transposed braiding) directly."""
    if n < 2:
        return []
    cache = cache or GradedComputation(bp)
    got = cache.kernels.get(n)
    if got is None:
        ech = cache.transposed().basis(n)
        got = ech.nullspace(range(bp.dim ** n))
        cache.kernels[n] = got
    return got


def relations(bp, n, cache=None):
    """Canonical echelon basis of the new degree-n relations: the kernel of
    the degree-n symmetrizer modulo (V . K + K . V) for K the kernel one
    degree down."""
    if n < 2:
        raise ValueError("relations start in degree two")
    cache = cache or GradedComputation(bp)
    got = cache.relation_bases.get(n)
    if got is not None:
        return got
    d = bp.dim
    ideal = Echelon()
    lower = kernel_basis(bp, n - 1, cache)
    shift = d ** (n - 1)
    cands = []
    for k in lower:
        for i in range(d):
            base = i * shift
            cands.append({base + w: c for w, c in k.items()})
            cands.append({w * d + i: c for w, c in k.items()})
    cands.sort(key=min)
    for vec in cands:
        ideal.insert(vec)
    fresh = Echelon()
    for vec in kernel_basis(bp, n, cache):
        residue = ideal.reduce(vec)
        if residue:
            fresh.insert(residue)
    fresh.rref()
    got = fresh.sorted_rows()
    cache.relation_bases[n] = got
    return got


def new_leading_words(bp, n, cache=None):
    """New leading words of the relation ideal in degree n.

    A kernel vector's leading word is its least key, which under the fixed
    integer encoding is the largest monomial for the letter order
    x_0 > x_1 > ... ; a word is new when no contiguous proper factor of it
    already leads a lower-degree kernel element.  Per degree this counts
    the elements a reduced degree-by-degree rewriting basis of the relation
    ideal acquires, without running a completion engine.  Note the count
    can exceed the number of new minimal generators (``relations``): a
    rewriting basis may need elements that already lie in the ideal.
    """
    if n < 2:
        raise ValueError("the relation ideal starts in degree two")
    cache = cache or GradedComputation(bp)
    for m in range(2, n):
        if m not in cache.leading_words:
            new_leading_words(bp, m, cache)
    got = cache.leading_words.get(n)
    if got is not None:
        return got
    d = bp.dim
    ech = Echelon()
    for vec in sorted(kernel_basis(bp, n, cache), key=min):
        ech.insert(vec)
    lower = [w for m in range(2, n) for w in cache.leading_words[m]]
    new = []
    for p in ech.pivots():
        w = decode_word(p, d, n)
        reducible = False
        for m_word in lower:
            lm = len(m_word)
            if any(w[s:s + lm] == m_word for s in range(n - lm + 1)):
                reducible = True
                break
        if not reducible:
            new.append(w)
    cache.leading_words[n] = new
    return new


def derivation(bp, y, vec, n):
    """The skew derivation pairing the last tensor slot against the y-th
    dual basis vector, on a degree-n element.  In coalgebra coordinates the
    deconcatenation coproduct makes this a coordinate projection."""
    if n < 1:
        raise ValueError("derivations act on positive degrees")
    d = bp.dim
    out = {}
    for w, c in vec.items():
        if w % d == y:
            key = w // d
            cur = out.get(key)
            t = c if cur is None else cur + c
            if t:
                out[key] = t
            elif cur is not None:
                del out[key]
    return out


def multiply(bp, a, b, i, j):
    """Product in the tensor coalgebra: T_(i,j) applied to a (x) b, for a of
    degree i and b of degree j."""
    if i == 0 or j == 0:
        scalar = (a if i == 0 else b).get(0)
        other = b if i == 0 else a
        if scalar is None:
            return {}
        if scalar.is_one():
            return dict(other)
        return {w: c * scalar for w, c in other.items()}
    d = bp.dim
    shift = d ** j
    prod = {}
    for wa, ca in a.items():
        base = wa * shift
        for wb, cb in b.items():
            c = ca * cb
            if c:
                prod[base + wb] = c
    return apply_elt(bp, t_shuffle(i, j), prod, i + j)


def adjoint(bp, i, vec, n):
    """Braided adjoint of the degree-one primitive x_i on a degree-n
    element: x_i v - m(c(x_i (x) v)), the braiding moving x_i across all
    n slots before multiplying."""
    d = bp.dim
    shift = d ** n
    pre = {i * shift + w: c for w, c in vec.items()}
    left = t1_apply(bp, pre, n + 1)
    crossed = pre
    for k in range(1, n + 1):
        crossed = sigma_pass(bp.cmap, d, n + 1, crossed, k)
    right = apply_elt(bp, t_shuffle(n, 1), crossed, n + 1)
    for w, c in right.items():
        cur = left.get(w)
        t = -c if cur is None else cur - c
        if t:
            left[w] = t
        elif cur is not None:
            del left[w]
    return left


# adjoint steps probed when the formula says the order is infinite
PROBE_DEPTH = 8


def nilpotency_order(bp, i, j):
    """Nilpotency order of the adjoint of x_i on x_j for a diagonal pair.

    Takes the closed-form value r + 1 from
    ``rank2.nilpotency_order_formula``, with r = min{t, N(q_ii) - 1} for t
    the least nonnegative integer with q_ii^t q_ij q_ji = 1, and confirms
    it by direct adjoint iteration (zero in the Nichols algebra is a plain
    vector test, since the graded components sit inside the tensor
    coalgebra).  A mismatch raises, signalling an engine bug.  When the
    formula value is infinite the direct iteration only probes
    ``PROBE_DEPTH`` steps.
    """
    q = _pairs.is_diagonal(bp)
    if q is None:
        raise ValueError("nilpotency order formula needs a diagonal pair")
    if i == j:
        raise ValueError("need two distinct basis indices")
    formula = _rank2.nilpotency_order_formula(q, i, j)
    limit = PROBE_DEPTH if formula == INFINITE else int(formula)
    z = {j: ONE}
    direct = None
    for k in range(1, limit + 1):
        z = adjoint(bp, i, z, k)
        if not z:
            direct = k
            break
    if formula == INFINITE:
        if direct is not None:
            raise RuntimeError(
                f"adjoint vanished at step {direct} but the formula says infinite")
        return INFINITE
    if direct != formula:
        raise RuntimeError(
            f"direct adjoint iteration gives {direct}, formula gives {formula}")
    return int(formula)
