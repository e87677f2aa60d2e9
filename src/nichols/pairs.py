"""Braided pairs: vector spaces with an invertible solution of the braid
equation, and every constructor the engine needs.

The braiding is stored sparsely: ``cmap[i*d+j]`` lists the nonzero terms
of c(x_i (x) x_j) as ``(k*d+l, coeff)`` pairs, with the left tensor factor
always the most significant index.  The equivalent d^2 x d^2 matrix view
(column i*d+j holding the image of x_i (x) x_j) is available via
``matrix()``.  Construction validates the braid equation on the
standard basis of the triple tensor power, invertibility, and consistency
of any attached group-like actions; rigidity is taken as invertibility of
the braiding, which for group-type pairs with invertible group-likes is
equivalent to the dual-map condition.  The pairs that ``transpose`` and
``restrict`` derive from a valid pair are valid by construction, and are
not checked again.

Diagonal, ``v3``, ``v4``, ``two_by_two`` and cocycle pairs are crossed-set
braidings c(x_i (x) x_j) = f(i, j) x_(i |> j) (x) x_i (Andruskiewitsch-
Grana, From racks to pointed Hopf algebras, Adv. Math. 178, 2003).  Each
of these constructors supplies only its table of i |> j and its values
f(i, j); one function builds the cmap, and the monomial group-likes are
read off that cmap.  One function reads the table and the values back
from any pair's cmap (``crossed_set``), for ``is_diagonal`` and for the
block orbits of the graded engine.

Modules over a finite group come from ``yd_module``: for summands
M(g, rho), a class with a representation of its centralizer, it builds
the action of each basis vector's degree on the whole sum and braids by
c(v (x) w) = (deg v . w) (x) v, so the cross terms between summands come
from the group too.  ``direct_sum`` with explicit cross actions is left
for summands given by their group-likes alone, without a group.
"""

from math import gcd as _gcd

from .linalg import InvalidInput, invert_square, vec_add_into
from .scalars import as_matrix, as_scalar, field as _field, one, zero
from . import braids
from . import groups as _groups


class BraidedPair:
    """Dimension d plus an invertible braiding on the d^2-dimensional square,
    with optional group-like actions (one invertible matrix per basis
    vector)."""

    __slots__ = ("dim", "conductor", "cmap", "grouplikes", "kind", "params",
                 "_cinv", "_embedded")

    def __init__(self, dim, cmap, grouplikes=None, kind="matrix", params=None,
                 validate=True):
        if dim < 1:
            raise ValueError("braided pairs need at least one basis vector")
        self.dim = dim
        self.cmap = self._freeze(dim, cmap)
        self.grouplikes = grouplikes
        self.kind = kind
        self.params = params or {}
        self._cinv = None
        self._embedded = {}
        cond = 1
        for col in self.cmap:
            for _, c in col:
                cond = cond * c.conductor // _gcd(cond, c.conductor)
        self.conductor = cond
        if validate:
            diag = check(self)
            if not diag["braid_equation"]:
                raise InvalidInput(
                    f"braid equation fails at basis tensor {diag['braid_failure']}")
            if not diag["invertible"]:
                raise InvalidInput("braiding is not invertible")
            if not diag["grouplikes_consistent"]:
                raise InvalidInput("group-like actions do not match the braiding")

    @staticmethod
    def _freeze(dim, cmap):
        cols = []
        for pair in range(dim * dim):
            col = tuple((kl, c) for kl, c in cmap[pair] if c)
            cols.append(col)
        return tuple(cols)

    def cmap_inverse(self):
        """The inverse braiding as a cmap of ``Cyc``, converted from the
        one computed in the pair's own field (``FieldPair``); ValueError
        when the braiding is singular."""
        if self._cinv is None:
            F = _field(self.conductor)
            to_cyc = F.to_cyc
            self._cinv = tuple(tuple((kl, to_cyc(c)) for kl, c in col)
                               for col in self.embedded(F).cmap_inverse())
        return self._cinv

    def embedded(self, field):
        """The braiding embedded into ``field`` (``scalars.field(m)``, m a
        multiple of ``conductor``), as a ``braids.FieldPair`` made on first
        use and kept with the pair, one per field."""
        fp = self._embedded.get(field.m)
        if fp is None:
            fp = self._embedded[field.m] = braids.FieldPair(self, field)
        return fp

    def matrix(self):
        """The d^2 x d^2 braiding matrix; entry [k*d+l][i*d+j] is the
        coefficient of x_k (x) x_l in c(x_i (x) x_j)."""
        n = self.dim * self.dim
        out = [[zero()] * n for _ in range(n)]
        for p, col in enumerate(self.cmap):
            for kl, c in col:
                out[kl][p] = c
        return out

    def braiding_terms(self, i, j):
        """c(x_i (x) x_j) as a list of ((k, l), coeff)."""
        d = self.dim
        return [((kl // d, kl % d), c) for kl, c in self.cmap[i * d + j]]

    def __repr__(self):
        return (f"BraidedPair(kind={self.kind!r}, dim={self.dim}, "
                f"conductor={self.conductor})")


# ---------------------------------------------------------------------------
# validation

def check(bp):
    """Diagnostics: braid equation, invertibility, group-like consistency.

    The braid equation s1 s2 s1 = s2 s1 s2 is checked on every basis
    tensor of the triple tensor power in one tagged pass in
    ``scalars.field(m)``, m = ``bp.conductor`` (``braids._mismatch``);
    ``braid_failure`` is the least failing basis word, or None.  The
    inverse is computed in the same field, on the same embedding
    (``BraidedPair.embedded``).  Group-likes are consistent when they are
    the ones ``_detect_grouplikes`` reads off the cmap.
    """
    failure = braids._mismatch(braids.GroupAlgElt.from_word(3, (1, 2, 1)),
                               braids.GroupAlgElt.from_word(3, (2, 1, 2)),
                               bp, range(bp.dim ** 3))
    try:
        bp.embedded(_field(bp.conductor)).cmap_inverse()
        ok_inv = True
    except ValueError:
        ok_inv = False
    return {
        "braid_equation": failure is None,
        "braid_failure": None if failure is None else failure[0],
        "invertible": ok_inv,
        "grouplikes_consistent": (
            bp.grouplikes is None
            or bp.grouplikes == _detect_grouplikes(bp.dim, bp.cmap)),
    }


def crossed_set(bp):
    """``(table, values)`` when the braiding is a crossed-set braiding
    c(x_i (x) x_j) = f(i, j) x_(i |> j) (x) x_i whose every i |> - is a
    bijection, else None: ``table[i]`` is the permutation i |> - as a
    tuple and ``values[i][j]`` is f(i, j).  The reader of what
    ``_crossed_cmap`` writes."""
    d = bp.dim
    cols = bp.cmap
    if any(len(col) != 1 or col[0][0] % d != p // d
           for p, col in enumerate(cols)):
        return None
    table = [tuple(col[0][0] // d for col in cols[i * d:i * d + d])
             for i in range(d)]
    if any(len(set(row)) != d for row in table):
        return None
    return table, [[col[0][1] for col in cols[i * d:i * d + d]]
                   for i in range(d)]


def is_diagonal(bp):
    """The d x d scalar matrix if the braiding is diagonal in the standard
    basis (c(x_i (x) x_j) = q_ij x_j (x) x_i): the values of a crossed-set
    braiding with the trivial table i |> j = j.  Else None."""
    shape = crossed_set(bp)
    if shape is None:
        return None
    table, values = shape
    ident = tuple(range(bp.dim))
    return values if all(row == ident for row in table) else None


# ---------------------------------------------------------------------------
# constructors

def _grouplike_cmap(dim, grouplikes):
    """Braiding of group type: c(x_i (x) x_j) = g_i(x_j) (x) x_i."""
    cmap = []
    for i in range(dim):
        g = grouplikes[i]
        for j in range(dim):
            cmap.append([(k * dim + i, g[k][j]) for k in range(dim) if g[k][j]])
    return cmap


def _crossed_cmap(table, values):
    """The crossed-set braiding c(x_i (x) x_j) = f(i, j) x_(i |> j) (x) x_i
    as a cmap, from ``table[i][j] = i |> j`` and ``values[i][j] = f(i, j)``."""
    d = len(table)
    return [[(table[i][j] * d + i, values[i][j])]
            for i in range(d) for j in range(d)]


def _crossed_pair(table, values, kind, params):
    """The validated pair of a crossed-set braiding, with its group-likes
    (monomial matrices) read off the cmap."""
    d = len(table)
    cmap = _crossed_cmap(table, values)
    return BraidedPair(d, cmap, _detect_grouplikes(d, cmap), kind=kind,
                       params=params)


def diagonal(q):
    """Diagonal braiding from a d x d matrix of nonzero scalars: the
    crossed-set braiding of the trivial table i |> j = j.

    Any nonzero scalars build a pair, but nilpotency orders (``rank2``,
    ``algebra.nilpotency_order``) need every diagonal entry to be 1 or a
    root of unity, as it is for braidings over finite groups.
    """
    d = len(q)
    q = as_matrix(q)
    for row in q:
        if len(row) != d:
            raise ValueError("matrix must be square")
        for v in row:
            if v.is_zero():
                raise InvalidInput("diagonal braiding entries must be nonzero")
    return _crossed_pair([range(d)] * d, q, "diagonal", {"q": q})


def v3(q):
    """The three-dimensional pair with basis indexed by Z/3 and braiding
    c(x_i (x) x_j) = q x_(-i-j) (x) x_i."""
    q = as_scalar(q)
    table = [[(-i - j) % 3 for j in range(3)] for i in range(3)]
    return _crossed_pair(table, [[q] * 3] * 3, "v3", {"q": q})


# the four permutation actions t_a of the irreducible four-dimensional
# family: entry (a, b) is (target index, takes the alpha factor)
_V4_TABLE = (
    ((0, 0), (2, 0), (3, 0), (1, 0)),
    ((3, 0), (1, 0), (0, 1), (2, 1)),
    ((1, 0), (3, 1), (2, 0), (0, 1)),
    ((2, 0), (0, 1), (1, 1), (3, 0)),
)


def v4(q, alpha):
    """The four-dimensional family V_(4,q,alpha): c(x_a (x) x_b) =
    (t_a . x_b) (x) x_a with the monomial actions t_a . x_b = q alpha^e x_c
    tabulated in _V4_TABLE."""
    q = as_scalar(q)
    alpha = as_scalar(alpha)
    if alpha != one() and alpha != -one():
        raise ValueError("alpha must be 1 or -1")
    qa = q * alpha
    table = [[target for target, _ in row] for row in _V4_TABLE]
    values = [[qa if takes_alpha else q for _, takes_alpha in row]
              for row in _V4_TABLE]
    return _crossed_pair(table, values, "v4", {"q": q, "alpha": alpha})


def two_by_two(q1, q2, eta1, eta2, beta1, beta2):
    """The sum of two conjugate two-dimensional modules over a nonabelian
    group: basis (x1, x1', x2, x2'), block matrices
    [[q_i, eta_i q_i], [eta_i q_i, q_i]] and the eight cross formulas, with
    alpha_i = beta_i^2 (the square root is the caller's explicit choice)."""
    q1, q2 = as_scalar(q1), as_scalar(q2)
    eta1, eta2 = as_scalar(eta1), as_scalar(eta2)
    beta1, beta2 = as_scalar(beta1), as_scalar(beta2)
    for eta in (eta1, eta2):
        if eta != one() and eta != -one():
            raise ValueError("eta must be 1 or -1")
    a1, a2 = beta1 * beta1, beta2 * beta2
    e1q1, e2q2 = eta1 * q1, eta2 * q2
    # basis order: 0 = x1, 1 = x1', 2 = x2, 3 = x2'; the x1's fix their own
    # block and swap the other, the x2's the reverse
    table = [[0, 1, 3, 2]] * 2 + [[1, 0, 2, 3]] * 2
    values = [[q1, e1q1, one(), a2],
              [e1q1, q1, eta2, eta2 * a2],
              [one(), a1, q2, e2q2],
              [eta1, eta1 * a1, e2q2, q2]]
    return _crossed_pair(table, values, "two_by_two",
                         {"q1": q1, "q2": q2, "eta1": eta1, "eta2": eta2,
                          "beta1": beta1, "beta2": beta2})


def two_by_two_z_basis(beta1, beta2):
    """Change-of-basis matrix to the eigenvector basis z_eps = beta1 x1 +
    eps x1', z'_eps = beta2 x2 + eps x2', ordered as the two blocks
    (z_+, z'_-, z_-, z'_+); columns express the new basis in the old."""
    beta1, beta2 = as_scalar(beta1), as_scalar(beta2)
    z = zero()
    e = one()
    return [
        [beta1, z, beta1, z],
        [e, z, -e, z],
        [z, beta2, z, beta2],
        [z, -e, z, e],
    ]


def from_cocycle(xset, cocycle):
    """The braided pair c(i (x) j) = f(i, j) (i |> j) (x) i on the span of a
    crossed set, for a two-cochain f whose braiding solves the braid
    equation (constants and all two-cocycles do)."""
    values = cocycle.values(xset)
    try:
        return _crossed_pair(xset.table, values, "cocycle",
                             {"xset": xset, "cocycle": cocycle})
    except InvalidInput as exc:
        raise InvalidInput(f"cochain does not braid this crossed set: {exc}")


def yd_module(group, summands):
    """The Yetter-Drinfeld module V = M(g_1, rho_1) + ... + M(g_r, rho_r)
    over a finite group, braided by c(v (x) w) = (deg v . w) (x) v, cross
    terms between summands included.

    ``summands`` lists pairs (g, chi), where chi maps each element of the
    centralizer of g to a scalar (a character) or to a square matrix (a
    representation rho); ints, Fractions and Cyc are accepted.  M(g, rho)
    has basis z_(j,l) over the coset representatives h_j of the centralizer
    and the basis e_l of rho, in that order, and z_(j,l) has degree
    t_j = h_j g h_j^-1.  An element x acts by x . z_(v,w) =
    sum_k rho(gamma)[k][w] z_(u,k), where x t_v x^-1 = t_u and
    gamma = h_u^-1 x h_v lies in the centralizer.
    """
    summands = list(summands)
    blocks = []
    d = 0
    for g, chi in summands:
        if g not in group.elements():
            raise ValueError(f"summand element {g!r} is not in the group "
                             f"(elements 0..{group.order - 1})")
        cent, reps, ts, pos = _groups._indexed_class(group, g)
        rho, deg = _centralizer_rep(group, cent, chi)
        blocks.append((d, reps, ts, pos, rho, deg))
        d += len(ts) * deg

    def action(x):
        mat = [[zero()] * d for _ in range(d)]
        for off, reps, ts, pos, rho, deg in blocks:
            for v, t in enumerate(ts):
                u = pos[group.conj(x, t)]
                gamma = group.mul(group.inv(reps[u]), group.mul(x, reps[v]))
                for k in range(deg):
                    for w in range(deg):
                        mat[off + u * deg + k][off + v * deg + w] = \
                            rho[gamma][k][w]
        return mat

    grouplikes = [g_mat for _, _, ts, _, _, deg in blocks for t in ts
                  for g_mat in [action(t)] * deg]
    return BraidedPair(d, _grouplike_cmap(d, grouplikes), grouplikes,
                       kind="yd_module",
                       params={"group": group, "summands": summands})


def _centralizer_rep(group, cent, chi):
    """``chi`` on the centralizer as square matrices, checked to be a
    representation: defined everywhere, the identity to the identity, and
    multiplicative.  Returns the matrices and their size."""
    rho = {}
    for h in cent:
        if h not in chi:
            raise ValueError(f"chi has no value at centralizer element {h}")
        value = chi[h]
        rho[h] = as_matrix(value if isinstance(value, (list, tuple))
                           else [[value]])
    deg = len(rho[group.identity])
    rng = range(deg)
    if any(len(mat) != deg or any(len(row) != deg for row in mat)
           for mat in rho.values()):
        raise ValueError("chi needs square matrices of one size")
    if rho[group.identity] != [[one() if i == j else zero() for j in rng]
                               for i in rng]:
        raise ValueError("chi does not send the identity to the identity")
    for a in cent:
        for b in cent:
            prod = [[sum((rho[a][i][k] * rho[b][k][j] for k in rng),
                         start=zero()) for j in rng] for i in rng]
            if prod != rho[group.mul(a, b)]:
                raise ValueError(
                    "chi is not multiplicative on the centralizer")
    return rho, deg


def direct_sum(a, b, cross_ab, cross_ba):
    """Braided pair on the concatenated basis of a and b, for summands
    given by their group-likes alone, without a group: a sum of modules
    over a finite group is ``yd_module``, which reads the cross terms off
    the group.

    The cross braidings are not determined by the summands: ``cross_ab[i]``
    must give the action of the i-th group-like of a on the basis of b
    (a matrix, or a scalar meaning that multiple of the identity), and
    ``cross_ba`` the same with the roles swapped.  Restricting the result
    to either block recovers the summand.
    """
    if a.grouplikes is None or b.grouplikes is None:
        raise ValueError("direct_sum needs group-type data on both summands")
    da, db = a.dim, b.dim
    d = da + db

    def expand(entry, size):
        if isinstance(entry, (list, tuple)):
            return as_matrix(entry)
        s = as_scalar(entry)
        return [[s if i == j else zero() for j in range(size)]
                for i in range(size)]

    cross_ab = [expand(e, db) for e in cross_ab]
    cross_ba = [expand(e, da) for e in cross_ba]
    if len(cross_ab) != da or len(cross_ba) != db:
        raise ValueError("need one cross action per basis vector")
    for name, crosses, size in (("cross_ab", cross_ab, db),
                                ("cross_ba", cross_ba, da)):
        for i, mat in enumerate(crosses):
            if len(mat) != size or any(len(row) != size for row in mat):
                raise ValueError(f"{name}[{i}] must be a {size} x {size} "
                                 f"matrix")

    def block_diagonal(top, bottom):
        return ([list(row) + [zero()] * db for row in top]
                + [[zero()] * da + list(row) for row in bottom])

    grouplikes = [block_diagonal(g, c)
                  for g, c in zip(a.grouplikes, cross_ab)]
    grouplikes += [block_diagonal(c, g)
                   for g, c in zip(b.grouplikes, cross_ba)]
    return BraidedPair(d, _grouplike_cmap(d, grouplikes), grouplikes,
                       kind="direct_sum", params={"left": a, "right": b})


# ---------------------------------------------------------------------------
# derived pairs and decompositions

def transpose(bp):
    """The pair whose braiding matrix is the transpose; its symmetrizer
    images span the row spaces of the original symmetrizers."""
    d = bp.dim
    cmap = [[] for _ in range(d * d)]
    for p, col in enumerate(bp.cmap):
        for kl, c in col:
            cmap[kl].append((p, c))
    # no validation: transposing c (x) id and id (x) c turns the braid
    # equation of c into that of its transpose, and a matrix is invertible
    # exactly when its transpose is
    return BraidedPair(d, cmap, None, kind="transpose", params={"of": bp},
                       validate=False)


def change_basis(bp, p_matrix):
    """The braiding in the basis y_j = sum_i P[i][j] x_i.

    Group-like data is re-derived when the new braiding still has group
    type in the new basis, else dropped.
    """
    d = bp.dim
    p_matrix = as_matrix(p_matrix)
    if len(p_matrix) != d or any(len(row) != d for row in p_matrix):
        raise ValueError(f"the basis change of a {d}-dimensional pair must "
                         f"be a {d} x {d} matrix")
    cols = {j: {i: p_matrix[i][j] for i in range(d) if p_matrix[i][j]}
            for j in range(d)}
    inv = invert_square(cols, d)

    def tensor_col(m, k, l):
        # column (k, l) of M (x) M, for M given by its sparse columns
        return {u * d + v: mu * mv for u, mu in sorted(m.get(k, {}).items())
                for v, mv in sorted(m.get(l, {}).items())}

    cmap = [[] for _ in range(d * d)]
    for i in range(d):
        for j in range(d):
            # image of y_i (x) y_j: push forward, braid, pull back
            acc = {}
            for ab, s in tensor_col(cols, i, j).items():
                vec_add_into(acc, dict(bp.cmap[ab]), s)
            out = {}
            for kl, c in acc.items():
                vec_add_into(out, tensor_col(inv, *divmod(kl, d)), c)
            cmap[i * d + j] = list(out.items())
    grouplikes = _detect_grouplikes(d, cmap)
    return BraidedPair(d, cmap, grouplikes, kind="matrix",
                       params={"basis_change_of": bp})


def _detect_grouplikes(d, cmap):
    grouplikes = []
    for i in range(d):
        g = [[zero()] * d for _ in range(d)]
        for j in range(d):
            for kl, c in cmap[i * d + j]:
                k, l = divmod(kl, d)
                if l != i:
                    return None
                g[k][j] = c
        grouplikes.append(g)
    return grouplikes


def _require_letters(bp, letters):
    """ValueError naming the first of ``letters`` that is not a letter,
    0..d-1, of the d-dimensional pair ``bp``."""
    for x in letters:
        if not 0 <= x < bp.dim:
            raise ValueError(f"index {x} is not a letter of a "
                             f"{bp.dim}-dimensional pair")


def restrict(bp, indices):
    """The sub-pair on a subset of basis indices, in the order given; the
    subset must be closed (the braiding may not leak outside it), and an
    index out of range or listed twice raises ValueError naming it."""
    indices = list(indices)
    _require_letters(bp, indices)
    d = bp.dim
    pos = {}
    for x in indices:
        if x in pos:
            raise ValueError(f"index {x} is listed twice")
        pos[x] = len(pos)
    nd = len(indices)
    cmap = [[] for _ in range(nd * nd)]
    for ti, i in enumerate(indices):
        for tj, j in enumerate(indices):
            col = []
            for kl, c in bp.cmap[i * d + j]:
                k, l = divmod(kl, d)
                if k not in pos or l not in pos:
                    raise ValueError("index set is not closed under the braiding")
                col.append((pos[k] * nd + pos[l], c))
            cmap[ti * nd + tj] = col
    gl = None
    if bp.grouplikes is not None:
        gl = [[[bp.grouplikes[i][k][j] for j in indices] for k in indices]
              for i in indices]
    # no validation: the loop above refuses a subset whose braiding leaks,
    # so c maps V_S (x) V_S into itself and the braid equation of c holds
    # on V_S^(x3); an injective map of the finite-dimensional V_S (x) V_S
    # into itself is invertible; and the group-likes kept are the entries
    # that _detect_grouplikes reads off the restricted cmap
    return BraidedPair(nd, cmap, gl, kind="matrix", params={"restricted": bp},
                       validate=False)


def find_decomposition(bp):
    """The maximal refinement of the standard basis into blocks closed under
    the braiding's support: the orbits of the letters under the links that
    each term x_k (x) x_l of c(x_i (x) x_j) makes, j with k and i with l,
    since c maps (block i) (x) (block j) into (block j) (x) (block i).
    The blocks are sorted lists of letters, listed in increasing order."""
    d = bp.dim
    links = [set() for _ in range(d)]
    for ij, col in enumerate(bp.cmap):
        i, j = divmod(ij, d)
        for kl, _ in col:
            k, l = divmod(kl, d)
            links[j].add(k)
            links[k].add(j)
            links[i].add(l)
            links[l].add(i)
    return sorted(sorted(orbit)
                  for orbit in _groups.orbits(range(d), links.__getitem__))


def cross_square_is_identity(bp, block_a, block_b):
    """Whether c^2 restricts to the identity on (block a) (x) (block b):
    c(c(x_i (x) x_j)) = x_i (x) x_j for every letter i of block a and j of
    block b.  One pass over those letter pairs composes the columns of the
    braiding embedded in ``scalars.field(m)``, m = ``bp.conductor``
    (``BraidedPair.embedded``, the embedding that pair validation and the
    graded engine share), and stops at the first pair that fails.
    ``algebra.hilbert`` splits a pair by this test."""
    _require_letters(bp, [*block_a, *block_b])
    field = _field(bp.conductor)
    cmap = bp.embedded(field).cmap
    d = bp.dim
    for i in block_a:
        for j in block_b:
            ij = i * d + j
            image = {}
            for kl, c in cmap[ij]:
                vec_add_into(image, dict(cmap[kl]), c, field)
            if image.keys() != {ij} or not field.is_one(image[ij]):
                return False
    return True
