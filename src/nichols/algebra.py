"""Graded components of the Nichols algebra of a braided pair: bases,
Hilbert series, symmetrizer kernels, relation bases, skew derivations,
shuffle multiplication, and the braided adjoint.

The degree-n component B_n sits in the tensor coalgebra as the image of
the quantum symmetrizer, the projection pi: T_n -> B_n with kernel K_n,
but the engine stores it through its skew derivations.  For y a basis
letter, d_y strips a last tensor letter y, and u = sum_y d_y(u) (x) x_y,
so in positive degree Phi(u) = (d_y u)_y is an exact, injective image of
u in B_(n-1)^d: an element of positive degree vanishes in the Nichols
algebra iff every d_y kills it (Andruskiewitsch-Schneider, Pointed Hopf
algebras, MSRI Publ. 43, 2002).  The basis of B_n is the images pi(w) of
its normal words w, the words that lead no vector of K_n, and d_y(u) is
written in the basis of B_(n-1) at the key y * d**(n-1) + v of each
normal word v of degree n-1, the key of the word y v: letter first.

A kernel vector leads with its least key, so a word f leads one iff pi(f)
is a combination of the images of greater words.  The leading words are
closed under extension, so every normal word of degree n is a candidate,
a word whose prefix and suffix of length n-1 are normal.  Degree n inserts
the Phi-vectors of the images of its candidate words into one echelon,
greatest word first: the words whose image is independent of the images
before are the normal words, and each other candidate f is a new leading
word, whose image the multipliers of the elimination write in the images
of greater normal words.  That is its rewriting rule f -> tail, the
kernel vector k_f = e_f - sum tail[p] e_p; over all degrees these rules
are the reduced Groebner basis of the relation ideal J, the kernel of
T(V) -> B(V).

Neither answer depends on the order of the derivation keys or on how far
the stored rows are reduced: a candidate is normal exactly when its image
is independent of the images before it, a rank fact, and its rule tail is
the unique combination of those images.  So the insertion stops at the
first free key (``linalg.Echelon.insert``), and the keys are ordered to
make that early: with the letter y most significant, the images of the
candidates, greatest word first, are nearly triangular, most of them
leading with a key no row has taken, so they are stored almost as they
are (Aff(7,3) to degree 8 stores 161,106 row entries for Phi-vectors of
161,024; with the key v y and every pivot reduced, 349,197).  The echelon
holds such a row once, unscaled, as the very dict given to it, whether or
not it eliminates later: it caches the inverse of a row's pivot
coefficient when the row first eliminates, so no vector is held twice and
no pivot of a row never used is inverted.

The algebra is generated in degree one, so each candidate is a normal
word p of degree n-1 followed by a letter a, and pi(p a) = pi(p) . x_a.
The skew Leibniz rule on that side, the component in B_(n-1) (x) V of
Delta(u) Delta(x_a) in the braided tensor product, is

    d_z(u . x_a) = [z = a] u + sum_(j,k) C[(j,a) -> (k,z)] d_j(u) . x_k,

with C the braiding matrix, c(x_j (x) x_a) = sum C[(j,a) -> (k,z)] x_k
(x) x_z.  Only the last letter x_j of each term d_j(u) (x) x_j of Delta(u)
crosses x_a, so the rule reads the braiding on V (x) V and nothing more:
the Phi-vector of pi(p a) is e_p in component a plus the right
multiplications R_k: B_(n-2) -> B_(n-1), R_k(pi(v)) = pi(v k), applied to
the Phi-vector of p.  R_k(pi(v)) is the normal form of the word v k under
the rules, a column made while degree n is computed, the first time a
Phi-vector reads it, and dropped when degree n is done: a column that no
Phi-vector reads is never made.  No crossing of a letter over a whole
element is needed, for any braiding; on the other side, d_y(x_a . u) would
need x_a crossed over all of u, maps of B_(n-1) to itself rebuilt by a
recursion every degree.

The last degree ``hilbert`` asks for is counted, not stored, when the
braiding is a crossed-set braiding whose blocks, the words graded by the
products of the rack's permutations, fall into conjugation orbits of two
or more blocks: the same elimination runs on one block of each orbit and
weighs its rank by the orbit's size (``hilbert`` says why that is exact).
The rack is the table that ``pairs.crossed_set`` reads off the braiding,
and the orbits are those of ``groups.orbits``.
Nothing reads the basis of that degree there, and a later reader computes
it in full.

Before any of that, ``hilbert`` splits a decomposable pair.  When
c_(W,V) c_(V,W) = id on V (x) W, B(V (+) W) is B(V) (x) B(W) as graded
spaces, so the blocks of ``pairs.find_decomposition`` that c^2 links,
grouped by ``groups.orbits`` into components, each run the engine on a
pair of their own (``pairs.restrict``), at their own conductor, and the
series multiply (``hilbert`` cites the theorem and says how the product
is truncated).  Only ``hilbert`` splits: the relations, kernels and bases
of a pair are computed on the whole pair.

The engine computes in one field, ``scalars.field(m)`` at
m = ``bp.conductor``, into which the braiding is embedded once.  Every
basis, map, tensor vector, kernel and relation row inside holds
that field's bare values (plain ints at conductor 1 while they stay
integral, flat integer tuples above), every operation on them is one of
the field's functions, and only what a public function returns is
converted back to ``Cyc``.  What the engine keeps of a degree, computed or
read on request, is one record (``GradedComputation`` lists its fields
and their lifetimes).

Tensor coordinates of the basis are built only on request
(``degree_basis``), from u = sum_y d_y(u) (x) x_y.  Symmetrizer kernels
need none: each word f of degree n that is not normal gives the kernel
vector k_f = e_f - NF_n(f), with NF_n(f) its normal form under the rules,
which lies on greater normal words.  These d^n - b_n vectors are the
reduced echelon basis of K_n with least-key pivots, its Groebner normal
form (``kernel_basis``, whose output is d^n words wide anyway).

Relations are counted and built in the same word coordinates, from the
rules alone.  The ideal I generated below degree n holds every word with
a lower leading factor, so what it leaves of J_n lies on the b_n + k
candidate words, and there I is spanned by the overlaps of the lower
rules, k_f . t - h . k_g for h g = f t, rewritten by those rules
(Bergman's Diamond Lemma, Adv. Math. 29, 1978).  With Z their span, there
are r_n = k - rank Z new relations (``relation_count``), and the k_f of
degree n modulo Z are their basis (``relations``).  A degree with no new
leading word has no new relation.
"""

from collections import namedtuple
from time import perf_counter

from .braids import apply_elt, perm_inv, perm_mul, sweep, t_shuffle
from .groups import orbits
from .linalg import Echelon, decode_word, vec_add_into
from .scalars import MINUS_ONE, ONE, field as _field
from . import pairs as _pairs
from . import rank2 as _rank2


class HilbertResult:
    """Graded dimensions up to a cutoff, and the total when a zero
    component certified finiteness (else None)."""

    __slots__ = ("dims", "total")

    def __init__(self, dims, total):
        self.dims = dims
        self.total = total

    @property
    def finite(self):
        return self.total is not None

    def __repr__(self):
        return f"HilbertResult(dims={self.dims}, total={self.total}, finite={self.finite})"


class DegreeStats(namedtuple(
        "DegreeStats", "degree candidates rank nonzeros columns seconds")):
    """What computing one degree cost: the candidate words inserted, the
    rank they reached, the nonzeros of the rows as inserted, the right
    multiplication columns R_k(v) built for their Phi-vectors and the
    seconds taken (degree 0 is given, not computed, and costs nothing)."""

    __slots__ = ()


def _export(vec, field):
    """A sparse vector of values of ``field`` as Cyc values, for the
    caller."""
    to_cyc = field.to_cyc
    return {k: to_cyc(c) for k, c in vec.items()}


def _kernel_vector(f, tail, field):
    """The kernel vector k_f = e_f - sum tail[p] e_p of the word f with the
    normal form tail, a new dict of values of ``field``."""
    neg = field.neg
    vec = {p: neg(c) for p, c in tail.items()}
    vec[f] = field.one
    return vec


class _Degree:
    """What the engine keeps of one degree: its echelon, the Phi-vectors
    of its normal words, its rules, its cost, its memo of reduced words,
    and, once asked for, its tensor rows and its relation basis
    (``GradedComputation`` says who writes and reads each field)."""

    __slots__ = ("ech", "phis", "rules", "stats", "reduced", "tensor",
                 "relations")

    def __init__(self, ech, phis, rules, stats, tensor=None):
        self.ech = ech
        self.phis = phis
        self.rules = rules
        self.stats = stats
        self.reduced = {}
        self.tensor = tensor
        self.relations = None


class GradedComputation:
    """Per-degree bases of the graded components in derivation
    coordinates, the images pi(w) of the normal words w, with the rewriting
    rules of the new leading words that the same elimination gives, and
    what is read off them on request: words rewritten by the rules, tensor
    coordinates and relation bases.

    Everything kept of degree n is one record, ``_degrees[n]``, read
    through ``_degree(n)``, which computes the degrees up to n.  Its fields:
    - ``ech``, the ``Echelon`` of the Phi-vectors of the candidates:
      written by ``_extend``, read by ``basis``, ``dim`` and ``bases``; a
      later degree reads only its rank, to stop past a zero component.
    - ``phis``, {w: Phi-vector} over the normal words w: written by
      ``_extend``; degree n+1 reads the vectors (``_extend``) and the
      tensor rows read them on request, while every later degree reads the
      keys (``_candidate_words``, ``_reduce``, ``_block_orbits``).
    - ``rules``, {f: tail} over the new leading words f: written by
      ``_extend``, read by ``_normal_form`` of degree n, ``kernel_basis``,
      ``relations`` and ``new_leading_words``; every later degree reads
      them, through ``_reduce`` and ``_overlap_span``.
    - ``stats``, the ``DegreeStats`` of degree n: written by ``_extend``,
      read through ``stats``; no later degree reads it.
    - ``reduced``, {w: vector on the candidate words of degree n}, the
      words rewritten by the rules below n: a memo written and read by
      ``_reduce(n, w)``.  The normal forms of degree n pass through it, and
      so do every later degree's reductions and overlaps.
    - ``tensor``, {w: tensor coordinates of pi(w)}: None until
      ``_tensor_rows(n)`` fills it for ``degree_basis``; degree n+1's
      tensor rows read it.
    - ``relations``, the exported relation basis of degree n: None until
      ``relations`` fills it; no later degree reads it.

    A Phi-vector holds d_y(u) at the key y * d**(n-1) + v of each normal
    word v of degree n-1; its echelon rows are the images as inserted,
    reduced only until their least key is free and not scaled, so they are
    no canonical form (``degree_basis`` is).  A normal word whose
    Phi-vector leads with a free key has that Phi-vector itself, the same
    dict, as its row for good.  The columns R_k(v) of the right
    multiplications into degree n-1, which the Phi-vectors of degree n are
    made with, and the multipliers of the elimination are locals of
    ``_extend``: a column is made the first time a Phi-vector of degree n
    reads it, and all are dropped when the degree is done, so none is kept
    between degrees (``stats[n].columns`` counts them).  No degree past a
    zero component is computed or stored: it has no candidate word, and
    ``_degree`` answers it with a new empty record.

    ``hilbert(bp, N, cache)`` leaves the cache with a record of every
    degree below N, and of degree N too unless it counted that degree by
    block orbits (``hilbert`` says when and why that is exact), which
    appends no record; a later ``basis(N)``, ``relations`` or
    ``new_leading_words`` then computes degree N in full.  For a pair it
    splits into components, ``hilbert`` leaves the cache untouched.

    Every scalar inside is a bare value of ``field``, Q(zeta_m) at
    m = ``bp.conductor`` (``scalars.field``), into which the braiding is
    embedded once, as the matrix C grouped by the last letter of the
    candidates (``_by_last``), and every operation on one goes through
    ``field``'s functions: the bases are ``Echelon(field)`` and the sums
    ``vec_add_into(..., field)``.  What the public functions return is
    converted back to ``Cyc``.  No kernel is cached: the rules and the
    memo of reduced words give one on request (``kernel_basis``).

    ``bases`` and ``stats`` are read-only views, a new list of each
    record's ``ech`` and ``stats``; ``stats[n]`` records the cost of degree
    n, ``candidates`` counting the candidate words inserted and ``columns``
    the columns R_k(v) made for their Phi-vectors.  Treat
    instances as single-writer: all public functions taking a cache mutate
    only the one they are given.
    """

    def __init__(self, bp):
        self.bp = bp
        self.field = _field(bp.conductor)
        one = self.field.one
        cmap = bp.embedded(self.field).cmap
        d = bp.dim
        # C grouped by the last letter a of a candidate: the terms
        # (j, k, z, c) of c(x_j (x) x_a) = sum c x_k (x) x_z
        self._by_last = [[(j, kz // d, kz % d, c) for j in range(d)
                          for kz, c in cmap[j * d + a]] for a in range(d)]
        ech0 = Echelon(self.field)
        ech0.insert({0: one})
        # degree 0 is the empty word at key 0, with no derivatives
        self._degrees = [_Degree(ech0, {0: {}}, {},
                                 DegreeStats(0, 0, 1, 1, 0, 0.0),
                                 {0: {0: one}})]

    @property
    def bases(self):
        return [deg.ech for deg in self._degrees]

    @property
    def stats(self):
        return [deg.stats for deg in self._degrees]

    def basis(self, n):
        """Echelon basis of the degree-n component in derivation
        coordinates, ``_degree(n).ech``.  The degrees up to n are computed
        here, whoever asks for them, so ``bench/spans.py`` times them all
        as ``algebra.basis``."""
        while len(self._degrees) <= n and self._degrees[-1].ech.rank:
            self._extend()
        return self._degree(n).ech

    def dim(self, n):
        return self.basis(n).rank

    def _degree(self, n):
        """The record of degree n, computed on demand (through ``basis``).
        Once a computed degree has rank 0, every later degree has no
        candidate word: it is answered with a new empty record (no stats,
        no tensor row) at once, never computed and not stored."""
        if n < 0:
            raise ValueError(f"no component in negative degree {n}")
        degrees = self._degrees
        if n >= len(degrees) and degrees[-1].ech.rank:
            self.basis(n)
        if n < len(degrees):
            return degrees[n]
        return _Degree(Echelon(self.field), {}, {}, None, {})

    def _extend(self, weights=None):
        """Eliminate the images of the candidate words of the next degree n,
        greatest word first, and append its record.  The words whose image
        is independent of the images before are the normal words; each
        other candidate f is a new leading word, its image a combination of
        the images of greater normal words, which the multipliers of the
        elimination give: the rule f -> tail.  The Phi-vector of p a, p a
        normal word and a a letter, comes from that of p by the right
        Leibniz rule: d_z(pi(p) . x_a) = [z = a] pi(p) + sum_(j,k)
        C[(j,a) -> (k,z)] R_k(d_j pi(p)).  Each column R_k(v) = NF(v k) is
        made the first time a Phi-vector reads it, and lives in a local
        dict by letter until this call returns: a column no candidate reads
        is never made (118 of the 284 of ``v4(-1, 1)`` through degree 10).

        With ``weights``, {w: orbit size} over the candidate words of the
        representative blocks (``_dim_by_orbits``), only those words are
        eliminated, no rule is read and no record is appended: the return
        value is the sum of the weights of the words found normal, dim
        B_n."""
        t0 = perf_counter()
        n = len(self._degrees)
        d = self.bp.dim
        field = self.field
        one, mul = field.one, field.mul
        by_last = self._by_last
        phis = self._degrees[-1].phis
        # the right multiplications R_k: B_(n-2) -> B_(n-1), {v: NF(v k)}
        # by letter k, each column made the first time a Phi-vector reads
        # it; degree 1 reads none, its prefix being the empty word
        right = [{} for _ in range(d)]
        shift = d ** (n - 1)
        # d_j(p) of a normal word p of degree n-1 sits at j * d**(n-2) + v
        inner = shift // d
        words = (self._candidate_words(n) if weights is None
                 else sorted(weights))
        ech = Echelon(field)
        # the Phi-vectors of the normal words, the rules, and the word
        # whose image was inserted at each pivot
        normal, rules, word_at = {}, {}, {}
        prefix = None
        for w in reversed(words):
            p, a = divmod(w, d)
            if p != prefix:
                # the candidates p a, a = d-1, ..., 0, share d_j pi(p) by
                # letter j
                prefix = p
                lower = {}
                for key, s in phis[p].items():
                    j, v = divmod(key, inner)
                    lower.setdefault(j, {})[v] = s
            parts = {a: {p: one}}
            for j, k, z, c in by_last[a]:
                low = lower.get(j)
                if low is None:
                    continue
                part = parts.setdefault(z, {})
                cols = right[k]
                for v, s in low.items():
                    col = cols.get(v)
                    if col is None:
                        col = cols[v] = self._normal_form(n - 1, v * d + k)
                    vec_add_into(part, col, mul(c, s), field)
            vec = {z * shift + u: s for z, part in parts.items()
                   for u, s in part.items()}
            steps = {} if weights is None else None
            q = ech.insert(vec, steps)
            if q is not None:
                normal[w] = vec
                word_at[q] = w
            elif steps is not None:
                rules[w] = {word_at[r]: c
                            for r, c in ech.combination(steps).items()}
        if weights is not None:
            return sum(weights[w] for w in normal)
        ech.record.clear()
        nonzeros = sum(len(r) for r in ech.rows.values())
        columns = sum(map(len, right))
        self._degrees.append(_Degree(ech, normal, rules, DegreeStats(
            n, len(words), ech.rank, nonzeros, columns,
            perf_counter() - t0)))

    def _block_orbits(self, n):
        """The candidate words of degree n by block, the blocks grouped
        into conjugation orbits: a list of orbits, each a list of
        (block, words), a block the permutation phi_(a_1) ... phi_(a_n) of
        the letters as a tuple, words its candidate words in increasing
        order (none for a block that only conjugation reaches).  None when
        the braiding is no crossed-set braiding c(x_i (x) x_j) =
        f(i, j) x_(i |> j) (x) x_i (``pairs.crossed_set``, whose table
        gives phi_i = i |> -), or its rack is trivial (one block).  The
        orbits are those of ``groups.orbits`` from the blocks with
        candidate words in increasing order, so the order of the orbits and
        of the blocks in each is fixed.  Degree n-1 must be computed."""
        shape = _pairs.crossed_set(self.bp)
        if shape is None:
            return None
        phi = shape[0]
        d = self.bp.dim
        ident = tuple(range(d))
        if all(p == ident for p in phi):
            return None
        # the block of a word is that of its prefix composed with phi of
        # its last letter; the prefix of a normal word is normal
        blocks = {0: ident}
        for deg in self._degrees[1:n]:
            blocks = {w: perm_mul(blocks[w // d], phi[w % d])
                      for w in deg.phis}
        words = {}
        for w in self._candidate_words(n):
            words.setdefault(perm_mul(blocks[w // d], phi[w % d]),
                             []).append(w)
        # g_i maps the block g to phi_i g phi_i^-1
        conj = [(p, perm_inv(p)) for p in phi]
        return [[(g, words.get(g, [])) for g in orbit]
                for orbit in orbits(sorted(words), lambda g: (
                    perm_mul(perm_mul(p, g), q) for p, q in conj))]

    def _dim_by_orbits(self, n):
        """dim B_n, counted by block orbits when degree n is the next to
        compute and some orbit holds two or more blocks with candidate
        words (``_block_orbits``); otherwise ``dim(n)``, which computes and
        stores the degree.  The count appends no record of degree n: it
        eliminates, in each orbit, the candidates of the block with the
        fewest, and weighs each normal word found by the size of its orbit
        (``_extend``).  A block without candidates has dimension 0, and so
        has its orbit.  ``hilbert`` gives the reason it is exact."""
        if len(self._degrees) != n or not self._degrees[-1].ech.rank:
            return self.dim(n)
        orbits = self._block_orbits(n)
        if orbits is None or all(
                sum(1 for _, words in orbit if words) < 2
                for orbit in orbits):
            return self.dim(n)
        weights = {}
        for orbit in orbits:
            least = min((words for _, words in orbit), key=len)
            weights.update(dict.fromkeys(least, len(orbit)))
        return self._extend(weights) if weights else 0

    def _tensor_rows(self, n):
        """The images of the normal words of degree n in tensor
        coordinates, in the field, from u = sum_y d_y(u) (x) x_y, filled in
        the records of degrees 1..n on first request, lowest degree first
        (none past a zero component)."""
        deg = self._degree(n)
        if deg.tensor is None:
            d, field = self.bp.dim, self.field
            for k in range(1, n + 1):
                rec, low = self._degrees[k], self._degrees[k - 1].tensor
                if rec.tensor is not None:
                    continue
                shift = d ** (k - 1)
                rec.tensor = {}
                for w, phi in rec.phis.items():
                    vec = rec.tensor[w] = {}
                    for key, s in phi.items():
                        y, c = divmod(key, shift)
                        tail = {u * d + y: t for u, t in low[c].items()}
                        vec_add_into(vec, tail, s, field)
        return deg.tensor

    def transposed(self):
        """A new computation of the transposed pair.  No function of the
        package reads it; it is kept only for the relations item of the
        benchmark panel (``bench/panel.py``), which reads its ``bases``,
        until ROADMAP item 1 drops that call."""
        return GradedComputation(_pairs.transpose(self.bp))

    def _candidate_words(self, n):
        """The keys of the degree-n words whose prefix and suffix of length
        n-1 are normal, in increasing order: the normal words and the new
        leading words of degree n.  Degree n-1 must be computed.

        Those are all the words that ``_extend`` needs: a word f leads a
        vector of the symmetrizer kernel K_n iff pi(f) is a combination of
        the pi(w) of greater words w, and the leading words are closed
        under extension, so every normal word is a candidate."""
        d, shift = self.bp.dim, self.bp.dim ** (n - 1)
        low = self._degrees[n - 1].phis
        return [w for p in sorted(low) for w in range(p * d, p * d + d)
                if w % shift in low]

    def _reduce(self, n, w):
        """The degree-n word at key w rewritten by the rules of the degrees
        below n, as a vector on the candidate words of degree n, memoized
        in the record's ``reduced``.  Degrees n-1 and n must be computed:
        their records are read directly, with no guard.

        A word that is no candidate has a prefix or a suffix of length n-1
        that is not normal; that factor is replaced by its normal form.
        Each rule replaces a word by greater words of its degree, so the
        keys rise and the recursion ends."""
        memo = self._degrees[n].reduced
        got = memo.get(w)
        if got is None:
            d, shift = self.bp.dim, self.bp.dim ** (n - 1)
            field = self.field
            low = self._degrees[n - 1].phis
            head, last = divmod(w, d)
            first, tail = divmod(w, shift)
            if head not in low:
                got = {}
                for q, c in self._normal_form(n - 1, head).items():
                    vec_add_into(got, self._reduce(n, q * d + last), c,
                                 field)
            elif tail not in low:
                got = {}
                for q, c in self._normal_form(n - 1, tail).items():
                    vec_add_into(got, self._reduce(n, first * shift + q), c,
                                 field)
            else:
                got = {w: field.one}
            memo[w] = got
        return got

    def _normal_form(self, n, w):
        """The degree-n word at key w rewritten by the rules of the degrees
        up to n: a vector on the normal words, unique since those rules
        hold every leading word of K_n.  A candidate word is read off the
        rules directly; the vector returned may be a rule's own tail, not
        to be changed.  Degree n must be computed: its record is read
        directly, with no guard (the callers reach it through
        ``_degree``)."""
        deg = self._degrees[n]
        if w in deg.phis:
            return {w: self.field.one}
        rules = deg.rules
        got = rules.get(w)
        if got is not None:
            return got
        one, field = self.field.one, self.field
        out = {}
        for q, c in self._reduce(n, w).items():
            vec_add_into(out, rules.get(q, {q: one}), c, field)
        return out


def _computation(bp, cache):
    """``cache``, or a new computation of ``bp`` when it is None.  A cache
    given must compute ``bp`` or a pair of the same dimension and cmap,
    else ValueError: another pair's records would give its answers.  The
    cache of ``bp`` itself passes on the identity test alone."""
    if cache is None:
        return GradedComputation(bp)
    other = cache.bp
    if other is not bp and (other.dim != bp.dim or other.cmap != bp.cmap):
        raise ValueError(f"the cache computes {other!r}, not {bp!r}")
    return cache


def degree_basis(bp, n, cache=None):
    """Canonical reduced-echelon basis of the degree-n component in tensor
    coordinates, as a list of sparse vectors in increasing pivot order."""
    cache = _computation(bp, cache)
    ech = Echelon(cache.field)
    for vec in cache._tensor_rows(n).values():
        ech.insert(vec)
    return [_export(row, cache.field) for row in ech.rref().sorted_rows()]


def _components(bp):
    """The letters of ``bp`` as the connected components of the graph on
    the blocks of ``pairs.find_decomposition`` with an edge between two
    blocks whenever c^2 is not the identity on their tensor product
    (``pairs.cross_square_is_identity``; c_(W,V) c_(V,W) = id makes
    c_(V,W) c_(W,V) = id too, so the edges are symmetric), each component
    a sorted list of letters, listed by ``groups.orbits``."""
    blocks = _pairs.find_decomposition(bp)
    links = [[] for _ in blocks]
    for a in range(len(blocks)):
        for b in range(a + 1, len(blocks)):
            if not _pairs.cross_square_is_identity(bp, blocks[a], blocks[b]):
                links[a].append(b)
                links[b].append(a)
    return [sorted(x for k in orbit for x in blocks[k])
            for orbit in orbits(range(len(blocks)), links.__getitem__)]


def _dims(cache, max_degree):
    """The graded dimensions of ``cache``'s pair through the first zero or
    max_degree, the last degree counted by block orbits (``hilbert``)."""
    dims = []
    for n in range(max_degree + 1):
        dims.append(cache._dim_by_orbits(n) if n == max_degree
                    else cache.dim(n))
        if dims[-1] == 0:
            break
    return dims


def _truncated_product(a, b, max_degree):
    """The coefficients of the product of two series given as ``_dims``
    gives them, through its first zero or max_degree.  A series ending in
    zero is a polynomial; one that does not is known through max_degree,
    which is all the product reads of it there."""
    out = []
    for n in range(max_degree + 1):
        out.append(sum(a[i] * b[n - i]
                       for i in range(max(0, n - len(b) + 1),
                                      min(n, len(a) - 1) + 1)))
        if out[-1] == 0:
            break
    return out


def hilbert(bp, max_degree, cache=None):
    """Graded dimensions up to max_degree.

    Stops at the first zero dimension, which certifies finiteness (the
    algebra is generated in degree one, so every higher component also
    vanishes); without a zero the verdict at the cutoff stays unknown.

    A decomposable pair is computed as a product.  If c_(W,V) c_(V,W) = id
    on V (x) W, then B(V (+) W) is isomorphic to B(V) (x) B(W) as graded
    spaces, so their Hilbert series multiply (Grana, A freeness theorem
    for Nichols algebras, J. Algebra 231, 2000; Andruskiewitsch-
    Heckenberger-Schneider, The Nichols algebra of a semisimple
    Yetter-Drinfeld module, Amer. J. Math. 132, 2010).  The pair is split
    into the connected components of the graph on the blocks of
    ``pairs.find_decomposition`` linked where c^2 is not the identity on
    block (x) block (``pairs.cross_square_is_identity``, grouped by
    ``groups.orbits``).  When there are two or more, each component runs
    the engine loop below, last-degree orbit count included, on a new
    computation of its ``pairs.restrict``ed pair to max_degree, and the
    result is the product of their series truncated at max_degree.  That
    is exact.  The product's coefficients through max_degree read only the
    components' coefficients through max_degree.  A component's series is
    positive from degree 0 through its top degree and zero above it, so
    the product is finite iff every component is, and its first zero lies
    at the sum of their top degrees plus one.  ``dims`` runs through that
    zero, and ``total`` is set, only when the zero is at most max_degree;
    otherwise ``dims`` holds the max_degree + 1 coefficients and ``total``
    is None, as for the whole pair.  ``cache`` is left untouched then, so
    a later ``basis(n)`` on it computes degree n in full.

    A pair with one component runs on ``cache`` (a new computation when
    None), as follows.

    The last degree N is counted by block orbits when the braiding is a
    crossed-set braiding c(x_i (x) x_j) = f(i, j) x_(i |> j) (x) x_i
    (``pairs.crossed_set`` returns its table) and some conjugation orbit
    of its blocks (``groups.orbits``, through
    ``GradedComputation._block_orbits``) holds two or more blocks with
    candidate words: dim B_N is the sum over the orbits of the orbit's
    size times the rank of one block of it.  This is exact.
    - The grading: a word x_(a_1) ... x_(a_n) lies in the block
      phi_(a_1) ... phi_(a_n), with phi_i = i |> -.  The braiding keeps
      it, as phi_i phi_j = phi_(i |> j) phi_i, so the symmetrizer and its
      kernel K_N split by block, and the Phi-vectors of different blocks
      have disjoint supports.  Every normal word is a candidate, so the
      rank of a block's candidates is the dimension of its part of B_N.
    - The group-likes: each g_i: x_j -> f(i, j) x_(i |> j) is a braided
      automorphism, by the cocycle identity f(i, j |> k) f(j, k) =
      f(i |> j, i |> k) f(i, k) that the braid equation gives (pair
      validation checks it).  So g_i maps K_N onto K_N, and the block g
      onto phi_i g phi_i^-1: the blocks of one orbit have one dimension.
    Degree N then gets no record in ``cache``, and every degree below N
    does (see ``GradedComputation``).  Diagonal braidings (a trivial rack, one
    block), braidings of any other shape, and a rack whose every orbit
    holds at most one block with candidates, store degree N as every
    other degree.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be nonnegative, got {max_degree}")
    if cache is not None:
        _computation(bp, cache)
    parts = _components(bp)
    if len(parts) > 1:
        dims = [1]
        for part in parts:
            dims = _truncated_product(dims, _dims(GradedComputation(
                _pairs.restrict(bp, part)), max_degree), max_degree)
    else:
        dims = _dims(cache or GradedComputation(bp), max_degree)
    return HilbertResult(dims, sum(dims) if dims[-1] == 0 else None)


def kernel_basis(bp, n, cache=None):
    """Exact basis of the kernel K_n of the degree-n symmetrizer on the
    tensor power, in increasing order of leading word: k_f = e_f - NF_n(f)
    for each word f of degree n that is not normal, NF_n(f) its normal
    form under the rules (``GradedComputation._normal_form``).

    NF_n(f) lies on normal words greater than f, so k_f leads with f and
    no other k_f mentions f: this is the reduced echelon basis of K_n with
    least-key pivots, which is unique (the Groebner normal form; Bergman,
    Adv. Math. 29, 1978).  A degree with no normal word, a zero component
    or one past it, has K_n = T_n, and its basis is the d^n unit vectors.
    """
    cache = _computation(bp, cache)
    normal = cache._degree(n).phis
    field = cache.field
    return [_export(_kernel_vector(
                f, cache._normal_form(n, f) if normal else {}, field), field)
            for f in range(bp.dim ** n) if f not in normal]


def relation_count(bp, n, cache=None):
    """r_n, the number of new minimal relations in degree n, counted in
    word coordinates by overlap completion: the size of the basis that
    ``relations`` builds, and caches, with the overlap span of the degree.

    The ideal I generated below degree n holds every degree-n word with a
    lower leading factor, so it has codimension at most the number b_n + k
    of candidate words, the b_n normal words and the k new leading words.
    What I holds on the candidate words is the span Z of the reduced
    overlaps (``_overlap_span``), so I has codimension b_n + k - rank Z
    and r_n = k - rank Z.  A degree with no new leading word (k = 0) has
    no new relation, and no overlap is read.
    """
    return len(relations(bp, n, cache))


def _overlap_span(cache, n):
    """Echelon basis of Z, the span of the degree-n overlaps of the rules
    of lower degrees, each reduced to the candidate words of degree n.

    The rules f -> tail of the new leading words, k_f = e_f - sum tail[p]
    e_p over all degrees below n, form the reduced Groebner basis of the
    ideal I generated below n; no leading word contains another, so the
    overlaps are the only ambiguities.  A rule f of degree a and a rule g
    of degree b overlap in length s, 1 <= s < min(a, b), when the last s
    letters of f are the first s of g; with h = f // d^s the head of f
    and t = g mod d^(b-s) the tail of g, the word h g = f t of degree
    a + b - s reduces two ways, and S = k_f . t - h . k_g is their
    difference.  By Bergman's Diamond Lemma (Adv. Math. 29, 1978), the
    degree-n part of I on the candidate words is spanned by these S,
    reduced (``GradedComputation._reduce``), since every ambiguity of
    lower degree resolves: the rules hold every leading word below n.
    """
    d = cache.bp.dim
    field = cache.field
    # the rules by degree: degree n is computed, so every degree below is
    rules = [deg.rules for deg in cache._degrees[:n]]
    vecs = []
    for a in range(2, n):
        for s in range(1, a):
            b = n - a + s
            cut, overlap, width = d ** (b - s), d ** s, d ** b
            # the rules of degree b by their first s letters
            starts = {}
            for g in rules[b]:
                starts.setdefault(g // cut, []).append(g)
            for f, tail in rules[a].items():
                head = f // overlap * width
                for g in starts.get(f % overlap, ()):
                    t = g % cut
                    vec = {}
                    for q, c in rules[b][g].items():
                        vec_add_into(vec, cache._reduce(n, head + q), c,
                                     field)
                    for p, c in tail.items():
                        vec_add_into(vec, cache._reduce(n, p * cut + t),
                                     field.neg(c), field)
                    if vec:
                        vecs.append(vec)
    span = Echelon(field)
    # sparsest first, as in ``_extend``
    for vec in sorted(vecs, key=len):
        span.insert(vec)
    return span


def relations(bp, n, cache=None):
    """Canonical echelon basis of the new degree-n relations: the part of
    the symmetrizer kernel K_n on the words that lead nothing in the ideal
    I = V . K_(n-1) + K_(n-1) . V generated below degree n.

    A degree without new leading words has none, and no overlap is read.
    Otherwise the relations lie on the candidate words, the b_n normal
    words and the k new leading words: the part of K_n there has the basis
    k_f = e_f - sum tail[p] e_p, one for each rule f -> tail of degree n,
    and the part of I there is the span Z of the reduced overlaps
    (``_overlap_span``), inside it.  The k_f reduced modulo Z, in reduced
    echelon form, are the basis, and its size must equal the count
    k - rank Z (``relation_count``; a mismatch, such as a Z outside the
    k_f, raises, signalling an engine bug).  The basis is cached in the
    record of degree n, so its span is built once; past a zero component
    the record is not stored, and nothing is kept.
    """
    if n < 2:
        raise ValueError("relations start in degree two")
    cache = _computation(bp, cache)
    deg = cache._degree(n)
    if deg.relations is None:
        rules = deg.rules
        field = cache.field
        rows = []
        if rules:
            span = _overlap_span(cache, n)
            fresh = Echelon(field)
            for f, tail in rules.items():
                residue = span.reduce(_kernel_vector(f, tail, field))
                if residue:
                    fresh.insert(residue)
            rows = fresh.rref().sorted_rows()
            count = len(rules) - span.rank
            if len(rows) != count:
                raise RuntimeError(f"the overlaps leave {len(rows)} relations "
                                   f"in degree {n}, the count gives {count}")
        deg.relations = [_export(row, field) for row in rows]
    return deg.relations


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

    No kernel is built: these are the words of the rewriting rules of
    degree n, the candidate words whose image in B_n is a combination of
    the images of greater words (the ``rules`` of the record of degree n,
    ``GradedComputation._degree``).  The
    leading words of an ideal are closed under extension (u w v leads
    u k v when w leads k), so a leading word of degree n is new iff
    neither of its two factors of length n-1, the prefix and the suffix,
    is a leading word: only the words whose two factors lead nothing are
    eliminated.
    """
    if n < 2:
        raise ValueError("the relation ideal starts in degree two")
    cache = _computation(bp, cache)
    return [decode_word(w, bp.dim, n)
            for w in sorted(cache._degree(n).rules)]


def derivation(bp, y, vec, n):
    """The skew derivation pairing the last tensor slot against the y-th
    dual basis vector, on a degree-n element.  In coalgebra coordinates the
    deconcatenation coproduct makes this a coordinate projection."""
    if n < 1:
        raise ValueError("derivations act on positive degrees")
    _pairs._require_letters(bp, [y])
    d = bp.dim
    # w -> w // d is injective on the words ending in y: nothing accumulates
    return {w // d: c for w, c in vec.items() if w % d == y}


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
    n slots before multiplying.

    One sweep of crossings at slots 1..n moves x_i to the right end: its
    running sum is the product x_i v = T_(1,n)(x_i (x) v), and its last
    result is c(x_i (x) v).  A second sweep of that result at slots n..1
    sums the lifts e, s_n, s_(n-1) s_n, ..., s_1 ... s_n, which is
    T_(n,1), the product in the other order.  So the adjoint costs 2n
    crossing passes.
    """
    _pairs._require_letters(bp, [i])
    d = bp.dim
    pre = {i * d ** n + w: c for w, c in vec.items()}
    left, crossed = sweep(bp.cmap, d, n + 1, pre, range(1, n + 1))
    right = sweep(bp.cmap, d, n + 1, crossed, range(n, 0, -1))[0]
    vec_add_into(left, right, MINUS_ONE)
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
    ``PROBE_DEPTH`` steps, and the result is None.
    """
    q = _pairs.is_diagonal(bp)
    if q is None:
        raise ValueError("nilpotency order formula needs a diagonal pair")
    _pairs._require_letters(bp, [i, j])
    if i == j:
        raise ValueError("need two distinct basis indices")
    formula = _rank2.nilpotency_order_formula(q, i, j)
    limit = PROBE_DEPTH if formula is None else formula
    z = {j: ONE}
    direct = None
    for k in range(1, limit + 1):
        z = adjoint(bp, i, z, k)
        if not z:
            direct = k
            break
    if formula is None:
        if direct is not None:
            raise RuntimeError(
                f"adjoint vanished at step {direct} but the formula says infinite")
        return None
    if direct != formula:
        raise RuntimeError(
            f"direct adjoint iteration gives {direct}, formula gives {formula}")
    return formula
