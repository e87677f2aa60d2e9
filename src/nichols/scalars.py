"""Exact arithmetic in cyclotomic fields, plus q-number combinatorics.

Every scalar the package takes or returns is a ``Cyc``: an element of the
field Q(zeta_m), a residue modulo the m-th cyclotomic polynomial.  Its
coefficient vector has length phi(m) and is stored as a tuple of integers
over a single positive denominator, normalized so the gcd of all entries
and the denominator is 1.  Working modulo the cyclotomic polynomial (not
x^m - 1) keeps the structure a field, so ranks and kernels downstream are
well defined.

``Cyc`` aligns and shrinks; the fields compute.  Values with different
conductors mix freely: ``+``, ``*``, ``inverse`` and ``==`` at two
conductors lift both operands into ``field(l)``, l the lcm of their
conductors, compute there and come back through the field's ``to_cyc``.
A field's values are already in the canonical form (``_value``), so that
takes no gcd: ``_cyc`` wraps the tuple, and is the one place where zero
and rational constants shrink to conductor 1.
``Fraction`` appears only at the boundary (``Cyc(m, coeffs)``, ``.coeffs``
and the coercion of plain numbers).

``field(m)`` is Q(zeta_m) as one object of operations, a ``Field``:
``F.add(a, b)``, ``F.submul(x, a, b)``, ``F.inverse(a)`` and the rest act
on values that are bare data, with both operands at conductor m, so no
operation coerces, aligns conductors or shrinks constants, and none
allocates more than its result.  At conductor 1 a value is a plain
``int`` when integral, else a reduced (num, den) pair, so all-integral
arithmetic stays on single Python integers; at m > 1 it is a flat tuple
(n_0, ..., n_(phi(m)-1), den).  Zero is no value: the operations that can
reach it return None.  A computation inside one field (the graded engine
``algebra.GradedComputation``, or ``braids.verify_identity``) embeds its
data into ``field(m)`` once and converts back to ``Cyc`` only what it
returns; ``CYCLOTOMIC`` is the same interface over ``Cyc`` values, for
code that keeps them.

Every table of a conductor is built once, on first use, and cached:
``_powers(m)`` holds the rows x^e mod Phi_m for e < max(m, 2 phi(m) - 1),
every power any reader needs.  The reduction table ``_table(m)`` is its
sparse view, ``_roots(m)`` reads its first m rows, and the embeddings of
smaller conductors and ``root_of_unity`` index into it.

At m > 1 the operations are generated per conductor from that table and
cached with it, the convolution of a product (``_convolution``) once for
both kernels that read it.  Products go through ``_multiplier(m)``:
straight-line code that skips the zero coefficients of its left operand
and reduces modulo the cyclotomic polynomial with the table's integers
written in.
Elimination's step x - a*b is one operation, ``submul``, fused in
``_submultiplier(m)``: the same convolution, subtracted from x line by
line over a common denominator, reduced to lowest terms once, and not at
all for integral operands.  Sums and negations are generated
coefficient-wise (``_adder`` and ``_negator``; a difference adds the
negation), and ``_inverse`` inverts a rational multiple of a root of
unity directly, anything else through its Galois norm.  A product by a
fixed root of unity or its negative, as in a crossed-set braiding's
crossings, has a shorter form: ``_root_multiplier(m, e)`` rotates and
reduces the coefficients with the table's integers written in and keeps
the denominator (a unit leaves a reduced value reduced, so there is no
gcd); it is generated once per conductor and exponent, and the field's
``scaling(s)`` hands it out.
"""

from fractions import Fraction
from functools import cache, partial
from math import gcd, lcm
from operator import mul as _mul, neg as _neg


# ---------------------------------------------------------------------------
# cyclotomic polynomial tables

def _polydiv_exact(num, den):
    # exact division of integer polynomials, den monic; coeffs low to high
    num = list(num)
    k = len(den) - 1
    out = [0] * (len(num) - k)
    for i in range(len(num) - 1, k - 1, -1):
        c = num[i]
        if c:
            out[i - k] = c
            for j in range(k + 1):
                num[i - k + j] -= c * den[j]
    assert not any(num), "non-exact polynomial division"
    return out


@cache
def cyclotomic(m):
    """Integer coefficients of the m-th cyclotomic polynomial, constant first."""
    if m < 1:
        raise ValueError(f"conductor must be positive, got {m}")
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _polydiv_exact(poly, cyclotomic(d))
    return tuple(poly)


def euler_phi(m):
    return len(cyclotomic(m)) - 1


@cache
def _powers(m):
    """The rows x^e mod Phi_m for e < max(m, 2 phi(m) - 1), as integer
    tuples of length phi(m): the one table of powers of the conductor.
    It holds every power a reader needs: the first m rows are the m-th
    roots of unity, and a product of two values reaches x^(2 phi(m) - 2)."""
    phi = cyclotomic(m)
    k = len(phi) - 1
    rows = [tuple(int(i == e) for i in range(k)) for e in range(k)]
    for _ in range(k, max(m, 2 * k - 1)):
        prev = rows[-1]
        lead = prev[k - 1]
        rows.append(tuple((prev[i - 1] if i else 0) - lead * phi[i]
                          for i in range(k)))
    return tuple(rows)


@cache
def _embedding(m, big):
    """Images of the conductor-m power basis inside conductor ``big``:
    the rows of x^(i big/m), i < phi(m), of ``_powers(big)``."""
    step = big // m
    return _powers(big)[:euler_phi(m) * step:step]


@cache
def _table(m):
    """The sparse view of ``_powers(m)``, which inverses at conductor m
    read and ``_multiplier(m)`` writes into its source: each row as the
    pairs (index, coefficient) of its nonzero entries."""
    return tuple(tuple((i, r) for i, r in enumerate(row) if r)
                 for row in _powers(m))


# ---------------------------------------------------------------------------
# straight-line arithmetic on the values of ``field(m)``, m > 1: flat
# integer tuples (n_0, ..., n_(k-1), den), k = phi(m).  The source is built
# from loop indices and the integers of the reduction tables only, and
# compiled once per conductor (the products by a root of unity once per
# conductor and exponent).

def _compile(name, lines, **names):
    """The function ``name`` defined by the generated source ``lines``,
    which may read the global ``names``."""
    namespace = dict(names)
    exec("\n".join(lines) + "\n", namespace)
    return namespace[name]


def _unpack(name, k):
    # "    a0, a1, ad = a": the coefficients and denominator of value
    # ``name`` as locals
    coeffs = "".join(f"{name}{i}, " for i in range(k))
    return f"    {coeffs}{name}d = {name}"


def _term(r, name):
    # "+ name", "- name" or "+ r * name" for the nonzero integer r
    sign = "+" if r > 0 else "-"
    return f"{sign} {name}" if abs(r) == 1 else f"{sign} {abs(r)} * {name}"


def _lowest(names, den, indent):
    """Lines returning the value (names / den), den > 0, in lowest terms:
    no gcd at all when den is 1."""
    num = ", ".join(names)
    return [f"{indent}if {den} != 1:",
            f"{indent}    g = gcd({den}, {num})",
            f"{indent}    if g != 1:",
            f"{indent}        return ({', '.join(f'{v} // g' for v in names)}"
            f", {den} // g)",
            f"{indent}return ({num}, {den})"]


def _nonzero(names, den):
    """Lines returning (names / den) in lowest terms, or None when every
    coefficient is zero."""
    return ["    if " + " or ".join(names) + ":",
            *_lowest(names, den, "        "), "    return None"]


@cache
def _convolution(m):
    """The product of the unpacked values a and b modulo Phi_m as lines
    of a generated function body and one expression per output
    coefficient: the convolution into locals c0 .. c(2k-2), one block per
    nonzero coefficient of ``a`` (so sparse operands, such as roots of
    unity, skip most of it), and each output coefficient as c_i plus the
    reduction table's integer multiples of the high c_e.  Built once per
    conductor, as two tuples, for ``_multiplier(m)`` and
    ``_submultiplier(m)`` both."""
    k = euler_phi(m)
    lines = [_unpack("a", k), _unpack("b", k),
             "    " + " = ".join(f"c{e}" for e in range(2 * k - 1)) + " = 0"]
    for i in range(k):
        lines.append(f"    if a{i}:")
        # block i writes c(i+k-1) first; block i-1 wrote the others
        for j in range(k):
            op = "=" if not i or j == k - 1 else "+="
            lines.append(f"        c{i + j} {op} a{i} * b{j}")
    out = [[f"c{i}"] for i in range(k)]
    table = _table(m)
    for e in range(k, 2 * k - 1):
        for i, r in table[e]:
            out[i].append(_term(r, f"c{e}"))
    return tuple(lines), tuple(" ".join(t) for t in out)


@cache
def _multiplier(m):
    """The product a * b of values of ``field(m)``, in lowest terms: the
    one product of the package, called by ``field(m)`` and ``_inverse``.
    Straight-line code, generated once per conductor from ``_table(m)``
    (``_convolution``); integral operands skip the gcd."""
    lines, out = _convolution(m)
    names = [f"x{i}" for i in range(len(out))]
    return _compile("product", [
        "def product(a, b):", *lines,
        *(f"    {x} = {t}" for x, t in zip(names, out)),
        "    d = ad * bd", *_lowest(names, "d", "    ")], gcd=gcd)


def _submultiplier(m):
    """The fused step of elimination, x - a * b for values x, a, b of
    ``field(m)``, or None when that is zero.  The same convolution as
    ``_multiplier(m)``, with each output coefficient subtracted from x's in
    its line over the common denominator lcm(xd, ad bd), so the product is
    never built as a value of its own; the result is reduced to lowest
    terms once, and not at all when the three are integral.  Compiled anew
    on each call: ``field(m)``, its one caller, is made once per
    conductor."""
    lines, out = _convolution(m)
    names = [f"y{i}" for i in range(len(out))]
    return _compile("submul", [
        "def submul(x, a, b):", _unpack("x", len(out)), *lines,
        "    e = ad * bd",
        "    if xd == 1 == e:",
        "        fx = fa = 1",
        "    else:",
        "        g = gcd(xd, e)",
        "        fx, fa = e // g, xd // g",
        *(f"    y{i} = x{i} * fx - ({t}) * fa" for i, t in enumerate(out)),
        "    d = xd * fx", *_nonzero(names, "d")], gcd=gcd)


@cache
def _root_multiplier(m, e):
    """The product c * zeta^e (e >= 0) or c * -zeta^(-1 - e) (e < 0, the
    encoding of ``_roots``) of values c of ``field(m)``: the product by a
    root of unity or its negative that a crossing's scalar usually is.
    The product by zeta^0 = 1 is c itself, at every conductor.

    Straight-line code, generated once per (m, e) from ``_table(m)``:
    a_i zeta^i goes to a_i times row (i + e) mod m, so each output
    coefficient is a signed sum of input coefficients with the table's
    integers written in, and nothing is multiplied by a coefficient of the
    root.  The result keeps c's denominator with no gcd: a root of unity is
    a unit of Z[zeta_m], so multiplying by it or by its inverse keeps the
    gcd of the integer coefficients, and a reduced value stays reduced.
    There are at most 2m of them per conductor.
    """
    if not e:
        return _compile("times", ["def times(c):", "    return c"])
    k = euler_phi(m)
    sign, p = (1, e) if e >= 0 else (-1, -1 - e)
    out = [[] for _ in range(k)]
    table = _table(m)
    for i in range(k):
        for j, r in table[(i + p) % m]:
            out[j].append(_term(sign * r, f"a{i}"))
    return _compile("times", [
        "def times(a):", _unpack("a", k),
        "    return (" + "".join((" ".join(t) if t else "0") + ", "
                             for t in out) + "ad)"])


def _adder(k):
    """The sum of values of a field of degree k, as straight-line code
    over the common denominator lcm(ad, bd), in lowest terms, or None
    when zero."""
    return _compile("add", [
        "def add(a, b):", _unpack("a", k), _unpack("b", k),
        "    if ad == bd:",
        "        fa = fb = 1",
        "    else:",
        "        g = gcd(ad, bd)",
        "        fa, fb = bd // g, ad // g",
        *(f"    y{i} = a{i} * fa + b{i} * fb" for i in range(k)),
        "    d = ad * fa", *_nonzero([f"y{i}" for i in range(k)], "d")],
        gcd=gcd)


def _negator(k):
    """The negation of a value of a field of degree k, as straight-line
    code: a reduced value negates to a reduced value."""
    return _compile("neg", [
        "def neg(a):", _unpack("a", k),
        "    return (" + "".join(f"-a{i}, " for i in range(k)) + "ad)"])


@cache
def _roots(m):
    """The exponent e of each m-th root of unity zeta^e, keyed by its
    coefficient vector and by the negated vector (with -1 - e, so that
    -zeta^e is read as -1 times zeta^e)."""
    rows = _powers(m)[:m]
    # for even m, -zeta^e is the root zeta^(e + m/2): the update wins
    roots = {tuple(-v for v in row): -1 - e for e, row in enumerate(rows)}
    roots.update((row, e) for e, row in enumerate(rows))
    return roots


def _value(num, den):
    """The canonical form of num / den, from an integer sequence and a
    nonzero integer: the tuple (*num, den) in lowest terms with den > 0,
    a value of ``field(m)`` at m > 1; None for zero."""
    if den < 0:
        num, den = [-v for v in num], -den
    g = gcd(den, *num)
    if g == den and not any(num):
        return None
    if g != 1:
        return (*(v // g for v in num), den // g)
    return (*num, den)


def _inverse(m, a):
    """The inverse of the nonzero value a of ``field(m)``, m > 1.

    A rational multiple c zeta^e of a root of unity inverts to
    c^-1 zeta^(-e).  Otherwise a * prod_(sigma != 1) sigma(a) = N(a) is
    rational, so the inverse is the product of the other Galois conjugates
    over the norm; sigma_b sends zeta^e to zeta^(b e), read off the
    reduction table.  The conjugates are integral values (den 1), so their
    products take no gcd.
    """
    table = _table(m)
    *num, den = a
    k = len(num)
    g = gcd(*num)
    if not g:
        raise ZeroDivisionError("inverse of zero cyclotomic number")
    e = _roots(m).get(tuple([v // g for v in num]) if g != 1 else tuple(num))
    if e is not None:
        if e < 0:
            e, g = -1 - e, -g
        vec = [0] * k
        for i, r in table[-e % m]:
            vec[i] = den * r
        return _value(vec, g)
    mul = _multiplier(m)
    support = [e for e, v in enumerate(num) if v]
    conj = None
    for b in range(2, m):
        if gcd(b, m) == 1:
            vec = [0] * (k + 1)
            vec[k] = 1
            for e in support:
                v = num[e]
                for i, r in table[b * e % m]:
                    vec[i] += v * r
            conj = tuple(vec) if conj is None else mul(conj, tuple(vec))
    return _value([den * v for v in conj[:k]], mul((*num, 1), conj)[0])


# ---------------------------------------------------------------------------
# the scalar type

def _embed_vec(c, big):
    """Raw integer coefficient vector of c at conductor ``big``, a proper
    multiple of c's (same den)."""
    k = euler_phi(big)
    if c.m == 1:
        out = [0] * k
        out[0] = c.num[0]
        return out
    table = _embedding(c.m, big)
    out = [0] * k
    for v, row in zip(c.num, table):
        if v:
            for i in range(k):
                out[i] += v * row[i]
    return out


def _lift(a, b):
    """``field(l)``, l = lcm(a.m, b.m), and the Cyc values a and b as its
    values (None for zero)."""
    F = field(lcm(a.m, b.m))
    return F, F.from_cyc(a), F.from_cyc(b)


def _normalize(m, num, den):
    """The canonical Cyc num / den at conductor m, num an integer
    sequence: the form of ``_value``, with a constant shrunk to
    conductor 1."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    return _cyc(m, _value(num, den) or (0, 1))


def _cyc(m, a):
    """The Cyc of a = (*num, den), already in the lowest terms of
    ``_value`` at conductor m, with a constant shrunk to conductor 1; no
    gcd is taken."""
    obj = object.__new__(Cyc)
    if any(a[1:-1]):
        obj.m, obj.num = m, a[:-1]
    else:
        # a constant lies in Q
        obj.m, obj.num = 1, a[:1]
    obj.den = a[-1]
    return obj


def _coerce(x):
    if isinstance(x, Cyc):
        return x
    if isinstance(x, int):
        return _normalize(1, [x], 1)
    if isinstance(x, Fraction):
        return _normalize(1, [x.numerator], x.denominator)
    return NotImplemented


def as_scalar(x):
    """x as a Cyc; an int, a Fraction or a Cyc, else a TypeError."""
    c = _coerce(x)
    if c is NotImplemented:
        raise TypeError(f"expected an int, a Fraction or a Cyc, got {x!r}")
    return c


def as_matrix(rows):
    """A matrix given row by row, every entry through ``as_scalar``."""
    return [[as_scalar(v) for v in row] for row in rows]


class Cyc:
    """An exact cyclotomic number: rationals modulo the m-th cyclotomic polynomial."""

    __slots__ = ("m", "num", "den")

    def __init__(self, m, coeffs):
        """Build from a sequence of ints or Fractions of length phi(m)."""
        k = euler_phi(m)
        coeffs = list(coeffs)
        if len(coeffs) != k:
            raise ValueError(f"need {k} coefficients for conductor {m}")
        den = 1
        for c in coeffs:
            if isinstance(c, Fraction):
                den = den * c.denominator // gcd(den, c.denominator)
        num = [int(c * den) if isinstance(c, Fraction) else c * den
               for c in coeffs]
        other = _normalize(m, num, den)
        self.m = other.m
        self.num = other.num
        self.den = other.den

    # -- views ----------------------------------------------------------

    @property
    def conductor(self):
        return self.m

    @property
    def coeffs(self):
        """Coefficient vector as Fractions, length phi(m)."""
        return tuple(Fraction(v, self.den) for v in self.num)

    def is_zero(self):
        return not any(self.num)

    def is_one(self):
        return self.m == 1 and self.den == 1 and self.num[0] == 1

    def __bool__(self):
        return any(self.num)

    def embed(self, big):
        """The same value expressed at conductor ``big`` (m must divide big).

        The result keeps conductor ``big`` even for rational constants, so
        `.key()` of embedded values is canonical at that conductor.
        """
        if big == self.m:
            return self
        if big % self.m:
            raise ValueError(f"{self.m} does not divide {big}")
        out = object.__new__(Cyc)
        out.m = big
        out.num = tuple(_embed_vec(self, big))
        out.den = self.den
        return out

    def key(self):
        """Hashable canonical form at this value's own conductor."""
        return (self.m, self.den, self.num)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        F, a, b = _lift(self, other)
        if a is None or b is None:
            return other if a is None else self
        return F.to_cyc(F.add(a, b))

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(Cyc)
        out.m = self.m
        out.num = tuple(-v for v in self.num)
        out.den = self.den
        return out

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        F, a, b = _lift(self, other)
        if a is None or b is None:
            return -other if a is None else self
        return F.to_cyc(F.sub(a, b))

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        F, a, b = _lift(self, other)
        if a is None or b is None:
            return ZERO
        return F.to_cyc(F.mul(a, b))

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse (the residue ring is a field)."""
        F = field(self.m)
        a = F.from_cyc(self)
        if a is None:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        return F.to_cyc(F.inverse(a))

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.m == other.m:
            return self.den == other.den and self.num == other.num
        _, a, b = _lift(self, other)
        return a == b

    # equal values can carry different conductors, so no reliable hash;
    # use .key() after embedding to a common conductor where one is needed
    __hash__ = None

    def __repr__(self):
        if self.m == 1:
            if self.den == 1:
                return f"Cyc({self.num[0]})"
            return f"Cyc({self.num[0]}/{self.den})"
        parts = []
        for e, v in enumerate(self.num):
            if v:
                frac = f"{v}" if self.den == 1 else f"{v}/{self.den}"
                parts.append(f"{frac}*z{self.m}^{e}")
        return "Cyc(" + " + ".join(parts) + ")"


ZERO = _normalize(1, (0,), 1)
ONE = _normalize(1, (1,), 1)
MINUS_ONE = _normalize(1, (-1,), 1)


def zero():
    return ZERO


def one():
    return ONE


def integer(n):
    """The rational integer n as a Cyc."""
    return _normalize(1, (n,), 1)


def rational(p, q=1):
    return _normalize(1, (p,), q)


def root_of_unity(m, e):
    """zeta_m^e as a Cyc, reduced to a minimal conductor."""
    if m < 1:
        raise ValueError("conductor must be positive")
    g = gcd(e, m)
    m0, p = m // g, e % m // g
    sign = 1
    if m0 % 4 == 2:
        # Q(zeta_{2u}) = Q(zeta_u) for odd u: zeta_{2u} = -zeta_u^{(u+1)/2},
        # and p is odd since gcd(p, m0) = 1 and m0 is even
        u = m0 // 2
        m0, p, sign = u, p * ((u + 1) // 2) % u, -1
    # the row of x^p over the denominator sign, -1 negating it
    return _normalize(m0, _powers(m0)[p], sign)


def order(q):
    """N(q): the multiplicative order of q as an int, or None when it is
    infinite.  Following the convention N(1) = infinity, None is returned
    for q = 1 as well as for 0 and for any q that is not a root of unity."""
    q = _coerce(q)
    if q.is_zero() or q.is_one():
        return None
    # torsion of Q(zeta_m)* is the group of lcm(2, m)-th roots of unity
    bound = q.m if q.m % 2 == 0 else 2 * q.m
    p = q
    for k in range(1, bound + 1):
        if p.is_one():
            return k
        p = p * q
    return None


# ---------------------------------------------------------------------------
# the field of a computation

class Field:
    """The arithmetic of one field on its values, which are bare data: no
    operation coerces, aligns conductors or shrinks constants, and none is
    a method of a value.  A value is never zero: ``add``, ``sub`` and
    ``submul`` return None for a zero result, ``from_cyc`` returns None
    for zero and ``to_cyc`` takes None back to zero.  See ``field``.

    ``add(a, b)``, ``sub(a, b)`` (which adds the negation), ``mul(a, b)``
    and ``neg(a)`` are the arithmetic; ``submul(x, a, b)`` is x - a * b,
    the step of elimination; ``inverse(a)`` is 1 / a; ``is_one(a)`` tests
    for the unit ``one``; ``scaling(s)`` is the function c -> c * s, for a
    factor that scales many values; ``from_cyc`` and ``to_cyc`` convert
    from and to ``Cyc``.
    """

    __slots__ = ("m", "one", "add", "sub", "submul", "mul", "neg",
                 "inverse", "is_one", "scaling", "from_cyc", "to_cyc")

    def __init__(self, m, one, **ops):
        self.m = m
        self.one = one
        for name, op in ops.items():
            setattr(self, name, op)
        add, neg = self.add, self.neg
        self.sub = lambda a, b: add(a, neg(b))

    def __repr__(self):
        return "CYCLOTOMIC" if self.m is None else f"field({self.m})"


@cache
def field(m):
    """The field Q(zeta_m) in which a computation at conductor m does its
    arithmetic, as a ``Field``: one object of operations per conductor,
    whose values are plain data.

    At m = 1 a value is a plain ``int`` when it is integral, else a
    reduced pair (num, den) with den > 1, so all-integral arithmetic is
    one integer operation behind a type test.  At m > 1 it is a flat
    integer tuple (n_0, ..., n_(phi(m)-1), den): the coefficients in the
    power basis modulo the m-th cyclotomic polynomial over one positive
    denominator, gcd-normalized, as in ``Cyc``.  Canonical forms make
    ``==`` on values the field's equality.  ``from_cyc`` embeds a ``Cyc``
    whose conductor divides m.

    At m > 1 the operations are the generated code of the conductor:
    products through ``_multiplier(m)``, the fused x - a*b through
    ``_submultiplier(m)``, which computes fx x - fa (a*b) with fx, fa the
    cofactors of gcd(xd, ad bd) (both 1, and no reduction, when all three
    are integral), sums through ``_adder``, negations through
    ``_negator``, inverses through ``_inverse``, and ``scaling(s)``
    through ``_root_multiplier`` when s is a root of unity or its
    negative.  ``Cyc`` computes in these
    fields too, at the lcm of its operands' conductors.

    The field is made once per conductor and holds no values computed
    with it.  Making it compiles its generated code: 0.9-1.8 ms for
    3 <= m <= 12 and 5-8 ms at m = 60, of which the product and the fused
    kernel take about 3 ms each there (fresh processes, Python 3.11, x86);
    ``field(1)`` compiles nothing.
    """
    return _rationals() if m == 1 else _cyclotomic_field(m)


def _q(num, den):
    """The value num / den (den > 0) of ``field(1)``; None for zero."""
    if den != 1:
        g = gcd(num, den)
        if g == den:
            return num // g or None
        if g != 1:
            return num // g, den // g
        return num, den
    return num or None


def _rationals():
    """``field(1)``: ints and reduced (num, den) pairs; see ``field``.  The
    operations test for ints first and unpack a pair in line, since
    elimination calls them millions of times."""

    def add(a, b):
        if type(a) is int and type(b) is int:
            return a + b or None
        an, ad = (a, 1) if type(a) is int else a
        bn, bd = (b, 1) if type(b) is int else b
        return _q(an * bd + bn * ad, ad * bd)

    def submul(x, a, b):
        if type(x) is int:
            if type(a) is int and type(b) is int:
                return x - a * b or None
            xn, xd = x, 1
        else:
            xn, xd = x
        an, ad = (a, 1) if type(a) is int else a
        bn, bd = (b, 1) if type(b) is int else b
        den = ad * bd
        if den == xd:
            return _q(xn - an * bn, den)
        g = gcd(xd, den)
        fx = den // g
        return _q(xn * fx - an * bn * (xd // g), xd * fx)

    def mul(a, b):
        if type(a) is int and type(b) is int:
            return a * b
        an, ad = (a, 1) if type(a) is int else a
        bn, bd = (b, 1) if type(b) is int else b
        return _q(an * bn, ad * bd)

    def neg(a):
        return -a if type(a) is int else (-a[0], a[1])

    def inverse(a):
        num, den = (a, 1) if type(a) is int else a
        if num < 0:
            num, den = -num, -den
        return _q(den, num)

    def is_one(a):
        return a == 1

    def scaling(s):
        if s == 1:
            return _root_multiplier(1, 0)
        return neg if s == -1 else partial(mul, s)

    def from_cyc(c):
        if c.m != 1:
            raise ValueError(f"{c!r} is not rational")
        return _q(c.num[0], c.den)

    def to_cyc(a):
        if a is None:
            return ZERO
        return _cyc(1, (a, 1) if type(a) is int else a)

    return Field(1, 1, add=add, submul=submul, mul=mul, neg=neg,
                 inverse=inverse, is_one=is_one, scaling=scaling,
                 from_cyc=from_cyc, to_cyc=to_cyc)


def _cyclotomic_field(m):
    """``field(m)`` for m > 1: flat tuples; see ``field``."""
    k = euler_phi(m)
    mul = _multiplier(m)
    add = _adder(k)
    neg = _negator(k)
    unit = (1,) + (0,) * (k - 1) + (1,)
    roots = _roots(m)

    def inverse(a):
        return _inverse(m, a)

    def scaling(s):
        e = roots.get(s[:-1]) if s[-1] == 1 else None
        return partial(mul, s) if e is None else _root_multiplier(m, e)

    def from_cyc(c):
        if c.m == m:
            # zero is at conductor 1 unless ``Cyc.embed`` put it here
            return (*c.num, c.den) if any(c.num) else None
        if m % c.m:
            raise ValueError(f"{c!r} does not lie in Q(zeta_{m})")
        return _value(_embed_vec(c, m), c.den)

    def to_cyc(a):
        return ZERO if a is None else _cyc(m, a)

    return Field(m, unit, add=add, submul=_submultiplier(m),
                 mul=mul, neg=neg, inverse=inverse, is_one=unit.__eq__,
                 scaling=scaling, from_cyc=from_cyc, to_cyc=to_cyc)


# the same interface over Cyc values of any conductor, for the callers
# whose vectors hold Cyc: the sums of braid words and the public
# ``linalg`` functions on Cyc vectors
CYCLOTOMIC = Field(
    None, ONE,
    add=lambda a, b: a + b or None,
    submul=lambda x, a, b: x - a * b or None, mul=_mul, neg=_neg,
    inverse=lambda a: a.inverse(), is_one=lambda a: a.is_one(),
    scaling=lambda s: s.__mul__, from_cyc=lambda c: c or None,
    to_cyc=lambda c: ZERO if c is None else c)


# ---------------------------------------------------------------------------
# q-numbers, evaluated from integer polynomials (they all lie in Z[q])

def gaussian_poly(n, m):
    """The Gaussian binomial (n choose m)_q as an integer polynomial in q."""
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    return list(_gaussian(n, m))


@cache
def _gaussian(n, m):
    # the coefficients of (n choose m)_q as a tuple, 0 <= m <= n, with no
    # recursion: row k of the q-Pascal table, C(k,0) = C(k,k) = 1 and
    # C(k,j) = C(k-1,j-1) + q^j C(k-1,j), is filled from row k-1 for j <= m
    row = [(1,)]
    for k in range(1, n + 1):
        nxt = [(1,)]
        for j in range(1, min(k - 1, m) + 1):
            left, right = row[j - 1], row[j]
            poly = list(left) + [0] * (j + len(right) - len(left))
            for i, v in enumerate(right):
                poly[j + i] += v
            nxt.append(tuple(poly))
        if k <= m:
            nxt.append((1,))
        row = nxt
    return row[m]


def _eval_poly(poly, q):
    acc = ZERO
    for c in reversed(poly):
        acc = acc * q + c
    return acc


def q_number(n, q):
    """(n)_q = 1 + q + ... + q^(n-1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _eval_poly([1] * n, _coerce(q))


def q_factorial(n, q):
    """(n)_q! = (1)_q (2)_q ... (n)_q."""
    q = _coerce(q)
    out = ONE
    for i in range(1, n + 1):
        out = out * q_number(i, q)
    return out


def q_binomial(n, m, q):
    """Gaussian binomial evaluated at q, via the integer polynomial expansion."""
    return _eval_poly(gaussian_poly(n, m), _coerce(q))


# ---------------------------------------------------------------------------
# text form: sums of (num, den, exp) terms meaning (num/den) * zeta_m^exp

def to_terms(c):
    """Nonzero terms of c as (num, den, exp) triples over the power basis,
    each num/den in lowest terms with den > 0."""
    out = []
    for e, v in enumerate(c.num):
        if v:
            g = gcd(v, c.den)
            out.append((v // g, c.den // g, e))
    return out


def from_terms(m, terms):
    """Rebuild a Cyc at conductor m from (num, den, exp) triples."""
    k = euler_phi(m)
    acc = ZERO
    for num, den, e in terms:
        if not 0 <= e < k:
            raise ValueError(f"exponent {e} out of range for conductor {m}")
        vec = [0] * k
        vec[e] = num
        acc = acc + _normalize(m, vec, den)
    return acc


def format_scalar(c):
    """Whitespace-free token: the comma-joined terms num[/den]:exp of
    ``to_terms``, each coefficient num/den in lowest terms (den omitted
    when 1), so 1/2 + zeta_4/4 is '1/2:0,1/4:1'; '0:0' for zero."""
    terms = to_terms(c)
    if not terms:
        return "0:0"
    parts = []
    for num, den, e in terms:
        frac = str(num) if den == 1 else f"{num}/{den}"
        parts.append(f"{frac}:{e}")
    return ",".join(parts)


def parse_scalar(token, m):
    """Parse the token syntax of ``format_scalar`` at conductor m.

    Bare integers are accepted as a shorthand for num:0.
    """
    token = token.strip()
    try:
        return integer(int(token))
    except ValueError:
        pass
    terms = []
    for part in token.split(","):
        frac, _, exp = part.rpartition(":")
        if not frac:
            raise ValueError(f"bad scalar token {token!r}")
        if "/" in frac:
            num, den = frac.split("/")
            if int(den) == 0:
                raise ValueError(f"zero denominator in {token!r}")
            terms.append((int(num), int(den), int(exp)))
        else:
            terms.append((int(frac), 1, int(exp)))
    return from_terms(m, terms)
