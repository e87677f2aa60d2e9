"""Exact arithmetic in cyclotomic fields, plus q-number combinatorics.

Every scalar the package takes or returns is a ``Cyc``: an element of the
field Q(zeta_m), a residue modulo the m-th cyclotomic polynomial.  Its
coefficient vector has length phi(m) and is stored as a tuple of integers
over a single positive denominator, normalized so the gcd of all entries
and the denominator is 1.  Working modulo the cyclotomic polynomial (not
x^m - 1) keeps the structure a field, so ranks and kernels downstream are
well defined.

``Cyc`` aligns and shrinks; the field types compute.  Values with
different conductors mix freely: ``+``, ``*``, ``inverse`` and ``==`` at
two conductors lift both operands into ``field(l)``, l the lcm of their
conductors, compute there and come back through ``_normalize``, the one
place where zero and rational constants shrink to conductor 1.
``Fraction`` appears only at the boundary (``Cyc(m, coeffs)``, ``.coeffs``
and the coercion of plain numbers).

``field(m)`` is the element type of Q(zeta_m): the same integer tuple over
one denominator, but both operands of every operation are at conductor m,
so no operation coerces, aligns conductors or shrinks constants.
Conductor 1 is ``Rational``, a plain (num, den) pair, so all-rational
arithmetic stays on single integers.  A computation inside one field (the
graded engine ``algebra.GradedComputation``, or ``braids.verify_identity``)
embeds its data into ``field(m)`` once and converts back to ``Cyc`` only
what it returns.  The field types multiply through one product per
conductor, ``_multiplier(m)``: straight-line code generated from the
reduction table at first use, which skips the zero coefficients of its
left operand and reduces modulo the cyclotomic polynomial with the table's
integers written in.  Against the generic convolution loop it replaced, a
product takes 0.32 us instead of 1.44 us at m = 3 and 10.6 us instead of
27.9 us for dense operands at m = 60 (Python 3.11, x86, in-process).
Elimination's step x - a*b is one operation, ``submul``, fused in
``_submultiplier(m)``: the same convolution, subtracted from x line by
line over a common denominator, reduced to lowest terms once, and not at
all for integral operands.  The field types add and subtract through
generated coefficient-wise sums (``_sums``) and invert through
``_inverse``: a rational multiple of a root of unity directly, anything
else through its Galois norm.  A product by a fixed root of unity or its
negative, as in a crossed-set braiding's crossings, has a shorter form:
``_root_multiplier(m, e)`` rotates and reduces the coefficients with the
table's integers written in, keeps the denominator (a unit leaves a
reduced num/den reduced, so there is no gcd), and is generated once per
conductor and exponent; the field type's ``scaling(s)`` hands it out.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import neg as _neg


# ---------------------------------------------------------------------------
# cyclotomic polynomial tables

_cyclotomic_cache = {}


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


def cyclotomic(m):
    """Integer coefficients of the m-th cyclotomic polynomial, constant first."""
    poly = _cyclotomic_cache.get(m)
    if poly is None:
        if m < 1:
            raise ValueError(f"conductor must be positive, got {m}")
        poly = [-1] + [0] * (m - 1) + [1]
        for d in range(1, m):
            if m % d == 0:
                poly = _polydiv_exact(poly, cyclotomic(d))
        poly = tuple(poly)
        _cyclotomic_cache[m] = poly
    return poly


def euler_phi(m):
    return len(cyclotomic(m)) - 1


_power_rows = {}


def _powers(m, upto):
    """Rows x^e mod Phi_m for e < upto, as integer tuples of length phi(m)."""
    rows = _power_rows.setdefault(m, [])
    if len(rows) < upto:
        phi = cyclotomic(m)
        k = len(phi) - 1
        while len(rows) < min(upto, k):
            e = len(rows)
            rows.append(tuple(1 if i == e else 0 for i in range(k)))
        while len(rows) < upto:
            prev = rows[-1]
            lead = prev[k - 1]
            rows.append(tuple((prev[i - 1] if i else 0) - lead * phi[i]
                              for i in range(k)))
    return rows


_embed_cache = {}


def _embedding(m, big):
    """Images of the conductor-m power basis inside conductor ``big``."""
    key = (m, big)
    table = _embed_cache.get(key)
    if table is None:
        step = big // m
        k = euler_phi(m)
        rows = _powers(big, (k - 1) * step + 1)
        table = tuple(rows[i * step] for i in range(k))
        _embed_cache[key] = table
    return table


_reduction_tables = {}


def _table(m):
    """The reduction rows that inverses at conductor m read, and that
    ``_multiplier(m)`` writes into its source: x^e mod Phi_m for
    e < max(m, 2 phi(m) - 1), each as the pairs (index, coefficient) of its
    nonzero entries."""
    table = _reduction_tables.get(m)
    if table is None:
        rows = _powers(m, max(m, 2 * euler_phi(m) - 1))
        table = tuple(tuple((i, r) for i, r in enumerate(row) if r)
                      for row in rows)
        _reduction_tables[m] = table
    return table


# ---------------------------------------------------------------------------
# straight-line arithmetic on integer vectors, for the field types, and
# the products of their elements by a root of unity.  The source is built
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
    # "    a0, a1, = a": the coefficients of vector ``name`` as locals
    return f"    {', '.join(f'{name}{i}' for i in range(k))}, = {name}"


def _tuple(terms):
    # "    return (t0, t1,)": the generated function's result
    return f"    return ({', '.join(terms)},)"


def _term(r, name):
    # "+ name", "- name" or "+ r * name" for the nonzero integer r
    sign = "+" if r > 0 else "-"
    return f"{sign} {name}" if abs(r) == 1 else f"{sign} {abs(r)} * {name}"


def _convolution(m):
    """The product of the unpacked vectors a and b modulo Phi_m as lines
    of a generated function body and one expression per output
    coefficient: the convolution into locals c0 .. c(2k-2), one block per
    nonzero coefficient of ``a`` (so sparse operands, such as roots of
    unity, skip most of it), and each output coefficient as c_i plus the
    reduction table's integer multiples of the high c_e."""
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
    return lines, [" ".join(t) for t in out]


_multipliers = {}


def _multiplier(m):
    """The product a * b modulo Phi_m of integer coefficient vectors of
    length phi(m), returned as a tuple: the one product of the package,
    called by the field types and ``_inverse``.  Straight-line code,
    generated once per conductor from ``_table(m)`` (``_convolution``).
    """
    mul = _multipliers.get(m)
    if mul is None:
        lines, out = _convolution(m)
        mul = _multipliers[m] = _compile(
            "product", ["def product(a, b):", *lines, _tuple(out)])
    return mul


def _submultiplier(m):
    """The fused step of elimination, fx x - fa (a * b) modulo Phi_m for
    integer coefficient vectors x, a, b of length phi(m) and integers fx,
    fa, returned as a tuple.  The same convolution as ``_multiplier(m)``,
    with each output coefficient subtracted from x's in its line, so the
    product is never built as a vector of its own.  Compiled anew on each
    call: ``field(m)``, its one caller, is made once per conductor."""
    lines, out = _convolution(m)
    return _compile("submul", [
        "def submul(x, fx, a, b, fa):", _unpack("x", len(out)), *lines,
        _tuple(f"x{i} * fx - ({t}) * fa" for i, t in enumerate(out))])


_root_multipliers = {}


def _root_multiplier(m, e):
    """The product c * zeta^e (e >= 0) or c * -zeta^(-1 - e) (e < 0, the
    encoding of ``_roots``) of elements c of ``field(m)``, m > 1: the
    product by a root of unity or its negative that a crossing's scalar
    usually is.

    Straight-line code, generated once per (m, e) from ``_table(m)``:
    a_i zeta^i goes to a_i times row (i + e) mod m, so each output
    coefficient is a signed sum of input coefficients with the table's
    integers written in, and nothing is multiplied by a coefficient of the
    root.  The result keeps c's denominator with no gcd: a root of unity is
    a unit of Z[zeta_m], so multiplying by it or by its inverse keeps the
    gcd of the integer coefficients, and a reduced num/den stays reduced.
    There are at most 2m of them per conductor.
    """
    times = _root_multipliers.get((m, e))
    if times is None:
        k = euler_phi(m)
        sign, p = (1, e) if e >= 0 else (-1, -1 - e)
        out = [[] for _ in range(k)]
        table = _table(m)
        for i in range(k):
            for j, r in table[(i + p) % m]:
                out[j].append(_term(sign * r, f"a{i}"))
        lines = ["def times(c):", "    a = c.num", _unpack("a", k),
                 "    x = new(Element)",
                 "    x.num = (" + ", ".join(" ".join(t) if t else "0"
                                            for t in out) + ",)",
                 "    x.den = c.den",
                 "    return x"]
        times = _root_multipliers[m, e] = _compile(
            "times", lines, new=_new, Element=field(m))
    return times


def _sums(k):
    """The coefficient-wise sums of integer vectors of length k, as
    straight-line code returning tuples: ``add(a, b)`` is a + b and
    ``scaled(a, fa, b, fb)`` is fa a + fb b (with fb < 0 a difference)."""
    head = [_unpack("a", k), _unpack("b", k)]
    add = _compile("add", ["def add(a, b):", *head,
                           _tuple(f"a{i} + b{i}" for i in range(k))])
    scaled = _compile("scaled", [
        "def scaled(a, fa, b, fb):", *head,
        _tuple(f"a{i} * fa + b{i} * fb" for i in range(k))])
    return add, scaled


_root_tables = {}


def _roots(m):
    """The exponent e of each m-th root of unity zeta^e, keyed by its
    coefficient vector and by the negated vector (with -1 - e, so that
    -zeta^e is read as -1 times zeta^e)."""
    roots = _root_tables.get(m)
    if roots is None:
        rows = _powers(m, m)[:m]
        # for even m, -zeta^e is the root zeta^(e + m/2): the update wins
        roots = {tuple(-v for v in row): -1 - e for e, row in enumerate(rows)}
        roots.update((row, e) for e, row in enumerate(rows))
        _root_tables[m] = roots
    return roots


def _inverse(m, num, den):
    """The inverse of the nonzero num/den at conductor m > 1 as an
    unnormalized pair (integer vector, nonzero integer denominator).

    A rational multiple c zeta^e of a root of unity inverts to
    c^-1 zeta^(-e).  Otherwise a * prod_(sigma != 1) sigma(a) = N(a) is
    rational, so the inverse is the product of the other Galois conjugates
    over the norm; sigma_b sends zeta^e to zeta^(b e), read off the
    reduction table.
    """
    table = _table(m)
    k = len(num)
    g = gcd(*num)
    if not g:
        raise ZeroDivisionError("inverse of zero cyclotomic number")
    e = _roots(m).get(tuple([v // g for v in num]) if g != 1 else num)
    if e is not None:
        if e < 0:
            e, g = -1 - e, -g
        vec = [0] * k
        for i, r in table[-e % m]:
            vec[i] = den * r
        return vec, g
    mul = _multiplier(m)
    support = [e for e, v in enumerate(num) if v]
    conj = None
    for b in range(2, m):
        if gcd(b, m) == 1:
            vec = [0] * k
            for e in support:
                v = num[e]
                for i, r in table[b * e % m]:
                    vec[i] += v * r
            conj = vec if conj is None else mul(conj, vec)
    return [den * v for v in conj], mul(num, conj)[0]


# ---------------------------------------------------------------------------
# the scalar type

def _embed_vec(c, big):
    """Raw integer coefficient vector of c at conductor ``big`` (same den)."""
    if c.m == big:
        return list(c.num)
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
    """The Cyc values a and b as elements of field(lcm(a.m, b.m))."""
    F = field(lcm(a.m, b.m))
    return F.from_cyc(a), F.from_cyc(b)


def _normalize(m, num, den):
    """The canonical Cyc (num/den) at conductor m; num is any sequence."""
    if den <= 0:
        if not den:
            raise ZeroDivisionError("zero denominator")
        den = -den
        num = [-v for v in num]
    g = den
    for v in num:
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        den //= g
        num = [v // g for v in num]
    if not any(num[1:]):
        # constant: lives in Q, shrink to conductor 1
        obj = object.__new__(Cyc)
        obj.m = 1
        obj.num = (num[0] if num else 0,)
        obj.den = den if num and num[0] else 1
        return obj
    obj = object.__new__(Cyc)
    obj.m = m
    obj.num = tuple(num)
    obj.den = den
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
        a, b = _lift(self, other)
        return (a + b).to_cyc()

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
        a, b = _lift(self, other)
        return (a - b).to_cyc()

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = _lift(self, other)
        return (a * b).to_cyc()

    __rmul__ = __mul__

    def submul(self, a, b):
        """self - a * b, or None when that is zero: the step of
        elimination that the field types fuse (see ``field``)."""
        t = self - a * b
        return t if t else None

    def inverse(self):
        """Multiplicative inverse (the residue ring is a field)."""
        return field(self.m).from_cyc(self).inverse().to_cyc()

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
        a, b = _lift(self, other)
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
    e %= m
    if e == 0:
        return ONE
    g = gcd(e, m)
    m0, e0 = m // g, e // g
    if m0 == 1:
        return ONE
    if m0 == 2:
        return MINUS_ONE
    sign = 1
    if m0 % 4 == 2:
        # Q(zeta_{2u}) = Q(zeta_u) for odd u: zeta_{2u} = -zeta_u^{(u+1)/2}
        u = m0 // 2
        p = (e0 * ((u + 1) // 2)) % u
        sign = -1  # e0 is odd since gcd(e0, m0) = 1 and m0 is even
        m0 = u
    else:
        p = e0
    row = _powers(m0, max(euler_phi(m0), p + 1))[p]
    if sign < 0:
        row = [-v for v in row]
    return _normalize(m0, row, 1)


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
# the field type of a computation

_new = object.__new__


def _same(c):
    # scaling by 1: the values are immutable, so c itself is the product
    return c


def _rational(num, den):
    """The Rational num/den in lowest terms; den must be positive."""
    if den != 1:
        g = gcd(num, den)
        if g != 1:
            num //= g
            den //= g
    x = _new(Rational)
    x.num = num
    x.den = den
    return x


class Rational:
    """An element of Q as a reduced (num, den) pair with den > 0: the field
    type of conductor 1, where a coefficient vector would have length one.
    Operands are of this type only: there is no coercion.
    """

    __slots__ = ("num", "den")

    @staticmethod
    def from_cyc(c):
        if c.m != 1:
            raise ValueError(f"{c!r} is not rational")
        return _rational(c.num[0], c.den)

    def to_cyc(self):
        return _normalize(1, (self.num,), self.den)

    # the operations of elimination's inner loop build their result in
    # place of calling _rational

    def __add__(a, b):
        if a.den == 1 == b.den:
            x = _new(Rational)
            x.num = a.num + b.num
            x.den = 1
            return x
        return _rational(a.num * b.den + b.num * a.den, a.den * b.den)

    def __sub__(a, b):
        if a.den == 1 == b.den:
            x = _new(Rational)
            x.num = a.num - b.num
            x.den = 1
            return x
        return _rational(a.num * b.den - b.num * a.den, a.den * b.den)

    def submul(x, a, b):
        """x - a * b, or None when that is zero: over the common
        denominator lcm(x.den, a.den b.den), reduced to lowest terms once,
        and not at all when the three are integers."""
        if x.den == 1 == a.den == b.den:
            num = x.num - a.num * b.num
            if not num:
                return None
            y = _new(Rational)
            y.num = num
            y.den = 1
            return y
        den = a.den * b.den
        g = gcd(x.den, den)
        fx = den // g
        num = x.num * fx - a.num * b.num * (x.den // g)
        if not num:
            return None
        return _rational(num, x.den * fx)

    def __neg__(self):
        x = _new(Rational)
        x.num = -self.num
        x.den = self.den
        return x

    def __mul__(a, b):
        num = a.num * b.num
        den = a.den * b.den
        if den != 1:
            g = gcd(num, den)
            if g != 1:
                num //= g
                den //= g
        x = _new(Rational)
        x.num = num
        x.den = den
        return x

    @staticmethod
    def scaling(s):
        """The function c -> c * s on this type: c itself for s = 1, the
        negation for s = -1, else the product by s."""
        if s.den == 1 and s.num in (1, -1):
            return _same if s.num == 1 else Rational.__neg__
        return s.__mul__

    def __bool__(self):
        return self.num != 0

    def is_one(self):
        return self.num == 1 and self.den == 1

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.num < 0:
            return _rational(-self.den, -self.num)
        return _rational(self.den, self.num)

    def __eq__(self, other):
        if other.__class__ is not Rational:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    __hash__ = None

    def __repr__(self):
        return f"Rational({self.num}/{self.den})"


Rational.one = _rational(1, 1)


_field_types = {}


def field(m):
    """The element type of Q(zeta_m), in which a computation at conductor
    m does its arithmetic.

    An element is an integer tuple ``num`` of length phi(m) over one
    positive denominator ``den``, gcd-normalized, in the power basis modulo
    the m-th cyclotomic polynomial, as in ``Cyc``.  Both operands of an
    operation are of the type, so there is no coercion, no conductor
    alignment and no shrinking of constants.  ``from_cyc`` embeds a ``Cyc``
    whose conductor divides m, ``to_cyc`` is the way back, and ``one`` is
    the unit.  Products go through ``_multiplier(m)`` and inverses through
    ``_inverse``; sums and differences are straight-line code made with
    the type (``_sums``).  ``x.submul(a, b)`` is x - a*b, or None when
    that is zero, in one call of the kernel ``_submultiplier(m)``, which
    computes fx x - fa (a*b) with fx, fa the cofactors of
    gcd(x.den, a.den b.den) (both 1, and no reduction, when all three are
    integral).  ``scaling(s)`` is the function c -> c * s, through
    ``_root_multiplier`` when s is a root of unity or its negative.
    Conductor 1 is ``Rational``.  ``Cyc`` computes in these
    types too, at the lcm of its operands' conductors.

    The type is made once per conductor, like the generated product it
    calls, and holds no values computed with it.  Making it compiles its
    generated code: 0.5-1.1 ms for m <= 12 and 4.5-7 ms at m = 60, of
    which the product and the fused kernel take about 3 ms each there
    (fresh processes, Python 3.11, x86).
    """
    if m == 1:
        return Rational
    cls = _field_types.get(m)
    if cls is None:
        cls = _field_types[m] = _make_field(m)
    return cls


def _make_field(m):
    """A new element type for Q(zeta_m), m > 1; see ``field``."""
    k = euler_phi(m)
    mul = _multiplier(m)
    fused = _submultiplier(m)
    add, scaled = _sums(k)

    def make(num, den):
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = tuple([v // g for v in num])
                den //= g
        x = _new(Element)
        x.num = num
        x.den = den
        return x

    class Element:
        __slots__ = ("num", "den")

        @staticmethod
        def from_cyc(c):
            if c.m == m:
                num = c.num
            elif m % c.m:
                raise ValueError(f"{c!r} does not lie in Q(zeta_{m})")
            else:
                num = tuple(_embed_vec(c, m))
            return make(num, c.den)

        def to_cyc(self):
            return _normalize(m, self.num, self.den)

        # as in Rational, the inner loop's operations on integral values
        # and the product build their result in place of calling make

        def __add__(a, b):
            if a.den == b.den:
                if a.den == 1:
                    x = _new(Element)
                    x.num = add(a.num, b.num)
                    x.den = 1
                    return x
                return make(add(a.num, b.num), a.den)
            g = gcd(a.den, b.den)
            fa, fb = b.den // g, a.den // g
            return make(scaled(a.num, fa, b.num, fb), a.den * fa)

        def __sub__(a, b):
            if a.den == b.den:
                num = scaled(a.num, 1, b.num, -1)
                if a.den == 1:
                    x = _new(Element)
                    x.num = num
                    x.den = 1
                    return x
                return make(num, a.den)
            g = gcd(a.den, b.den)
            fa, fb = b.den // g, a.den // g
            return make(scaled(a.num, fa, b.num, -fb), a.den * fa)

        def submul(x, a, b):
            """x - a * b, or None when that is zero, through ``fused``:
            over the common denominator lcm(x.den, a.den b.den), reduced
            to lowest terms once, and not at all when the three are
            integral."""
            den = a.den * b.den
            if x.den == 1 == den:
                num = fused(x.num, 1, a.num, b.num, 1)
                if not any(num):
                    return None
                y = _new(Element)
                y.num = num
                y.den = 1
                return y
            g = gcd(x.den, den)
            fx = den // g
            num = fused(x.num, fx, a.num, b.num, x.den // g)
            if not any(num):
                return None
            return make(num, x.den * fx)

        def __neg__(self):
            x = _new(Element)
            x.num = tuple(map(_neg, self.num))
            x.den = self.den
            return x

        def __mul__(a, b):
            num = mul(a.num, b.num)
            den = a.den * b.den
            if den != 1:
                g = gcd(den, *num)
                if g != 1:
                    num = tuple([v // g for v in num])
                    den //= g
            x = _new(Element)
            x.num = num
            x.den = den
            return x

        @staticmethod
        def scaling(s):
            """The function c -> c * s on this type: c itself for s = 1,
            ``_root_multiplier`` for any other root of unity or its
            negative, else the product by s."""
            e = _roots(m).get(s.num) if s.den == 1 else None
            if e is None:
                return s.__mul__
            return _root_multiplier(m, e) if e else _same

        def __bool__(self):
            return any(self.num)

        def is_one(self):
            return self.den == 1 and self.num == unit

        def inverse(self):
            num, den = _inverse(m, self.num, self.den)
            if den < 0:
                num, den = [-v for v in num], -den
            return make(tuple(num), den)

        def __eq__(self, other):
            if other.__class__ is not Element:
                return NotImplemented
            return self.num == other.num and self.den == other.den

        __hash__ = None

        def __repr__(self):
            return f"{type(self).__name__}({self.to_cyc()!r})"

    unit = (1,) + (0,) * (k - 1)
    Element.__name__ = Element.__qualname__ = f"Field{m}"
    Element.one = make(unit, 1)
    return Element


# ---------------------------------------------------------------------------
# q-numbers, evaluated from integer polynomials (they all lie in Z[q])

_gauss_cache = {}


def gaussian_poly(n, m):
    """The Gaussian binomial (n choose m)_q as an integer polynomial in q."""
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    key = (n, m)
    poly = _gauss_cache.get(key)
    if poly is None:
        if m == 0 or m == n:
            poly = [1]
        else:
            # q-Pascal: C(n,m) = C(n-1,m-1) + q^m C(n-1,m)
            left = gaussian_poly(n - 1, m - 1)
            right = gaussian_poly(n - 1, m)
            poly = list(left) + [0] * (m + len(right) - len(left))
            for i, v in enumerate(right):
                poly[m + i] += v
        _gauss_cache[key] = poly
    return list(poly)


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
    """Nonzero terms of c as (num, den, exp) triples over the power basis."""
    return [(v, c.den, e) for e, v in enumerate(c.num) if v]


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
    """Whitespace-free token: comma-joined num[/den]:exp terms; '0:0' for zero."""
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
