"""Diagonal-case analysis: quantum linear space detection, adjoint
nilpotency orders, the generalized Cartan matrix, and the rank-2 PBW lower
bound with its equality cases.

Conventions follow the asymmetric roles of the underlying bound: r + 1 is
the nilpotency order of the adjoint of x_2 on x_1 (so its formula runs on
N(q_22)), the ladder orders are M_i = N(q_11 (q_12 q_21)^i q_22^(i^2)),
and the equality cases additionally assume the adjoint of x_1 on x_2 has
nilpotency order two.  A convenience wrapper tries both orientations,
since concrete examples swap bases freely.
"""

from .linalg import InvalidInput
from .scalars import as_matrix, integer, one, order


def nilpotency_order_formula(q, i, j):
    """Closed-form nilpotency order of the adjoint of x_i on x_j for the
    diagonal scalar matrix q: r + 1 with r = min{t, N(q_ii) - 1} and t the
    least nonnegative integer with q_ii^t q_ij q_ji = 1.  None when it is
    infinite: there is no such t and N(q_ii) is infinite."""
    n_ii = order(q[i][i])
    t = _least_t(q, i, j)
    if t is None:
        return n_ii
    return t + 1 if n_ii is None else min(t, n_ii - 1) + 1


def _require_root(q, i):
    """N(q_ii), raising InvalidInput unless q_ii is 1 or a root of unity;
    braidings over finite groups have roots of unity on the diagonal."""
    n_ii = order(q[i][i])
    if n_ii is None and q[i][i] != one():
        raise InvalidInput(f"q[{i}][{i}] is neither 1 nor a root of unity; "
                           "nilpotency orders need roots of unity")
    return n_ii


def _least_t(q, i, j):
    """Least t >= 0 with q_ii^t q_ij q_ji = 1, or None.

    Exact when q_ii is a root of unity or 1 (then only t = 0 can work).
    The search runs up to N(q_ii), so any other q_ii raises InvalidInput.
    """
    n_ii = _require_root(q, i)
    prod = q[i][j] * q[j][i]
    p = one()
    for k in range(1 if n_ii is None else n_ii):
        if p * prod == one():
            return k
        p = p * q[i][i]
    return None


def _opposite_products_trivial(q):
    """The quantum linear space shape: q_ij q_ji = 1 for all i != j."""
    d = len(q)
    return all(q[i][j] * q[j][i] == one()
               for i in range(d) for j in range(i + 1, d))


def _product(factors):
    """The product of orders, or None (infinite) when any factor is None."""
    total = 1
    for f in factors:
        if f is None:
            return None
        total *= f
    return total


def is_qls(q):
    """The dimension prod N(q_ii) of a quantum linear space (all opposite
    off-diagonal products equal one) whose diagonal orders are all finite;
    None for any other matrix."""
    q = as_matrix(q)
    if not _opposite_products_trivial(q):
        return None
    return _product(order(q[i][i]) for i in range(len(q)))


class Rank2Analysis:
    """The rank-2 invariants of a diagonal braiding.

    N1, N2 are the diagonal orders, r + 1 the nilpotency order of the
    adjoint of x_2 on x_1, M the ladder orders M_1..M_r, and bound the
    product N1 N2 M_1 ... M_r.  None means infinite for N1, N2, r, bound
    and each entry of M; for t it means there is no such t, for M itself
    that the ladder was not computed, and for hypothesis_order2 that the
    hypothesis was not asked.
    """

    __slots__ = ("q", "N1", "N2", "t", "r", "M", "bound", "verdict",
                 "condition", "hypothesis_order2", "warning")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw.get(name))

    def __repr__(self):
        return (f"Rank2Analysis(N1={self.N1}, N2={self.N2}, t={self.t}, "
                f"r={self.r}, M={self.M}, bound={self.bound}, "
                f"verdict={self.verdict!r}, condition={self.condition!r})")


def analyze(q):
    """Full rank-2 analysis of a 2 x 2 diagonal braiding matrix.  Raises
    InvalidInput for a diagonal entry that is neither 1 nor a root of
    unity, as ``cartan`` does."""
    q = as_matrix(q)
    if len(q) != 2 or any(len(row) != 2 for row in q):
        raise ValueError("analyze needs a 2 x 2 matrix")
    n1, n2 = _require_root(q, 0), _require_root(q, 1)
    if _opposite_products_trivial(q):
        return Rank2Analysis(q=q, N1=n1, N2=n2, t=0, r=0, M=[],
                             bound=_product((n1, n2)), verdict="QLS")
    # r + 1 is the nilpotency order of the adjoint of x_2 acting on x_1
    t = _least_t(q, 1, 0)
    r = nilpotency_order_formula(q, 1, 0)
    r = None if r is None else r - 1
    if n1 is None or r is None:
        warning = ("N(q_11) is infinite; the lower bound is not defined"
                   if n1 is None else "adjoint ladder never terminates")
        return Rank2Analysis(q=q, N1=n1, N2=n2, t=t, r=r,
                             verdict="bound_only", warning=warning)
    prod = q[0][1] * q[1][0]
    ms = [order(q[0][0] * prod ** i * q[1][1] ** (i * i))
          for i in range(1, r + 1)]
    bound = _product([n1, n2] + ms)
    hyp = nilpotency_order_formula(q, 0, 1) == 2
    verdict = "bound_only"
    condition = None
    if hyp and bound is not None:
        if r == 1:
            verdict = "A2_equality"
        elif r == 2:
            if n1 != 2 or n2 != 3:
                verdict = "r2_equality"
            else:
                q22 = q[1][1]
                if prod == integer(-1):
                    condition = "-1"
                elif prod == q22:
                    condition = "q22"
                elif prod == -q22:
                    condition = "-q22"
                verdict = ("r2_conditional_holds" if condition
                           else "r2_conditional_fails")
    return Rank2Analysis(q=q, N1=n1, N2=n2, t=t, r=r, M=ms, bound=bound,
                         verdict=verdict, condition=condition,
                         hypothesis_order2=hyp)


_VERDICT_RANK = {
    "QLS": 4,
    "A2_equality": 3,
    "r2_equality": 3,
    "r2_conditional_holds": 3,
    "r2_conditional_fails": 1,
    "bound_only": 0,
}


def analyze_best(q):
    """Run the analysis in both basis orientations and keep the stronger
    verdict.  Returns (analysis, swapped)."""
    first = analyze(q)
    q = as_matrix(q)
    swapped_q = [[q[1][1], q[1][0]], [q[0][1], q[0][0]]]
    second = analyze(swapped_q)
    if _VERDICT_RANK[second.verdict] > _VERDICT_RANK[first.verdict]:
        return second, True
    return first, False


def cartan(q):
    """The generalized Cartan matrix a_ii = 2, a_ij = 1 - d_ij with d_ij the
    nilpotency order of the adjoint of x_i on x_j."""
    q = as_matrix(q)
    d = len(q)
    a = [[2] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            if i != j:
                dij = nilpotency_order_formula(q, i, j)
                if dij is None:
                    raise ValueError(
                        f"adjoint of x_{i} on x_{j} has infinite nilpotency order")
                a[i][j] = 1 - dij
    return a


def finite_cartan_rank2(a):
    """Whether a 2 x 2 generalized Cartan matrix is of finite type."""
    return a[0][1] * a[1][0] <= 3


def r_of(n):
    """r(n): the largest d with p^d <= n, for p the smallest prime factor
    of n.  Integer arithmetic only."""
    p = smallest_prime_factor(n)
    d, power = 0, p
    while power <= n:
        d, power = d + 1, power * p
    return d


def smallest_prime_factor(n):
    if n < 2:
        raise ValueError("need n >= 2")
    return prime_signature(n)[0][0]


def prime_signature(n):
    """Sorted list of (prime, multiplicity) factors."""
    out = []
    p = 2
    while n > 1:
        if n % p == 0:
            v = 0
            while n % p == 0:
                n //= p
                v += 1
            out.append((p, v))
        p += 1 if p == 2 else 2
        if p * p > n and n > 1:
            out.append((n, 1))
            break
    return out


def screen(n, d, theta):
    """Necessary conditions for an n-dimensional Nichols algebra: the space
    of primitives has dimension d <= r(n) and at most sum of prime
    multiplicities many irreducible summands.  Integer arithmetic only."""
    return d <= r_of(n) and theta <= sum(v for _, v in prime_signature(n))


def csgr_screen(deg_rho, q):
    """Necessary condition on the self-braiding scalar of an irreducible
    module of the given representation degree to allow finite Nichols rank:
    degree >= 3 forces N(q) = 2, degree 2 forces N(q) in {2, 3}."""
    n = order(q)
    if deg_rho >= 3:
        return n == 2
    if deg_rho == 2:
        return n in (2, 3)
    return True
