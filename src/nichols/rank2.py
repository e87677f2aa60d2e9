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
from .scalars import INFINITE, as_matrix, integer, one, order


def nilpotency_order_formula(q, i, j):
    """Closed-form nilpotency order of the adjoint of x_i on x_j for the
    diagonal scalar matrix q: r + 1 with r = min{t, N(q_ii) - 1} and t the
    least nonnegative integer with q_ii^t q_ij q_ji = 1."""
    n_ii = order(q[i][i])
    t = _least_t(q, i, j)
    if t is None:
        return INFINITE if n_ii == INFINITE else int(n_ii)
    if n_ii == INFINITE:
        return t + 1
    return int(min(t, n_ii - 1)) + 1


def _require_root(q, i):
    """N(q_ii), raising InvalidInput unless q_ii is 1 or a root of unity;
    braidings over finite groups have roots of unity on the diagonal."""
    n_ii = order(q[i][i])
    if n_ii == INFINITE and q[i][i] != one():
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
    bound = 1 if n_ii == INFINITE else int(n_ii)
    p = one()
    for k in range(bound):
        if p * prod == one():
            return k
        p = p * q[i][i]
    return None


def is_qls(q):
    """If the matrix is a quantum linear space (all opposite off-diagonal
    products equal one), the dimension prod N(q_ii); else None."""
    q = as_matrix(q)
    d = len(q)
    for i in range(d):
        for j in range(d):
            if i != j and q[i][j] * q[j][i] != one():
                return None
    total = 1
    for i in range(d):
        n = order(q[i][i])
        if n == INFINITE:
            return INFINITE
        total *= int(n)
    return total


class Rank2Analysis:
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
    qls = is_qls(q)
    if qls is not None:
        return Rank2Analysis(q=q, N1=n1, N2=n2, t=0, r=0, M=[], bound=qls,
                             verdict="QLS", condition=None,
                             hypothesis_order2=None, warning=None)
    # r + 1 is the nilpotency order of the adjoint of x_2 acting on x_1
    t = _least_t(q, 1, 0)
    r = nilpotency_order_formula(q, 1, 0) - 1
    warning = None
    if n1 == INFINITE:
        warning = "N(q_11) is infinite; the lower bound is not defined"
        return Rank2Analysis(q=q, N1=n1, N2=n2, t=t, r=r, M=None,
                             bound=INFINITE, verdict="bound_only",
                             condition=None, hypothesis_order2=None,
                             warning=warning)
    if r == INFINITE:
        return Rank2Analysis(q=q, N1=n1, N2=n2, t=t, r=r, M=None,
                             bound=INFINITE, verdict="bound_only",
                             condition=None, hypothesis_order2=None,
                             warning="adjoint ladder never terminates")
    prod = q[0][1] * q[1][0]
    ms = []
    bound = int(n1) * (int(n2) if n2 != INFINITE else 0)
    if n2 == INFINITE:
        bound = INFINITE
    for i in range(1, r + 1):
        m = order(q[0][0] * prod ** i * q[1][1] ** (i * i))
        ms.append(m)
        if m == INFINITE or bound == INFINITE:
            bound = INFINITE
        else:
            bound *= int(m)
    hyp = nilpotency_order_formula(q, 0, 1) == 2
    verdict = "bound_only"
    condition = None
    if hyp and bound != INFINITE:
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
                         hypothesis_order2=hyp, warning=warning)


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
                if dij == INFINITE:
                    raise ValueError(
                        f"adjoint of x_{i} on x_{j} has infinite nilpotency order")
                a[i][j] = 1 - dij
    return a


def finite_cartan_rank2(a):
    """Whether a 2 x 2 generalized Cartan matrix is of finite type."""
    return a[0][1] * a[1][0] <= 3


def r_of(n):
    """log base (smallest prime factor of n) of n, as a float for display.

    All decisions should go through ``screen``, which compares exactly.
    """
    if n <= 1:
        raise ValueError("need n >= 2")
    p = smallest_prime_factor(n)
    import math
    return math.log(n, p)


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
    if n <= 1:
        raise ValueError("need n >= 2")
    p1 = smallest_prime_factor(n)
    if p1 ** d > n:
        return False
    total_mult = sum(v for _, v in prime_signature(n))
    return theta <= total_mult


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
