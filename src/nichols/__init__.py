"""Exact computation of Nichols algebras of braided vector spaces.

The package builds braided pairs of finite group type (diagonal matrices,
crossed-set cocycle braidings, Yetter-Drinfeld modules over finite groups,
and the hand-picked three- and four-dimensional families), computes the
graded components of their Nichols algebras through their skew derivations
(with tensor-coalgebra coordinates on request), extracts relation bases,
analyses rank-2 diagonal braidings through adjoint nilpotency orders, and
computes crossed-set cohomology over finite cyclic coefficients.  All
arithmetic is exact, over cyclotomic fields.
"""

from .scalars import (
    Cyc,
    integer,
    one,
    order,
    q_binomial,
    q_factorial,
    q_number,
    rational,
    root_of_unity,
    zero,
)
from .linalg import InvalidInput
from .pairs import (
    BraidedPair,
    change_basis,
    check,
    crossed_set,
    diagonal,
    direct_sum,
    find_decomposition,
    from_cocycle,
    is_diagonal,
    restrict,
    transpose,
    two_by_two,
    v3,
    v4,
    yd_module,
)
from .algebra import (
    GradedComputation,
    HilbertResult,
    adjoint,
    degree_basis,
    derivation,
    hilbert,
    kernel_basis,
    multiply,
    new_leading_words,
    nilpotency_order,
    relation_count,
    relations,
)
from .quandles import (
    Cochain2,
    CrossedSet,
    conjugation_crossed_set,
    dihedral_crossed_set,
    h1,
    h2,
    trivial_crossed_set,
)
from .rank2 import analyze, analyze_best, cartan, csgr_screen, is_qls, screen

__version__ = "0.1.0"
