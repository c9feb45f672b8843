"""Projective presentations attached to a lattice weight vector.

A lattice vector theta splits into a positive and a negative part; the
positive coordinates give multiplicities of a projective P0, the negative
ones a projective P1, and the presentation space is Hom(P1, P0).  Each map
f in that space cuts out the torsion class of modules with no nonzero hom
into the kernel of the Nakayama twist of f.

Membership of a module X in that class is equivalent to surjectivity of
the induced map Hom(P0, X) -> Hom(P1, X): the hom functor is left exact
and the Nakayama duality turns the twisted kernel condition into exactly
that rank condition.  The rank form decides membership everywhere here:
the class of one map is read on indecomposable items only, since it is
closed under sums and summands, and the path actions on each item are
read from Catalogue.path_actions.  fei_union_check sweeps the maps of each
level in order until their classes cover the weak class, or refuses with
BudgetError before sweeping when a level is too large; no map is drawn at
random.  Evenly spaced maps of each level are re-checked against the perp
of the twisted kernel module itself.

The zero map is onto exactly when X vanishes at every vertex of P1, so its
class depends only on that vertex set, which every positive multiple of
theta shares; it is one table per catalogue.  The semistable suite's
single-map search reads it before building any map, and takes each level's
cost cap from presentation_dim, the dimension of Hom(P1, P0) counted from
paths, so it builds a space only where the zero map misses.
"""

from __future__ import annotations

from itertools import product
from numbers import Rational

from .algebra import memo
from .catalogue import SWEEP_CAP, BudgetError
from .linalg import rank
from .silting import TwoTermComplex, _layout, _unvec, twisted_kernel
from .stability import _pairings, quadruple
from .torsion import _on_indecomposables, indices_of, left_perp

SAMPLE_CHECKS = 24


class PresentationError(Exception):
    pass


def _integral(theta):
    """theta as a tuple of ints; each entry must be an int or a Fraction
    with denominator 1, as in stability._integer_weight."""
    for t in theta:
        if not isinstance(t, Rational):
            raise PresentationError("weight entry %r is not an int or a Fraction" % (t,))
        if t.denominator != 1:
            raise PresentationError("weight vector must be integral, got %r" % (t,))
    return tuple(int(t) for t in theta)


def _weight(A, theta):
    """theta as a tuple of ints, one per vertex of A."""
    theta = _integral(theta)
    if len(theta) != A.n:
        raise PresentationError("weight vector has wrong length")
    return theta


def presentation_pair(A, theta):
    """Vertex multiplicity tuples (minus, zero) with [zero] - [minus] = theta."""
    theta = _weight(A, theta)
    minus = []
    zero = []
    for i, t in enumerate(theta):
        if t > 0:
            zero.extend([i] * t)
        elif t < 0:
            minus.extend([i] * (-t))
    return tuple(minus), tuple(zero)


def presentation_space(A, theta):
    """The coordinate basis of Hom(P1, P0) for the split of theta."""
    minus, zero = presentation_pair(A, theta)
    slots = _layout(A, minus, zero)
    return {"minus": minus, "zero": zero, "slots": slots, "dim": len(slots)}


def presentation_dim(A, theta):
    """dim Hom(P1, P0) for the split of theta, from path counts alone.

    It is the sum of m_i z_j |paths j -> i| over the vertices i of P1 and j
    of P0, with multiplicities m_i = -theta_i and z_j = theta_j: the number
    of slots of presentation_space(A, theta), with no slot built.  Scaling
    theta by k scales it by k^2.
    """
    theta = _weight(A, theta)
    return sum(
        -m * z * len(A.paths[j][i])
        for i, m in enumerate(theta)
        if m < 0
        for j, z in enumerate(theta)
        if z > 0
    )


def map_from_coeffs(A, space, coeffs):
    slots = space["slots"]
    if len(coeffs) != len(slots):
        raise PresentationError("coefficient vector has wrong length")
    minus, zero = space["minus"], space["zero"]
    return TwoTermComplex(A, minus, zero, _unvec(slots, len(minus), len(zero), coeffs))


def tbar_of_map(cat, U):
    """Mask of the perp class of the twisted kernel of U.

    An indecomposable item X is in exactly when Hom(P0, X) -> Hom(P1, X) is
    surjective; a decomposable one follows from its signature.  No module
    is built and no hom space is solved.  The zero map is onto exactly when
    X vanishes at every vertex of P1, so its class is read from a table
    keyed by that vertex set.
    """
    if not any(any(row) for row in U.mat):
        return _zero_map_class(cat, tuple(sorted(set(U.minus))))
    return _on_indecomposables(cat, lambda x: in_perp_of_kernel(U, cat, x))


@memo
def _zero_map_class(cat, vertices):
    """Perp class of a zero map out of P1 with these vertices: the rank form
    on the zero map from one copy of each vertex into P0 = 0."""
    U = TwoTermComplex(cat.algebra, vertices, (), ())
    return _on_indecomposables(cat, lambda x: in_perp_of_kernel(U, cat, x))


def _restriction_matrix(U, X, actions):
    """Matrix of composition with U: Hom(P0, X) -> Hom(P1, X)."""
    A = X.algebra
    p = A.p
    row_dims = [X.dims[v] for v in U.minus]
    col_dims = [X.dims[v] for v in U.zero]
    nr = sum(row_dims)
    nc = sum(col_dims)
    m = [[0] * nc for _ in range(nr)]
    r0 = 0
    for k, mv in enumerate(U.minus):
        c0 = 0
        for l, zv in enumerate(U.zero):
            cell = U.mat[l][k]
            if cell:
                for b, coeff in cell.items():
                    pm = actions[b]
                    for r in range(row_dims[k]):
                        row = m[r0 + r]
                        prow = pm[r]
                        for c in range(col_dims[l]):
                            row[c0 + c] = (row[c0 + c] + coeff * prow[c]) % p
            c0 += col_dims[l]
        r0 += row_dims[k]
    return m, nr


def in_perp_of_kernel(U, cat, idx):
    """Whether item idx has no nonzero hom into the twisted kernel of U."""
    m, nr = _restriction_matrix(U, cat.rep(idx), cat.path_actions(idx))
    return rank(m, cat.algebra.p) == nr


def _exclusion_certificates(cat, theta, target):
    """Quotient dimension vectors with negative weight for excluded items.

    A map f can only cover X when Hom(P0, Q) -> Hom(P1, Q) stays surjective
    on every quotient Q of X (projectivity lifts the maps), and surjectivity
    forces the weight of dim Q to be nonnegative.  A negative quotient is
    therefore a certificate that no f at any level covers X.
    """
    certs = {}
    for idx in range(len(cat)):
        if (target >> idx) & 1:
            continue
        quots = [v for v in cat.quotient_dimvectors(idx) if any(v)]
        wit = next((v for v, x in zip(quots, _pairings(theta, quots)) if x < 0), None)
        if wit is None:
            raise PresentationError(
                "item %d lies outside the weak class with no negative quotient" % idx
            )
        certs[idx] = wit
    return certs


def fei_union_check(cat, theta, l_max):
    """Sweep the presentation spaces of theta, 2 theta, ..., l_max theta and
    compare the union of the induced classes with the weak semistable class.

    Containment of every induced class in the weak class is certified once
    per excluded item by a negative quotient weight, and every class read
    is checked against the weak class.  Coverage is the OR of tbar_of_map
    over the maps of each level, in sweep order, until it reaches the weak
    class.  SAMPLE_CHECKS evenly spaced maps per level are re-checked
    against the perp of the twisted kernel.  Raises BudgetError before any
    level is swept when a space exceeds SWEEP_CAP maps.  Returns a report
    dict.
    """
    A = cat.algebra
    theta = _integral(theta)
    if l_max < 1:
        raise PresentationError("need at least one level")
    spaces = [presentation_space(A, tuple(l * t for t in theta)) for l in range(1, l_max + 1)]
    for l, space in enumerate(spaces, 1):
        if A.p ** space["dim"] > SWEEP_CAP:
            raise BudgetError(
                "presentation space at level %d too large to sweep: %d^%d maps"
                % (l, A.p, space["dim"])
            )
    target = quadruple(cat, theta).Tbar
    certs = _exclusion_certificates(cat, theta, target)

    def induced(U):
        tmask = tbar_of_map(cat, U)
        if tmask & ~target:
            raise PresentationError("induced class leaks outside the weak class")
        return tmask

    covered = 1 << cat.zero_index()
    levels = []
    first_full = None
    checked = 0
    for l, space in enumerate(spaces, 1):
        dim = space["dim"]
        total = A.p**dim
        for coeffs in product(range(A.p), repeat=dim):
            if covered == target:
                break
            covered |= induced(map_from_coeffs(A, space, coeffs))
        step = max(1, total // SAMPLE_CHECKS)
        for pos in range(0, total, step)[:SAMPLE_CHECKS]:
            # the map at this position of the sweep order: pos in base p
            coeffs = tuple(pos // A.p**k % A.p for k in reversed(range(dim)))
            U = map_from_coeffs(A, space, coeffs)
            if induced(U) != left_perp(cat, [twisted_kernel(U)]):
                raise PresentationError("rank form disagrees with the kernel form")
            checked += 1
        levels.append({"level": l, "dim": dim, "total": total, "covered": covered.bit_count()})
        if first_full is None and covered == target:
            first_full = l
    return {
        "theta": theta,
        "target_size": target.bit_count(),
        "levels": levels,
        "equality": covered == target,
        "first_full_level": first_full,
        "uncovered": indices_of(target & ~covered),
        "excluded_certificates": len(certs),
        "cross_checked": checked,
        "window_relative": True,
    }
