"""Exact stability data over the window: the four classes cut out by a
weight vector (two weights are TF equivalent when their quadruples are
equal).  A weight is scaled to integers by a positive factor, which keeps
every sign, so all comparisons run on Python integers.

Whether an item lies in T_theta, Tbar_theta, F_theta or Fbar_theta depends
only on the signs of <theta, v> over its nonzero quotient and submodule
dimension vectors v (King, Quart. J. Math. 45 (1994)).  Every such v lies in
the box 0 <= v <= bound, since a subquotient of an item is no larger than
the item.  So the tuple of signs of <theta, v> over the nonzero vectors of
the box, integers compared with zero, is an exact key: weights with equal
sign vectors have equal quadruples, at any positive scale.  quadruple reads
the four masks from a table on the catalogue keyed by it, and runs the
per-item pass once per distinct sign vector.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm
from numbers import Rational
from operator import mul

from .algebra import AlgebraError, memo
from .catalogue import _all_dims
from .torsion import summands


class Quadruple(namedtuple("Quadruple", "T Tbar F Fbar")):
    """Masks of the strict/weak quotient-positive and sub-negative classes."""

    __slots__ = ()


def _integer_weight(A, theta):
    """theta, a vector of ints or Fractions, scaled to integers by a positive
    factor: the weight of each vertex.  Every simple module is one-dimensional
    over its prime field, so the pairing of a weight with a dimension vector
    is their plain dot product."""
    if len(theta) != A.n:
        raise AlgebraError("length mismatch in pairing")
    for t in theta:
        if not isinstance(t, Rational):
            raise AlgebraError("weight entry %r is not an int or a Fraction" % (t,))
    den = lcm(*(t.denominator for t in theta))
    return [t.numerator * (den // t.denominator) for t in theta]


def _pairings(w, dimvectors):
    return [sum(map(mul, w, v)) for v in dimvectors if any(v)]


@memo
def _box(cat):
    """Every nonzero dimension vector v with 0 <= v <= the bound."""
    return tuple(v for v in _all_dims(cat.bound) if any(v))


@memo
def _quadruple_of_signs(cat, signs):
    """The four masks for the sign of the weight on each vector of _box."""
    sign_of = dict(zip(_box(cat), signs))
    T = Tbar = F = Fbar = 0
    for idx in range(len(cat)):
        bit = 1 << idx
        qvals = [sign_of[v] for v in cat.quotient_dimvectors(idx) if any(v)]
        svals = [sign_of[v] for v in cat.submodule_dimvectors(idx) if any(v)]
        if all(x > 0 for x in qvals):
            T |= bit
        if all(x >= 0 for x in qvals):
            Tbar |= bit
        if all(x < 0 for x in svals):
            F |= bit
        if all(x <= 0 for x in svals):
            Fbar |= bit
    return Quadruple(T, Tbar, F, Fbar)


def quadruple(cat, theta):
    """The four classes at theta, a vector of ints or Fractions: read from
    a table on the catalogue, keyed by the weight's sign vector."""
    w = _integer_weight(cat.algebra, theta)
    signs = tuple((x > 0) - (x < 0) for x in _pairings(w, _box(cat)))
    quad = _quadruple_of_signs(cat, signs)
    zero_bit = 1 << cat.zero_index()
    if quad.T & ~quad.Tbar or quad.F & ~quad.Fbar:
        raise ValueError("strict class not inside its weak class at %r" % (theta,))
    if quad.T & quad.Fbar != zero_bit or quad.Tbar & quad.F != zero_bit:
        raise ValueError("torsion and torsion-free classes overlap at %r" % (theta,))
    return quad


def classes_in(cat, theta, mask_T, mask_F):
    """Check mask_T inside the strict quotient-positive class and mask_F inside
    the strict sub-negative class at theta; used to re-verify separators.

    Both classes are closed under finite sums and summands (King, Quart. J.
    Math. 45 (1994)), so a member is in exactly when its Krull-Schmidt
    summands are; only the indecomposable summands of the members
    (torsion.summands) are tested, against their memoised quotient and
    submodule dimension vectors.  Every item's signature must be
    computable, not only the members'."""
    w = _integer_weight(cat.algebra, theta)
    return all(
        x > 0 for i in summands(cat, mask_T) for x in _pairings(w, cat.quotient_dimvectors(i))
    ) and all(
        x < 0 for i in summands(cat, mask_F) for x in _pairings(w, cat.submodule_dimvectors(i))
    )
