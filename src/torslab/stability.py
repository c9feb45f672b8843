"""Exact stability data over the window: the four classes cut out by a
weight vector (two weights are TF equivalent when their quadruples are
equal).  A weight is scaled to integers by a positive factor, which keeps
every sign, so all comparisons run on Python integers."""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from operator import mul

from .algebra import AlgebraError
from .torsion import indices_of


@dataclass(frozen=True)
class Quadruple:
    """Masks of the strict/weak quotient-positive and sub-negative classes."""

    T: int
    Tbar: int
    F: int
    Fbar: int


def _integer_weight(A, theta):
    """theta, a vector of ints or Fractions, scaled to integers by a positive
    factor: the weight of each vertex.  Every simple module is one-dimensional
    over its prime field, so the pairing of a weight with a dimension vector
    is their plain dot product."""
    if len(theta) != A.n:
        raise AlgebraError("length mismatch in pairing")
    den = lcm(*(t.denominator for t in theta))
    return [t.numerator * (den // t.denominator) for t in theta]


def _pairings(w, dimvectors):
    return [sum(map(mul, w, v)) for v in dimvectors if any(v)]


def quadruple(cat, theta):
    """The four classes at theta, a vector of ints or Fractions."""
    w = _integer_weight(cat.algebra, theta)
    zero_bit = 1 << cat.zero_index()
    T = Tbar = F = Fbar = 0
    for idx in range(len(cat)):
        bit = 1 << idx
        qvals = _pairings(w, cat.quotient_dimvectors(idx))
        svals = _pairings(w, cat.submodule_dimvectors(idx))
        if all(x > 0 for x in qvals):
            T |= bit
        if all(x >= 0 for x in qvals):
            Tbar |= bit
        if all(x < 0 for x in svals):
            F |= bit
        if all(x <= 0 for x in svals):
            Fbar |= bit
    if T & ~Tbar or F & ~Fbar:
        raise ValueError("strict class not inside its weak class at %r" % (theta,))
    if T & Fbar != zero_bit or Tbar & F != zero_bit:
        raise ValueError("torsion and torsion-free classes overlap at %r" % (theta,))
    return Quadruple(T, Tbar, F, Fbar)


def class_dimvectors(cat, mask):
    """Sorted nonzero dimension vectors of the members, for cone generators."""
    out = {
        cat.dims_of(i)
        for i in range(len(cat))
        if (mask >> i) & 1 and cat.rep(i).total_dim() > 0
    }
    return sorted(out)


def classes_in(cat, theta, mask_T, mask_F):
    """Check mask_T inside the strict quotient-positive class and mask_F inside
    the strict sub-negative class at theta; used to re-verify separators.

    Both classes are closed under finite sums and summands (King, Quart. J.
    Math. 45 (1994)), so a member is in exactly when its Krull-Schmidt
    summands are; only the indecomposable summands of the members are
    tested, against their memoised quotient and submodule dimension
    vectors.  Every member's signature must be computable."""
    w = _integer_weight(cat.algebra, theta)

    def summands(mask):
        return {s for i in indices_of(mask) for s in cat.signature(i)}

    return all(
        x > 0 for i in summands(mask_T) for x in _pairings(w, cat.quotient_dimvectors(i))
    ) and all(
        x < 0 for i in summands(mask_F) for x in _pairings(w, cat.submodule_dimvectors(i))
    )
