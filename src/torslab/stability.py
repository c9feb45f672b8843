"""Exact stability data over the window: the four classes cut out by a
weight vector (two weights are TF equivalent when their quadruples are
equal).  A weight is scaled to integers by a positive factor, which keeps
every sign, so all comparisons run on Python integers."""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from operator import mul

from .algebra import AlgebraError, end_constants


@dataclass(frozen=True)
class Quadruple:
    """Masks of the strict/weak quotient-positive and sub-negative classes."""

    T: int
    Tbar: int
    F: int
    Fbar: int


def quadruple(cat, theta):
    """The four classes at theta, a vector of ints or Fractions."""
    A = cat.algebra
    if len(theta) != A.n:
        raise AlgebraError("length mismatch in pairing")
    den = lcm(*(t.denominator for t in theta))
    w = [t.numerator * (den // t.denominator) * c for t, c in zip(theta, end_constants(A))]
    zero_bit = 1 << cat.zero_index()
    T = Tbar = F = Fbar = 0
    for idx in range(len(cat)):
        bit = 1 << idx
        qvals = [sum(map(mul, w, v)) for v in cat.quotient_dimvectors(idx) if any(v)]
        svals = [sum(map(mul, w, v)) for v in cat.submodule_dimvectors(idx) if any(v)]
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
    the strict sub-negative class at theta; used to re-verify separators."""
    quad = quadruple(cat, theta)
    return (mask_T & ~quad.T) == 0 and (mask_F & ~quad.F) == 0
