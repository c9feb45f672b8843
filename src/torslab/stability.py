"""Exact stability data over the window: the four classes cut out by a
weight vector (two weights are TF equivalent when their quadruples are
equal), the coordinatewise order, and robustness certificates.  All
comparisons run in Fraction arithmetic."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import euler_pairing


def parse_theta(text, n):
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != n:
        raise ValueError("expected %d weights, got %d" % (n, len(parts)))
    return tuple(Fraction(t) for t in parts)


@dataclass(frozen=True)
class Quadruple:
    """Masks of the strict/weak quotient-positive and sub-negative classes."""

    T: int
    Tbar: int
    F: int
    Fbar: int


def quadruple(cat, theta):
    A = cat.algebra
    zero_bit = 1 << cat.zero_index()
    T = Tbar = F = Fbar = 0
    for idx in range(len(cat)):
        bit = 1 << idx
        qvals = [
            euler_pairing(A, theta, v)
            for v in cat.quotient_dimvectors(idx)
            if any(v)
        ]
        svals = [
            euler_pairing(A, theta, v)
            for v in cat.submodule_dimvectors(idx)
            if any(v)
        ]
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


def cw_less(eta, theta):
    """Strict coordinatewise order on weight vectors."""
    return all(Fraction(t) - Fraction(e) > 0 for e, t in zip(eta, theta))


def epsilon_certificate(cat, theta, idx):
    """Sup-norm radius around theta keeping the item strictly quotient-positive.

    Any eta with max_i |eta_i - theta_i| < eps keeps every nonzero quotient
    value positive, since |eta(v) - theta(v)| <= eps * |v|_1.
    """
    A = cat.algebra
    best = None
    for v in cat.quotient_dimvectors(idx):
        if not any(v):
            continue
        val = euler_pairing(A, theta, v)
        if val <= 0:
            raise ValueError("item %d is not strictly quotient-positive at theta" % idx)
        bound = Fraction(val, sum(abs(x) for x in v))
        if best is None or bound < best:
            best = bound
    return best


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
