"""Torsion classes inside a catalogue window.

Subcategories of the window are bitmasks over catalogue indices.  Quotient and
submodule closures are decided by trace and reject arguments against explicit
hom bases, so membership is exact for every item of the window even when the
generating modules live outside it.  Extension closure is the filtration DP
over submodule lattices; filtrations of an in-window module only ever use
in-window subquotients, so that closure is exact as well.
"""

from __future__ import annotations

from functools import cached_property

from .algebra import hom_space, memo
from .catalogue import BudgetError, Catalogue, WindowError
from .linalg import nullspace, rank


def mask_of(indices):
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def indices_of(mask):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


# -- closures (mask in, mask out) --------------------------------------------


def _norm_gens(cat, gens):
    """Accept a mask, an index iterable, or explicit representations.

    Returns a list of (index_or_None, rep); indexed generators use the
    catalogue's hom cache.
    """
    if isinstance(gens, int):
        pairs = [(i, cat.rep(i)) for i in indices_of(gens)]
    else:
        pairs = [
            (g, cat.rep(g)) if isinstance(g, int) else (None, g) for g in gens
        ]
    return [(i, r) for i, r in pairs if r.total_dim() > 0]


def _homs(cat, src, dst):
    si, sr = src
    di, dr = dst
    if si is not None and di is not None:
        return cat.hom_basis(si, di)
    return hom_space(sr, dr)


def fac_closure(cat, gens):
    """Items that are quotients of finite direct sums of the generators."""
    pairs = _norm_gens(cat, gens)
    A = cat.algebra
    out = 0
    for idx in range(len(cat)):
        X = cat.rep(idx)
        if X.total_dim() == 0:
            out |= 1 << idx
            continue
        spans = [[] for _ in range(A.n)]
        for gi, g in pairs:
            for phi in _homs(cat, (gi, g), (idx, X)):
                for v in range(A.n):
                    m = phi[v]
                    for c in range(g.dims[v]):
                        spans[v].append(tuple(m[r][c] for r in range(X.dims[v])))
        if all(rank(spans[v], A.p) == X.dims[v] for v in range(A.n)):
            out |= 1 << idx
    return out


def sub_closure(cat, gens):
    """Items embedding in finite direct sums of the generators."""
    pairs = _norm_gens(cat, gens)
    A = cat.algebra
    out = 0
    for idx in range(len(cat)):
        X = cat.rep(idx)
        if X.total_dim() == 0:
            out |= 1 << idx
            continue
        rows = [[] for _ in range(A.n)]
        for gi, g in pairs:
            for phi in _homs(cat, (idx, X), (gi, g)):
                for v in range(A.n):
                    rows[v].extend(phi[v])
        if all(
            not nullspace(tuple(rows[v]), X.dims[v], A.p) for v in range(A.n)
        ):
            out |= 1 << idx
    return out


def filt_closure(cat, mask):
    """Items admitting a filtration with subquotients in the given set."""
    out = 1 << cat.zero_index()
    for idx in cat.by_total_dim():
        if (out >> idx) & 1 or cat.rep(idx).total_dim() == 0:
            continue
        for s, q in cat.subquot_pairs(idx):
            if (mask >> q) & 1 and (out >> s) & 1:
                out |= 1 << idx
                break
    return out


def left_perp(cat, gens):
    """Items X with Hom(X, G) = 0 for every generator G."""
    pairs = _norm_gens(cat, gens)
    out = 0
    for idx in range(len(cat)):
        X = cat.rep(idx)
        if all(not _homs(cat, (idx, X), (gi, g)) for gi, g in pairs):
            out |= 1 << idx
    return out


def right_perp(cat, gens):
    """Items X with Hom(G, X) = 0 for every generator G."""
    pairs = _norm_gens(cat, gens)
    out = 0
    for idx in range(len(cat)):
        X = cat.rep(idx)
        if all(not _homs(cat, (gi, g), (idx, X)) for gi, g in pairs):
            out |= 1 << idx
    return out


def t_of(cat, gens):
    """Smallest torsion class containing the generators (window restriction)."""
    return filt_closure(cat, fac_closure(cat, gens))


def f_of(cat, gens):
    """Smallest torsion-free class containing the generators."""
    return filt_closure(cat, sub_closure(cat, gens))


def torsion_pair_of(cat, tmask):
    """(T, T^perp); raises when the pair is not reflexive inside the window."""
    fmask = right_perp(cat, tmask)
    back = left_perp(cat, fmask)
    if back != tmask:
        raise WindowError(
            "perp of perp differs from the class: window too small or not a torsion class"
        )
    return tmask, fmask


def enumerate_torsion_classes(cat):
    """All torsion classes met by the window, via the semibrick sweep.

    Every returned mask is verified closed under quotients and filtrations
    inside the window.  Completeness is certified separately by re-running
    with a strictly larger bound (see window_stable below).
    """
    seen = {}
    for sb in cat.semibricks():
        m = t_of(cat, mask_of(sb))
        if m not in seen:
            seen[m] = sb
    for m in seen:
        if fac_closure(cat, m) != m or filt_closure(cat, m) != m:
            raise WindowError("semibrick sweep produced a non-closed class")
    return sorted(seen, key=lambda m: (m.bit_count(), m))


def hasse_edges(classes):
    """Cover relations of the inclusion order on a list of masks."""
    edges = []
    for i, a in enumerate(classes):
        for j, b in enumerate(classes):
            if a == b or (a & b) != a:
                continue
            if any(
                c != a and c != b and (a & c) == a and (c & b) == c
                for c in classes
            ):
                continue
            edges.append((i, j))
    return tuple(edges)


# -- compactness and finiteness predicates -------------------------------------


def _candidates(cat, mask):
    return [i for i in cat.by_total_dim() if (mask >> i) & 1]


@memo
def fac_of_single(cat, i):
    return fac_closure(cat, (i,))


@memo
def sub_of_single(cat, i):
    return sub_closure(cat, (i,))


@memo
def t_of_single(cat, i):
    return filt_closure(cat, fac_of_single(cat, i))


@memo
def left_perp_of_single(cat, i):
    return left_perp(cat, (i,))


def fac_single_witness(cat, tmask):
    """Smallest single module with Fac(M) equal to the class, or None."""
    for i in _candidates(cat, tmask):
        if fac_of_single(cat, i) == tmask:
            return i
    return None


def sub_single_witness(cat, fmask):
    for i in _candidates(cat, fmask):
        if sub_of_single(cat, i) == fmask:
            return i
    return None


def compact_witness(cat, tmask):
    """Smallest M with t_of(M) equal to the class, or None."""
    for i in _candidates(cat, tmask):
        if t_of_single(cat, i) == tmask:
            return i
    return None


def cocompact_witness(cat, tmask, fmask):
    """Smallest N in the right perp fmask of the class with left_perp(N)
    equal to the class, or None."""
    for i in _candidates(cat, fmask):
        if left_perp_of_single(cat, i) == tmask:
            return i
    return None


def cocompact_pair_of(cat, idx):
    """The torsion pair (perp of M, smallest torsion-free class containing M)."""
    tmask = left_perp(cat, (idx,))
    fmask = f_of(cat, (idx,))
    if right_perp(cat, tmask) != fmask:
        raise WindowError("window too small to close the pair of %d" % idx)
    return tmask, fmask


def widely_generated_witness(cat, tmask):
    """Smallest semibrick generating the class, or None."""
    for sb in sorted(cat.semibricks(), key=lambda s: (len(s), s)):
        if mask_of(sb) & ~tmask:
            continue
        if t_of(cat, mask_of(sb)) == tmask:
            return sb
    return None


def functorially_finite(cat, tmask):
    """Fac-single and Sub-single witnesses for (T, T^perp), or None."""
    fmask = right_perp(cat, tmask)
    m = fac_single_witness(cat, tmask)
    if m is None:
        return None
    n = sub_single_witness(cat, fmask)
    if n is None:
        return None
    return (m, n)


# -- window stability and the window ------------------------------------------


def window_stable(cat_small, classes_small, cat_big):
    """Compare the census with the one of a larger window, restricting each
    bigger class item by item."""
    small_of_big = {}
    for j in range(len(cat_big)):
        if cat_small.in_window(cat_big.dims_of(j)):
            small_of_big[j] = cat_small.find_index(cat_big.rep(j))
    classes_big = enumerate_torsion_classes(cat_big)
    restricted = set()
    for m in classes_big:
        r = 0
        for j in indices_of(m):
            if j in small_of_big:
                r |= 1 << small_of_big[j]
        restricted.add(r)
    return {
        "stable": restricted == set(classes_small)
        and len(classes_big) == len(classes_small),
        "count_big": len(classes_big),
    }


class Window:
    """One algebra at one bound: the catalogue, and the torsion census, the
    bound+1 catalogue, the ample-bound certificate and the per-class
    witnesses, each built once, on first use."""

    def __init__(self, algebra, bound):
        self.algebra = algebra
        self.bound = tuple(bound)
        self.cat = Catalogue(algebra, self.bound)

    @cached_property
    def classes(self):
        return enumerate_torsion_classes(self.cat)

    @cached_property
    def above(self):
        """The catalogue with every coordinate of the bound raised by one,
        or None when it exceeds the budget."""
        try:
            return Catalogue(self.algebra, tuple(b + 1 for b in self.bound))
        except BudgetError:
            return None

    @cached_property
    def cert(self):
        """window_stable against the bound+1 window, or None when that
        window or its census exceeds the budget."""
        # outside the try: a budget error of this window's own census is
        # not a missing certificate
        classes = self.classes
        if self.above is None:
            return None
        try:
            return window_stable(self.cat, classes, self.above)
        except BudgetError:
            return None

    @property
    def ample(self):
        """Whether the census is certified stable at bound+1."""
        return bool(self.cert and self.cert["stable"])

    @memo
    def witnesses(self, tmask):
        """The right perp of a class, its Fac, Sub, compact and cocompact
        witnesses (indices or None), and the ff and bicompact flags they
        give."""
        cat = self.cat
        fmask = right_perp(cat, tmask)
        got = {
            "perp": fmask,
            "fac": fac_single_witness(cat, tmask),
            "sub": sub_single_witness(cat, fmask),
            "compact": compact_witness(cat, tmask),
            "cocompact": cocompact_witness(cat, tmask, fmask),
        }
        got["ff"] = got["fac"] is not None and got["sub"] is not None
        got["bicompact"] = got["compact"] is not None and got["cocompact"] is not None
        return got
