"""Torsion classes inside a catalogue window.

Subcategories of the window are bitmasks over catalogue indices.  Quotient
and submodule closures and both perps are closed under finite sums and
summands, so an item is in exactly when its Krull-Schmidt summands are: the
members are every item but those having a failing indecomposable as a
summand, read from one table per catalogue of the items that have each
indecomposable as a summand.  A generator is an item or an explicit module,
which may lie outside the window; indexed generators are replaced by their
indecomposable summands, the items whose row of that table meets the mask
(summands).  Both kinds take one path: each primitive reads the hom bases
between an item and a generator from the catalogue's table for an item and
computes them for a module.  A perp tests no item: it is the full mask less
the OR of one Hom-support row per generator g, the items with a nonzero map
to g (left perp) or from g (right perp), each row the OR of the summand
masks of the indecomposables with a nonzero hom basis to or from g, built
once per catalogue on first use.  Fac and Sub closures share one body, which
takes the summands of indexed generators at once and tests every other
indecomposable item by a trace (Fac) or reject (Sub) argument against the
hom bases, their rows cached per item, generator and direction, so
membership is exact for every item of the window even when the generating
modules live outside it.  An indexed generator with no rows to or from an
item adds nothing to its rank test, so each verdict is read from one table
keyed by the item, the indexed generators that have rows (the item's
support mask, read from those rows) and the explicit ones: the census
re-check, the closedness test of filt_closure and the witness tables run
each distinct rank test once.  Explicit modules stay keys of these tables
for the catalogue's lifetime.  The window is closed under submodules and
quotients, so in it T(C) is the left perp of C^perp and F(C) the right perp
of the left perp of C (Dickson, Trans. AMS 121 (1966)).  The census is
re-checked by two constructions independent of the perps: each class must
equal its fac_closure and its filt_closure.  One filtration DP serves the
whole census, with one bit per class in each item's integer.  It reads the
submodule lattices of indecomposable items only, because a class closed
under quotients is closed under summands (see filt_closure).

The four witnesses of a class are table lookups: one table per catalogue and
closure kind (Fac, Sub, right perp, left perp) maps each closure of one item
to the first item, in order of total dimension, that has it.  That item lies
in the class it is looked up in, so it is the class's first: i is in Fac(i)
and Sub(i); left_perp(i) = T puts i in T^perp; right_perp(i) = T^perp puts i
in the left perp of T^perp, which is T for a left perp T.  Census classes are
left perps, and so is a King class T_theta of the window: Y/t_theta(Y) is a
window quotient of Y in the torsion-free class of theta (King, Quart. J.
Math. 45 (1994)).  A witness outside its mask shows a mask that is no class
of the window, and raises WindowError.

The catalogue owns the state of its window: the census, the bound+1
catalogue with its brick count, the bound+1 certificate and the witnesses
of each class are memo tables on it, each built once, on first use.
"""

from __future__ import annotations

from .algebra import hom_space, memo
from .catalogue import BudgetError, Catalogue, WindowError
from .linalg import rank, row_space


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


@memo
def _summand_masks(cat):
    """Per indecomposable item i, in order of total dimension: (i, the mask
    of the items that have i as a Krull-Schmidt summand)."""
    out = {}
    for idx in cat.by_total_dim():
        for s in cat.signature(idx):
            out[s] = out.get(s, 0) | (1 << idx)
    return tuple(out.items())


def summands(cat, mask):
    """The indecomposable Krull-Schmidt summands of the items of mask, in
    order of total dimension: the items whose _summand_masks row meets the
    mask.  Every item's signature must be computable."""
    return tuple(i for i, having in _summand_masks(cat) if having & mask)


def _generators(cat, gens):
    """Accept a mask, or an iterable of indices and explicit
    representations.

    Returns (the indecomposable summands of the indexed generators, the
    nonzero explicit ones), two tuples.  Fac, Sub and both perps of a
    direct sum are those of its summands.
    """
    indexed, explicit = 0, []
    if isinstance(gens, int):
        indexed, gens = gens, ()
    for g in gens:
        if isinstance(g, int):
            indexed |= 1 << g
        elif g.total_dim() > 0:
            explicit.append(g)
    return summands(cat, indexed), tuple(explicit)


def _on_indecomposables(cat, member):
    """Mask of the items all of whose indecomposable summands pass member.

    Fac, Sub and both perps are closed under finite sums and summands, so a
    decomposable item is in exactly when its summands are: the members are
    every item but those that have a failing indecomposable as a summand.
    """
    out = (1 << len(cat)) - 1
    for i, having in _summand_masks(cat):
        if not member(i):
            out &= ~having
    return out


def _homs(cat, x, g, into):
    """A basis of Hom(x, g) when into, else of Hom(g, x), for an item x and
    a generator g: read from the catalogue's table for an index, computed
    for an explicit module."""
    if isinstance(g, int):
        return cat.hom_basis(x, g) if into else cat.hom_basis(g, x)
    X = cat.rep(x)
    return hom_space(X, g) if into else hom_space(g, X)


@memo
def _span_rows(cat, g, x, into):
    """Per vertex, a basis of the rows of all maps from item x to generator
    g when into, whose common kernel is the reject of g in x; else of the
    images of all maps from g to x (the columns), which span the trace of g
    in x."""
    homs = _homs(cat, x, g, into)
    p = cat.algebra.p
    return tuple(
        row_space([r for phi in homs for r in (phi[v] if into else zip(*phi[v]))], p)
        for v in range(cat.algebra.n)
    )


def _full_rank(cat, x, blocks):
    """Whether the per-vertex rows of the blocks have rank dim X_v at every
    vertex v of item x."""
    p = cat.algebra.p
    return all(
        rank([r for b in blocks for r in b[v]], p) == d
        for v, d in enumerate(cat.dims_of(x))
    )


@memo
def _span_support(cat, x, into):
    """Mask of the indecomposable items g whose _span_rows(cat, g, x, into)
    are nonempty: the only generators that add rows to x's rank test."""
    out = 0
    for g, _ in _summand_masks(cat):
        if any(_span_rows(cat, g, x, into)):
            out |= 1 << g
    return out


@memo
def _spans(cat, x, gmask, explicit, into):
    """Whether the _span_rows of the indecomposable items of gmask and of
    the explicit modules, to or from item x, have full rank at every vertex
    of x."""
    gens = indices_of(gmask) + explicit
    return _full_rank(cat, x, [_span_rows(cat, g, x, into) for g in gens])


def _span_closure(cat, gens, into):
    """sub_closure when into, else fac_closure.  A summand of an indexed
    generator is both a quotient and a submodule of it, so it is in at once.
    An indexed generator with no rows to or from x adds nothing to x's rank
    test, so x's verdict is read from one table keyed by x, the indexed
    generators that have rows (_span_support) and the explicit ones
    (_spans)."""
    items, explicit = _generators(cat, gens)
    own = mask_of(items)

    def member(x):
        return (own >> x) & 1 or _spans(cat, x, own & _span_support(cat, x, into), explicit, into)

    return _on_indecomposables(cat, member)


def fac_closure(cat, gens):
    """Items that are quotients of finite direct sums of the generators.

    An indecomposable X is in exactly when the images of all maps from the
    generators span X at every vertex.  Every item's Krull-Schmidt
    signature must be computable: on a catalogue where Catalogue.signature
    raises BudgetError, this raises too.
    """
    return _span_closure(cat, gens, False)


def sub_closure(cat, gens):
    """Items embedding in finite direct sums of the generators.

    An indecomposable X is in exactly when the maps into the generators
    have no common kernel: their rows have rank dim X_v at every vertex v.
    Every item's signature must be computable, as for fac_closure.
    """
    return _span_closure(cat, gens, True)


@memo
def _closure(cat, closure, gens):
    """closure(cat, gens), taken once per catalogue, closure and generators
    (a mask or a tuple of indices)."""
    return closure(cat, gens)


def _transpose(rows, width):
    """The bit matrix of rows, each cut to width bits, transposed: bit k of
    the i-th of the width outputs is bit i of rows[k]."""
    full = (1 << width) - 1
    # row k's bits, lowest first, as a string; the last row leads each column
    digits = [format(r & full, "0%db" % width)[::-1] for r in reversed(rows)]
    return [int("".join(col), 2) for col in zip(*digits)]


def filt_closure(cat, masks):
    """For each given set m, the items admitting a filtration with
    subquotients in m; the closures of all the masks, in their order.

    The DP over subquotient pairs, in order of total dimension: a nonzero
    item X is in when some proper submodule S is in and X/S is in m.
    Filt(m) is closed under extensions, so an item whose Krull-Schmidt
    summands are all in it is in it, whatever m is.

    When m is closed under quotients inside the window, Filt(m) is the
    window's part of the torsion class T(m) generated by m: T(m) is
    Filt(Fac(m)), and each subquotient of a filtration of a window item
    lies in the window and in Fac(m), hence in m.  T(m) is closed under
    summands as well as sums, so a decomposable item is in exactly when its
    summands are, and only indecomposable items read their submodule
    lattices.  That is no weaker a test of m: m holds the finite sums of
    its members, so the smallest item of Filt(m) outside m is
    indecomposable, and it is a one-step extension 0 -> S -> X -> Q -> 0 of
    members S and Q of m.  Closure under submodules is the mirror case,
    with a torsion-free class.  Both closures are read from the memoised
    fac_closure and sub_closure of m; the census post-check has taken the
    first already.  Only the masks closed under neither run the DP on
    decomposable items too.

    One DP serves every mask: each item holds one integer, bit k set when
    the item is in the closure of masks[k], and the masks are read item by
    item through the transposed bit matrix.  Every item's signature must
    be computable, as for fac_closure.
    """
    if not masks:
        return []
    width = len(cat)
    inside = _transpose(masks, width)
    open_ = 0
    for k, m in enumerate(masks):
        if not any(_closure(cat, c, m) == m for c in (fac_closure, sub_closure)):
            open_ |= 1 << k
    out = [0] * width
    out[cat.zero_index()] = (1 << len(masks)) - 1
    for idx in cat.by_total_dim():
        sig = cat.signature(idx)
        if not sig:
            continue
        if len(sig) > 1:
            got = out[sig[0]]
            for s in sig[1:]:
                got &= out[s]
            # masks closed under neither also read a decomposable item's lattice
            rest = open_ & ~got
        else:
            got, rest = 0, -1
        if rest:
            ext = 0
            for s, q in cat.subquot_pairs(idx):
                ext |= inside[q] & out[s]
            got |= ext & rest
        out[idx] = got
    return _transpose(out, len(masks))


@memo
def _hom_support(cat, g, into):
    """Mask of the items X with Hom(X, g) != 0 when into, else with
    Hom(g, X) != 0, for an indecomposable item or an explicit module g: the
    OR of the summand masks of the indecomposables with a nonzero hom basis
    to or from g.  One row per generator and direction, built on first
    use."""
    out = 0
    for i, having in _summand_masks(cat):
        if _homs(cat, i, g, into):
            out |= having
    return out


def _perp(cat, gens, into):
    """left_perp when into, else right_perp."""
    items, explicit = _generators(cat, gens)
    out = (1 << len(cat)) - 1
    for g in items + explicit:
        out &= ~_hom_support(cat, g, into)
    return out


def left_perp(cat, gens):
    """Items X with Hom(X, G) = 0 for every generator G.

    The full mask less the OR of the rows of items with a nonzero map to
    each generator, an indecomposable summand of an indexed one or an
    explicit module.  Every item's signature must be computable, even for
    generators with no nonzero item, as for fac_closure.
    """
    return _perp(cat, gens, True)


def right_perp(cat, gens):
    """Items X with Hom(G, X) = 0 for every generator G.

    The full mask less the OR of the rows of items with a nonzero map from
    each generator, an indecomposable summand of an indexed one or an
    explicit module.  Every item's signature must be computable, even for
    generators with no nonzero item, as for fac_closure.
    """
    return _perp(cat, gens, False)


def t_of(cat, gens):
    """Smallest torsion class containing the generators: a double perp."""
    return left_perp(cat, right_perp(cat, gens))


@memo
def semibrick_perp(cat, sb):
    """Right perp of the semibrick sb: the AND of its bricks' right perps,
    each taken once per catalogue, one AND per semibrick with its prefix's."""
    if not sb:
        return mask_of(range(len(cat)))
    return semibrick_perp(cat, sb[:-1]) & _closure(cat, right_perp, sb[-1:])


@memo
def enumerate_torsion_classes(cat):
    """All torsion classes met by the window, via the semibrick sweep.

    Each class is the double perp of a semibrick: one left perp per
    distinct semibrick_perp.  Every returned mask is then verified closed
    under quotients by fac_closure and under filtrations by filt_closure,
    whose DP over submodule lattices is a construction independent of the
    perps.  A class that passes the first check is closed under quotients,
    so filt_closure decides its decomposable items by their summands and
    reads the lattices of indecomposable items only; the smallest item its
    filtrations add would be indecomposable (see filt_closure).  Both
    checks run once per distinct input: fac_closure reads each item's
    verdict from its keyed table, and one filt_closure call takes every
    class after all have passed the first.  Completeness is certified
    separately by re-running with a strictly larger bound (see
    window_stable below).
    """
    perps = {semibrick_perp(cat, sb) for sb in cat.semibricks()}
    classes = sorted({left_perp(cat, f) for f in perps}, key=lambda m: (m.bit_count(), m))
    if any(_closure(cat, fac_closure, m) != m for m in classes):
        raise WindowError("semibrick sweep produced a non-closed class")
    if filt_closure(cat, classes) != classes:
        raise WindowError("semibrick sweep produced a non-closed class")
    return classes


# -- compactness and finiteness predicates -------------------------------------


@memo
def _first_generators(cat, closure):
    """Each closure of one item, mapped to the first item, in order of
    total dimension, that has it: one table per catalogue and closure."""
    out = {}
    for i in cat.by_total_dim():
        out.setdefault(closure(cat, (i,)), i)
    return out


def _witness(cat, mask, closure, target):
    """The first item, in order of total dimension, whose closure is the
    target, or None; WindowError when it lies outside the mask, which is
    then no class of the window (see the module docstring)."""
    i = _first_generators(cat, closure).get(target)
    if i is not None and not (mask >> i) & 1:
        raise WindowError("witness %d lies outside the mask: not a class of the window" % i)
    return i


def fac_single_witness(cat, tmask):
    """Smallest single module with Fac(M) equal to the class, or None."""
    return _witness(cat, tmask, fac_closure, tmask)


def sub_single_witness(cat, fmask):
    """Smallest single module with Sub(N) equal to the class, or None."""
    return _witness(cat, fmask, sub_closure, fmask)


def compact_witness(cat, tmask, fmask):
    """Smallest M in the class whose right perp is the class's, fmask, or
    None; then t_of(M) is the class."""
    return _witness(cat, tmask, right_perp, fmask)


def cocompact_witness(cat, tmask, fmask):
    """Smallest N in the right perp fmask of the class with left_perp(N)
    equal to the class, or None."""
    return _witness(cat, fmask, left_perp, tmask)


# -- window stability and the per-window tables -------------------------------


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


@memo
def above(cat):
    """The catalogue with every coordinate of the bound raised by one, or
    None when it exceeds the budget."""
    try:
        return Catalogue(cat.algebra, tuple(b + 1 for b in cat.bound))
    except BudgetError:
        return None


@memo
def bricks_above(cat):
    """The number of bricks in the bound+1 window, or None when that window
    or its brick census exceeds the budget."""
    big = above(cat)
    if big is None:
        return None
    try:
        return len(big.bricks())
    except BudgetError:
        return None


@memo
def certificate(cat):
    """window_stable against the bound+1 window, or None when that window
    or its census exceeds the budget."""
    # outside the try: a budget error of this window's own census is not a
    # missing certificate
    classes = enumerate_torsion_classes(cat)
    big = above(cat)
    if big is None:
        return None
    try:
        return window_stable(cat, classes, big)
    except BudgetError:
        return None


def ample(cat):
    """Whether the census is certified stable at bound+1."""
    cert = certificate(cat)
    return bool(cert and cert["stable"])


@memo
def witnesses(cat, tmask):
    """The right perp of a class, its Fac, Sub, compact and cocompact
    witnesses (indices or None), and the ff and bicompact flags they give."""
    fmask = right_perp(cat, tmask)
    got = {
        "perp": fmask,
        "fac": fac_single_witness(cat, tmask),
        "sub": sub_single_witness(cat, fmask),
        "compact": compact_witness(cat, tmask, fmask),
        "cocompact": cocompact_witness(cat, tmask, fmask),
    }
    got["ff"] = got["fac"] is not None and got["sub"] is not None
    got["bicompact"] = got["compact"] is not None and got["cocompact"] is not None
    return got
