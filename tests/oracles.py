"""Reference implementations, kept as test oracles.

Each closure here tests every item of the catalogue against every generator,
decomposable or not, with hom spaces computed straight from the modules.
``submodule_families`` joins every submodule with every other one, seeded by
the ``cyclic_closure`` of every nonzero vector, its own arrow-by-arrow
closure, where the catalogue spans each cyclic submodule from the path
actions of its item.  With the code under test they share only
``hom_space`` and the F_p kernels: no Krull-Schmidt reduction, cached rows,
path-action table or seed-only join.  They are slow on
purpose.  The closures take one mask at a time and test every item anew,
where ``torslab.torsion`` reads each Fac and Sub verdict from a table keyed
by the item and the generators that map to or from it, and runs one
filtration DP for a whole list of masks.  ``filt_closure`` runs the
filtration DP over the subquotient pairs of every item, decomposable or
not; it shares ``Catalogue.subquot_pairs`` with ``torslab.torsion``.
``covered_mask`` is the rank form of a presentation map's perp class on
every item, from path matrices built per item; it shares only
``path_matrix`` and ``rank`` with
``torslab.presentations``.
``is_isomorphic_rep`` sweeps a hom space for an invertible map; the
catalogue locates modules by orbit labels and runs no such test.
``is_brick`` sweeps End(X) for a nonzero map that is not invertible, where
the catalogue reads submodule lattices.  ``decompose_rep`` splits an explicit
representation by Fitting's lemma and recurses on the explicit image and
kernel, where ``Catalogue.signature`` locates each part in the catalogue and
reads its memoised signature; they share ``_combine`` and ``SWEEP_CAP``.
``torsion_classes`` takes the double perp ``t_of`` of every semibrick, where
the census takes one left perp per distinct right perp of a semibrick.
``transition_images`` moves each block code of the orbit sweep by decoding
it and taking matrix products, where the catalogue tabulates linear maps on
groups of the code's digits.
``sweep_orbits`` is the orbit sweep one popped code at a time: it splits the
code into arrow blocks and moves each block through the generator's
``transition_images`` table, where the catalogue reads one permutation of all
codes per generator; they share ``_gl_generators`` and the relation check.
``f_of``, the smallest torsion-free class as the double perp of
``torslab.torsion``, lives here because only the tests read it.
``numdis_checks`` solves all four separation legs for every class, where the
suite solves them once per distinct pair of class cones, spans the cones by
``class_cone``, and takes each
separator from ``separating_functional_pinned``: one program per objective,
each earlier optimum pinned by an equality row, where ``torslab.cones`` runs
one lexicographic program.  It shares the feasibility test and the
single-objective simplex with ``torslab.cones``.
``sub_and_quotient`` builds a submodule and a quotient through explicit
inclusion and projection matrices, the projection taken from the residuals
of the unit vectors, where ``torslab.algebra`` reads coordinates straight
from the RREF basis; they share ``residual`` and ``mat_vec``.
``assert_module_map`` checks that per-vertex matrices commute with every
arrow, with every product's shape given explicitly.

``rref_q`` is Gauss-Jordan elimination in ``Fraction`` arithmetic; the
package itself eliminates over Q only with fraction-free integer pivots.
``solve_program`` and ``dd_rays`` are the cone engines in plain ``Fraction``
arithmetic: a rational simplex tableau normalised at every pivot and a double
description that projects with rational coefficients.  They share nothing
with ``torslab.cones`` but ``ConeError``; ``dd_rays`` decides adjacency by
the rank of the constraints tight on both rays, from ``rref_q``, where the
engine compares zero sets.  ``cone_contains`` decides membership on the
oracle simplex.  ``class_cone`` spans a class's cone by the dimension
vector of every member, where ``torslab.cones`` reads one item mask per
primitive direction; they share ``RationalCone.from_vectors``.  ``quadruple`` pairs each weight with each dimension vector
in ``Fraction`` for every sign test.

``dense_rref`` is Gauss-Jordan elimination over F_p on dense rows, each row
operation sweeping the full width, and ``nullspace`` reads a kernel basis
from it; they share no code with ``torslab.linalg``, whose ``nullspace``
solves the same basis from its sparse echelon rows.  ``sub_closure`` and ``chain_data``
take their kernels from them.

``hom_complex_columns`` and ``chain_data`` build the Hom complex of two
two-term complexes one slot at a time, one algebra product per slot and
summand, with no product table, as dense columns placed through a slot
index of each layout (``torslab.silting`` places by block offset), and
eliminate with ``dense_rref``; they share the slot layouts, ``residual``
and ``Algebra.mult`` with ``torslab.silting``.
``mat_compose`` multiplies algebra-valued matrices by testing every pair
of cells, where ``torslab.silting`` visits the nonzero cells of each column
of the inner matrix only; they share ``Algebra.mult``.
``left_approximates`` and ``right_approximates`` recompose every kept copy on
every test, and ``strip_copies`` restarts its sweep after each removal; they
take the null-homotopic span and the chain-map dimension from ``chain_data``
here, and share the homotopy bases, composites and rank with
``torslab.silting``.  ``reduce_chain`` strips invertible components the way
the reduction did before it worked in place: each elimination rebuilds the
whole differential and copies every cell.  It shares the pivot search, the
local inverse and the cell subtraction with ``torslab.silting``.
``positive_combination`` solves each face and weight with its own augmented
``rref_q``, and ``rigidity`` searches every subset of every vertex's rays
with it, with no inverse table.  ``enumerate_silting`` mutates every summand
of every expanded vertex, so each edge is derived from both ends; it shares
``mutate`` with ``torslab.silting``.

``render_json`` is the stdlib encoder at ``indent=2``, nested generators and
all; ``torslab.reports`` appends the same bytes to one list.  They share
``_json_default``, the Fraction-to-string rule.

``zero_relation_basis`` and ``zero_relation_product`` are the path algebra
modulo length-2 zero relations read off the quiver alone, with no linear
algebra: a path is a basis path when no relation is one of its consecutive
arrow pairs, and a product of two basis paths is their concatenation or 0.
They share nothing with ``torslab.algebra``.

``witness_scan`` tries the items of a mask one at a time, in order of total
dimension, for one whose closure is the target, where ``torslab.torsion``
looks the target up in one table per catalogue and closure kind; they share
the closures and perps.

``tbar_map_search`` builds the presentation space of every level and every
map of it, the zero map first, and reads each map's class through
``tbar_of_map``, where ``torslab.reports`` reads the zero map's class from
its table before building anything and takes each level's cost cap from
path counts; they share the presentation spaces, the maps, ``tbar_of_map``
and the two constants.

``zero_module``, ``simple_module`` and ``reduced`` are helpers that only the
tests call: the zero and simple representations, and the package's chain
reduction applied to one two-term complex.
"""

from __future__ import annotations

import itertools
import json
from array import array
from fractions import Fraction
from math import gcd, lcm

from torslab import cones, torsion
from torslab.algebra import (
    AlgebraError,
    Representation,
    hom_space,
    image_submodule,
    kernel_submodule,
    submodule_rep,
)
from torslab.catalogue import SWEEP_CAP, BudgetError, Catalogue, WindowError, _combine, _gl_generators
from torslab.cones import (
    ConeError,
    RationalCone,
    difference_cone,
    intersect_trivially,
    is_strongly_convex,
    dd_intersection_nontrivial,
)
from torslab.linalg import identity, inverse, mat_mul, mat_vec, rank, residual, row_space, zeros
from torslab.presentations import map_from_coeffs, presentation_space, tbar_of_map
from torslab.reports import (
    TBAR_LEVEL_MAX,
    TBAR_SWEEP_COST,
    _check,
    _dims,
    _json_default,
    _witness_dims,
)
from torslab.silting import (
    SiltingError,
    TwoTermComplex,
    _elem_sub,
    _find_pivot,
    _layout,
    _local_inverse,
    _pair_compose,
    _reduce_chain,
    _unvec,
    _vec,
    hom_k_basis,
    initial_silting,
    mutate,
    vertex_key,
)
from torslab.stability import Quadruple, classes_in
from torslab.torsion import (
    enumerate_torsion_classes,
    indices_of,
    mask_of,
    t_of,
    witnesses,
)


# -- test-only modules and complexes ------------------------------------------------


def zero_module(A):
    return Representation(A, (0,) * A.n, tuple(() for _ in A.arrows), check=False)


def simple_module(A, i):
    if not 0 <= i < A.n:
        raise AlgebraError("invalid vertex %r" % (i,))
    dims = tuple(1 if v == i else 0 for v in range(A.n))
    mats = [zeros(dims[a.target], dims[a.source]) for a in A.arrows]
    return Representation(A, dims, mats, check=False)


def reduced(U):
    """Strip invertible components of the differential; same homotopy type."""
    terms, diffs = _reduce_chain(U.algebra, [U.minus, U.zero], [U.mat])
    return TwoTermComplex(U.algebra, terms[0], terms[1], diffs[0])


# -- path algebras with zero relations ----------------------------------------------


def zero_relation_basis(n, arrows, zero_pairs):
    """The paths with no pair of ``zero_pairs`` as consecutive arrows, as
    (source, arrow indices), or None when such paths have every length.

    arrows is a sequence of (source, target).  A path of len(arrows) + 1
    arrows repeats an arrow, so it runs around a cycle of allowed
    consecutive pairs, which can be repeated without end; with no such path
    the allowed paths are finitely many."""
    after = [
        [b for b, (src, _) in enumerate(arrows) if src == tgt and (a, b) not in zero_pairs]
        for a, (_, tgt) in enumerate(arrows)
    ]
    paths = [(v, ()) for v in range(n)]
    layer = [(src, (a,)) for a, (src, _) in enumerate(arrows)]
    for _ in range(len(arrows)):
        paths += layer
        layer = [(src, arrs + (b,)) for src, arrs in layer for b in after[arrs[-1]]]
    return None if layer else set(paths)


def zero_relation_product(arrows, zero_pairs, u, v):
    """The product of two allowed paths: their concatenation, or None when
    it is 0 (the ends do not meet, or the arrows at the joint are a zero
    pair)."""
    (su, au), (sv, av) = u, v
    if (arrows[au[-1]][1] if au else su) != sv:
        return None
    if au and av and (au[-1], av[0]) in zero_pairs:
        return None
    return (su, au + av)


# -- report text --------------------------------------------------------------------


def render_json(obj, timings=None):
    """Report text straight from json.dumps, sorted keys and indent 2."""
    if timings is not None:
        obj = dict(obj)
        obj["timings"] = timings
    return json.dumps(obj, sort_keys=True, indent=2, default=_json_default) + "\n"


# -- dense Gauss-Jordan elimination over F_p ----------------------------------------


def dense_rref(rows, p):
    """Reduced row echelon form over F_p; returns (nonzero rows, pivot column
    indices).  Every row operation sweeps the full width."""
    work = [list(r) for r in rows]
    if not work:
        return (), ()
    pivots = []
    r = 0
    for c in range(len(work[0])):
        pr = next((i for i in range(r, len(work)) if work[i][c] % p), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = pow(work[r][c], p - 2, p)
        work[r] = [(x * inv) % p for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] % p:
                f = work[i][c] % p
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def nullspace(rows, ncols, p):
    """Basis of the right kernel of the dense rows, read from ``dense_rref``:
    one vector per free column, 1 there and 0 at the other free columns."""
    red, piv = dense_rref(rows, p)
    basis = []
    for fc in (c for c in range(ncols) if c not in piv):
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(red, piv):
            v[pc] = -row[fc] % p
        basis.append(tuple(v))
    return tuple(basis)


def _modules(cat, gens):
    """The nonzero generators as representations."""
    if isinstance(gens, int):
        gens = indices_of(gens)
    reps = [cat.rep(g) if isinstance(g, int) else g for g in gens]
    return [r for r in reps if r.total_dim() > 0]


def fac_closure(cat, gens):
    """Items whose images of all maps from the generators span them."""
    gens = _modules(cat, gens)
    A = cat.algebra
    out = 0
    for idx in range(len(cat)):
        X = cat.rep(idx)
        spans = [[] for _ in range(A.n)]
        for g in gens:
            for phi in hom_space(g, X):
                for v in range(A.n):
                    m = phi[v]
                    for c in range(g.dims[v]):
                        spans[v].append(tuple(m[r][c] for r in range(X.dims[v])))
        if all(rank(spans[v], A.p) == X.dims[v] for v in range(A.n)):
            out |= 1 << idx
    return out


def sub_closure(cat, gens):
    """Items on which the maps into the generators have no common kernel."""
    gens = _modules(cat, gens)
    A = cat.algebra
    out = 0
    for idx in range(len(cat)):
        X = cat.rep(idx)
        rows = [[] for _ in range(A.n)]
        for g in gens:
            for phi in hom_space(X, g):
                for v in range(A.n):
                    rows[v].extend(phi[v])
        if all(not nullspace(tuple(rows[v]), X.dims[v], A.p) for v in range(A.n)):
            out |= 1 << idx
    return out


def left_perp(cat, gens):
    """Items X with Hom(X, G) = 0 for every generator G."""
    gens = _modules(cat, gens)
    out = 0
    for idx in range(len(cat)):
        X = cat.rep(idx)
        if all(not hom_space(X, g) for g in gens):
            out |= 1 << idx
    return out


def right_perp(cat, gens):
    """Items X with Hom(G, X) = 0 for every generator G."""
    gens = _modules(cat, gens)
    out = 0
    for idx in range(len(cat)):
        X = cat.rep(idx)
        if all(not hom_space(g, X) for g in gens):
            out |= 1 << idx
    return out


def f_of(cat, gens):
    """Smallest torsion-free class containing the generators: the double perp
    of ``torslab.torsion``, the dual of its ``t_of``."""
    return torsion.right_perp(cat, torsion.left_perp(cat, gens))


def torsion_pair_of(cat, tmask):
    """(T, T^perp); raises when the pair is not reflexive inside the window."""
    fmask = torsion.right_perp(cat, tmask)
    back = torsion.left_perp(cat, fmask)
    if back != tmask:
        raise WindowError(
            "perp of perp differs from the class: window too small or not a torsion class"
        )
    return tmask, fmask


def witness_scan(cat, mask, closure, target):
    """The first item of the mask, in order of total dimension, whose
    closure (one of the closures or perps of ``torslab.torsion``) is the
    target, or None."""
    for i in cat.by_total_dim():
        if (mask >> i) & 1 and closure(cat, (i,)) == target:
            return i
    return None


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


def covered_mask(cat, U):
    """Items X on which composition with U, Hom(P0, X) -> Hom(P1, X), is onto.

    Hom(P(v), X) is X_v, and the entry U[l][k], a combination of paths from
    zero[l] to minus[k], acts through the path matrices of X.  Every item
    is tested, decomposable or not, with its path matrices built afresh.
    """
    A = cat.algebra
    p = A.p
    out = 0
    for idx in range(len(cat)):
        X = cat.rep(idx)
        rows = []
        for k, mv in enumerate(U.minus):
            for r in range(X.dims[mv]):
                row = []
                for l, zv in enumerate(U.zero):
                    block = [0] * X.dims[zv]
                    for b, c in U.mat[l][k].items():
                        pm = X.path_matrix(A.basis[b])
                        block = [(x + c * y) % p for x, y in zip(block, pm[r])]
                    row.extend(block)
                rows.append(tuple(row))
        if rank(tuple(rows), p) == len(rows):
            out |= 1 << idx
    return out


def is_isomorphic_rep(M, N, cap=SWEEP_CAP):
    """Exhaustive search for an invertible homomorphism."""
    if M.dims != N.dims:
        return False
    if M.total_dim() == 0:
        return True
    p = M.algebra.p
    homs = hom_space(M, N)
    r = len(homs)
    if r == 0:
        return False
    if len(hom_space(N, M)) != r:
        return False
    if p**r > cap:
        raise BudgetError("isomorphism sweep too large: %d^%d" % (p, r))
    for coeffs in itertools.product(range(p), repeat=r):
        if not any(coeffs):
            continue
        phi = _combine(homs, coeffs, p)
        if all(inverse(m, p) is not None for m in phi if m):
            return True
    return False


def is_brick(cat, idx, cap=SWEEP_CAP):
    """Exhaustive sweep of End(X) for a nonzero map that is not invertible;
    X must be nonzero."""
    X = cat.rep(idx)
    if X.total_dim() == 0:
        return False
    p = X.algebra.p
    ends = hom_space(X, X)
    r = len(ends)
    if p**r > cap:
        raise BudgetError("endomorphism sweep too large: %d^%d" % (p, r))
    for coeffs in itertools.product(range(p), repeat=r):
        if not any(coeffs):
            continue
        phi = _combine(ends, coeffs, p)
        if any(inverse(m, p) is None for m in phi if m):
            return False
    return True


def decompose_rep(M):
    """Indecomposable direct summands of an explicit representation, as
    explicit representations: the first endomorphism (basis elements, then
    every other nonzero combination) whose Fitting power has rank strictly
    between 0 and dim M splits M into image and kernel, each split in turn
    without looking it up anywhere."""
    total = M.total_dim()
    if total == 0:
        return []
    p = M.algebra.p
    ends = hom_space(M, M)
    r = len(ends)
    if p**r > SWEEP_CAP:
        raise BudgetError("endomorphism sweep too large: %d^%d" % (p, r))
    kpow = total.bit_length()

    def split_by(phi):
        for _ in range(kpow):
            phi = tuple(mat_mul(m, m, p, inner=len(m)) for m in phi)
        if 0 < sum(rank(m, p) for m in phi) < total:
            subs = (image_submodule(phi, M, M), kernel_submodule(phi, M, M))
            return [s for sub in subs for s in decompose_rep(submodule_rep(M, sub))]
        return None

    for phi in ends:
        got = split_by(phi)
        if got is not None:
            return got
    for coeffs in itertools.product(range(p), repeat=r):
        if not any(coeffs):
            continue
        if coeffs.count(0) >= r - 1:
            continue  # single basis elements already tried
        got = split_by(_combine(ends, coeffs, p))
        if got is not None:
            return got
    return [M]


def transition_images(p, dt, ds, g, h, codes):
    """Code of g.m.h for each of the given codes of a dt x ds block m (g or h
    None: that side does not move), by decoding the code and taking matrix
    products."""
    tab = []
    for bcode in codes:
        flat = [bcode // p**k % p for k in range(dt * ds)]
        m = tuple(tuple(flat[i * ds : (i + 1) * ds]) for i in range(dt))
        if g is not None:
            m = mat_mul(g, m, p)
        if h is not None:
            m = mat_mul(m, h, p)
        tab.append(sum(x * p**k for k, x in enumerate(x for row in m for x in row)))
    return tab


def sweep_orbits(A, dims):
    """(first code of every code's orbit, first codes satisfying the
    relations) for one dimension vector, one popped code at a time."""
    p = A.p
    shapes = [(dims[a.target], dims[a.source]) for a in A.arrows]
    sizes = [p ** (dt * ds) for dt, ds in shapes]
    actions = []
    for v in range(A.n):
        for g in _gl_generators(dims[v], p):
            ginv = inverse(g, p)
            actions.append(
                [
                    transition_images(
                        p,
                        dt,
                        ds,
                        g if a.target == v else None,
                        ginv if a.source == v else None,
                        range(size),
                    )
                    if v in (a.source, a.target)
                    else None
                    for a, (dt, ds), size in zip(A.arrows, shapes, sizes)
                ]
            )
    bases = [1]
    for size in sizes:
        bases.append(bases[-1] * size)
    total = bases.pop()
    orbit = array("i", [-1]) * total
    firsts = []
    for c0 in range(total):
        if orbit[c0] >= 0:
            continue
        orbit[c0] = c0
        frontier = [c0]
        while frontier:
            code = frontier.pop()
            blocks = [code // base % size for base, size in zip(bases, sizes)]
            for tables in actions:
                nc = 0
                for tab, b, base in zip(tables, blocks, bases):
                    nc += (b if tab is None else tab[b]) * base
                if orbit[nc] < 0:
                    orbit[nc] = c0
                    frontier.append(nc)
        mats = []
        for (dt, ds), base, size in zip(shapes, bases, sizes):
            b = c0 // base % size
            flat = [b // p**k % p for k in range(dt * ds)]
            mats.append(tuple(tuple(flat[i * ds : (i + 1) * ds]) for i in range(dt)))
        try:
            Representation(A, dims, mats)
        except AlgebraError:
            continue
        firsts.append(c0)
    return orbit, firsts


def torsion_classes(cat):
    """The census as t_of of every semibrick, one double perp per semibrick,
    ordered as enumerate_torsion_classes orders it."""
    classes = {t_of(cat, mask_of(sb)) for sb in cat.semibricks()}
    return sorted(classes, key=lambda m: (m.bit_count(), m))


def cyclic_closure(M, v0, vec):
    """The submodule generated by vec in M_v0, closed arrow by arrow: the
    image of each spanning vector along each arrow out of its vertex joins
    the span at the arrow's target when it lies outside it."""
    A = M.algebra
    p = A.p
    spans = [[] for _ in range(A.n)]
    spans[v0] = [tuple(vec)]
    work = [(v0, tuple(vec))]
    while work:
        u, w = work.pop()
        for ai, a in enumerate(A.arrows):
            if a.source != u:
                continue
            img = mat_vec(M.mats[ai], w, p)
            if any(residual(img, row_space(tuple(spans[a.target]), p), p)):
                spans[a.target].append(img)
                work.append((a.target, img))
    return tuple(row_space(tuple(spans[v]), p) for v in range(A.n))


def submodule_families(cat, idx):
    """All submodules by joining every family with every other family."""
    M = cat.rep(idx)
    A = cat.algebra
    p = A.p
    fams = {tuple(() for _ in range(A.n))}
    for v in range(A.n):
        for vec in itertools.product(range(p), repeat=M.dims[v]):
            if any(vec):
                fams.add(cyclic_closure(M, v, vec))
    queue = list(fams)
    while queue:
        fam = queue.pop()
        for other in list(fams):
            joined = tuple(row_space(fam[v] + other[v], p) for v in range(A.n))
            if joined not in fams:
                fams.add(joined)
                queue.append(joined)
    return tuple(sorted(fams))



def sub_and_quotient(M, sub):
    """(S, incl, Q, proj) for an arrow-stable tuple of per-vertex RREF bases:
    the submodule S with its per-vertex inclusion matrices (columns = the
    basis rows), and the quotient Q with its per-vertex projection matrices
    (row c = the residuals of the unit vectors at free column c)."""
    A = M.algebra
    p = A.p
    dims = tuple(len(sub[v]) for v in range(A.n))
    mats = []
    for ai, a in enumerate(A.arrows):
        s, t = a.source, a.target
        pivots = [row.index(1) for row in sub[t]]
        m = [[0] * dims[s] for _ in range(dims[t])]
        for cidx, vec in enumerate(sub[s]):
            img = mat_vec(M.mats[ai], vec, p)
            if any(residual(img, sub[t], p)):
                raise AlgebraError("subspace family is not arrow stable")
            for i, pc in enumerate(pivots):
                m[i][cidx] = img[pc]
        mats.append(tuple(tuple(row) for row in m))
    S = Representation(A, dims, mats, check=False)
    incl = tuple(
        tuple(tuple(row[r] for row in sub[v]) for r in range(M.dims[v])) for v in range(A.n)
    )
    projs = []
    frees = []
    for v in range(A.n):
        pivset = {row.index(1) for row in sub[v]}
        free = [j for j in range(M.dims[v]) if j not in pivset]
        frees.append(free)
        cols = [residual(e, sub[v], p) for e in identity(M.dims[v])]
        projs.append(tuple(tuple(w[c] for w in cols) for c in free))
    qdims = tuple(len(f) for f in frees)
    mats = []
    for ai, a in enumerate(A.arrows):
        s, t = a.source, a.target
        m = [[0] * qdims[s] for _ in range(qdims[t])]
        for cidx, j in enumerate(frees[s]):
            img = tuple(M.mats[ai][r][j] for r in range(M.dims[t]))
            red = mat_vec(projs[t], img, p)
            for i in range(qdims[t]):
                m[i][cidx] = red[i]
        mats.append(tuple(tuple(row) for row in m))
    return S, incl, Representation(A, qdims, mats, check=False), tuple(projs)


def _compose(x, y, rows, inner, cols, p):
    """x @ y mod p for a rows x inner matrix x and an inner x cols matrix y;
    the shapes are explicit, since a matrix with no rows has no width."""
    return tuple(
        tuple(sum(x[r][j] * y[j][c] for j in range(inner)) % p for c in range(cols))
        for r in range(rows)
    )


def assert_module_map(f, M, N):
    """f_t M(a) = N(a) f_s for every arrow a: s -> t, with f_v of shape
    dims(N)_v x dims(M)_v."""
    A = M.algebra
    for v in range(A.n):
        assert len(f[v]) == N.dims[v] and all(len(row) == M.dims[v] for row in f[v])
    for ai, a in enumerate(A.arrows):
        s, t = a.source, a.target
        ms, mt, ns, nt = M.dims[s], M.dims[t], N.dims[s], N.dims[t]
        fm = _compose(f[t], M.mats[ai], nt, mt, ms, A.p)
        nf = _compose(N.mats[ai], f[s], nt, ns, ms, A.p)
        assert fm == nf, a.name

# -- cone engines in Fraction arithmetic -------------------------------------------

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rref_q(rows):
    """Reduced row echelon form over Q; returns (nonzero rows, pivot column
    indices), the rows as tuples of Fractions."""
    work = [[Fraction(x) for x in r] for r in rows]
    if not work:
        return (), ()
    pivots = []
    r = 0
    for c in range(len(work[0])):
        pr = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        pv = work[r][c]
        work[r] = [x / pv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def solve_program(rows, rhs, cost=None):
    """Two-phase simplex with Bland's rule on a rational tableau; returns a
    dict with keys status ('optimal' or 'infeasible'), x, value, farkas."""
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    tab = []
    sgn = []
    for i in range(m):
        s = -1 if rhs[i] < 0 else 1
        sgn.append(s)
        tab.append(
            [Fraction(s * v) for v in rows[i]]
            + [_ONE if j == i else _ZERO for j in range(m)]
            + [s * Fraction(rhs[i])]
        )
    basis = [ncols + i for i in range(m)]

    def pivot(r, c):
        piv = tab[r][c]
        tab[r] = [v / piv for v in tab[r]]
        row_r = tab[r]
        for i in range(m):
            if i != r and tab[i][c]:
                f = tab[i][c]
                tab[i] = [a - f * b for a, b in zip(tab[i], row_r)]
        basis[r] = c

    def run(c_full, allowed):
        while True:
            enter = -1
            for j in allowed:
                if j in basis:
                    continue
                rj = c_full[j] - sum(
                    c_full[basis[i]] * tab[i][j] for i in range(m) if c_full[basis[i]]
                )
                if rj < 0:
                    enter = j
                    break
            if enter < 0:
                return
            leave = -1
            best = None
            for i in range(m):
                d = tab[i][enter]
                if d > 0:
                    ratio = tab[i][-1] / d
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and basis[i] < basis[leave])
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                raise ConeError("unbounded program")
            pivot(leave, enter)

    phase1 = [_ZERO] * ncols + [_ONE] * m
    run(phase1, range(ncols))
    value1 = sum(phase1[basis[i]] * tab[i][-1] for i in range(m))
    if value1 > 0:
        y = [
            sgn[i]
            * sum(phase1[basis[k]] * tab[k][ncols + i] for k in range(m))
            for i in range(m)
        ]
        return {"status": "infeasible", "x": None, "value": None, "farkas": tuple(y)}
    if cost is not None:
        for i in range(m - 1, -1, -1):
            if basis[i] < ncols:
                continue
            col = next((j for j in range(ncols) if tab[i][j]), None)
            if col is None:
                del tab[i]
                del basis[i]
                m -= 1
            else:
                pivot(i, col)
        c_full = [Fraction(c) for c in cost] + [_ZERO] * (len(rows))
        run(c_full, range(ncols))
    x = [_ZERO] * ncols
    for i in range(m):
        if basis[i] < ncols:
            x[basis[i]] = tab[i][-1]
    val = None
    if cost is not None:
        val = sum(Fraction(c) * v for c, v in zip(cost, x))
    return {"status": "optimal", "x": tuple(x), "value": val, "farkas": None}


def cone_contains(cone, vec):
    """Exact membership of a rational vector in the cone."""
    target = [Fraction(x) for x in vec]
    if len(target) != cone.dim:
        raise ConeError("vector of wrong dimension")
    if cone.is_zero():
        return not any(target)
    rows = [[Fraction(g[c]) for g in cone.generators] for c in range(cone.dim)]
    return solve_program(rows, target)["status"] == "optimal"


def class_dimvectors(cat, mask):
    """Sorted nonzero dimension vectors of the members, for cone generators."""
    out = {
        cat.dims_of(i)
        for i in range(len(cat))
        if (mask >> i) & 1 and cat.rep(i).total_dim() > 0
    }
    return sorted(out)


def class_cone(cat, mask):
    """Cone spanned by the dimension vectors of the members, each member
    read anew."""
    return RationalCone.from_vectors(cat.algebra.n, class_dimvectors(cat, mask))


def _separator_program(norm_t, norm_f, n, fixed):
    """Rows of the max-min-slack separator program, with one equality row
    per (variable, value) in fixed; variables as in ``torslab.cones``."""
    ngen = len(norm_t) + len(norm_f)
    ncols = n + 1 + ngen + n + 1
    rows = []
    rhs = []
    for gi, (g, s) in enumerate([(g, 1) for g in norm_t] + [(h, -1) for h in norm_f]):
        row = [0] * ncols
        for i in range(n):
            row[i] = s * g[i]
        row[n] = -1
        row[n + 1 + gi] = -1
        rows.append(row)
        rhs.append(s * sum(g) - 1)
    for i in range(n + 1):
        row = [0] * ncols
        row[i] = 1
        row[n + 1 + ngen + i] = 1
        rows.append(row)
        rhs.append(2)
    for var, val in fixed:
        row = [0] * ncols
        row[var] = 1
        rows.append(row)
        rhs.append(val)
    return rows, rhs, ncols


def separating_functional_pinned(cone_t, cone_f):
    """``torslab.cones.separating_functional`` by one program per objective:
    maximize the minimum slack, then pin each optimum by an equality row and
    minimize the next coordinate, each program solved from phase 1 by the
    single-objective ``torslab.cones.solve_program``."""
    if cone_t.dim != cone_f.dim:
        raise ConeError("ambient dimension mismatch")
    if not cones._separable(cone_t, cone_f):
        return None
    n = cone_t.dim
    norm_t = [tuple(Fraction(x, sum(map(abs, g))) for x in g) for g in cone_t.generators]
    norm_f = [tuple(Fraction(x, sum(map(abs, h))) for x in h) for h in cone_f.generators]
    fixed = []
    for var in [n] + list(range(n)):
        rows, rhs, ncols = _separator_program(norm_t, norm_f, n, fixed)
        cost = [0] * ncols
        cost[var] = -1 if var == n else 1
        res = cones.solve_program(rows, rhs, cost)
        if res["status"] != "optimal":
            raise ConeError("separator program must be feasible")
        if var == n and res["x"][n] <= 1:
            raise ConeError("separable cones with no positive minimum slack")
        fixed.append((var, res["x"][var]))
    theta = _primitive([val - 1 for var, val in fixed[1:]])
    for g in cone_t.generators:
        if _dot(theta, g) <= 0:
            raise ConeError("separator failed sign check on %r" % (g,))
    for h in cone_f.generators:
        if _dot(theta, h) >= 0:
            raise ConeError("separator failed sign check on %r" % (h,))
    return theta


def _dot(a, b):
    return sum(Fraction(x) * Fraction(y) for x, y in zip(a, b))


def _primitive(vec):
    fr = [Fraction(x) for x in vec]
    den = 1
    for x in fr:
        den = lcm(den, x.denominator)
    ints = [int(x * den) for x in fr]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        return tuple(ints)
    return tuple(x // g for x in ints)


def _canon_line(v):
    pv = _primitive(v)
    for x in pv:
        if x < 0:
            return tuple(-y for y in pv)
        if x > 0:
            return pv
    return pv


def dd_rays(ineqs, eqs, dim):
    """Lineality basis and extreme rays of {a.x >= 0 for a in ineqs, e.x = 0
    for e in eqs}, by incremental double description in Fraction arithmetic."""
    lin = [
        tuple(_ONE if j == i else _ZERO for j in range(dim)) for i in range(dim)
    ]
    rays = []
    processed = []

    def adjacent(r1, r2):
        common = [a for a in processed if _dot(a, r1) == 0 and _dot(a, r2) == 0]
        return len(rref_q(common)[1]) == dim - len(lin) - 2

    def project(v, a, l0, al0):
        av = _dot(a, v)
        return tuple(Fraction(x) - av / al0 * Fraction(y) for x, y in zip(v, l0))

    for is_eq, a in [(True, e) for e in eqs] + [(False, a) for a in ineqs]:
        pidx = next((i for i, l in enumerate(lin) if _dot(a, l) != 0), None)
        if pidx is not None:
            l0 = lin.pop(pidx)
            if not is_eq and _dot(a, l0) < 0:
                l0 = tuple(-x for x in l0)
            al0 = _dot(a, l0)
            lin = [_canon_line(project(l, a, l0, al0)) for l in lin]
            lin = [l for l in lin if any(l)]
            new_rays = []
            for r in rays:
                pr = _primitive(project(r, a, l0, al0))
                if any(pr) and pr not in new_rays:
                    new_rays.append(pr)
            rays = new_rays
            if not is_eq:
                rays.append(_primitive(l0))
        else:
            plus = [r for r in rays if _dot(a, r) > 0]
            zero = [r for r in rays if _dot(a, r) == 0]
            minus = [r for r in rays if _dot(a, r) < 0]
            keep = zero + (plus if not is_eq else [])
            for rp in plus:
                for rm in minus:
                    if adjacent(rp, rm):
                        ap, am = _dot(a, rp), _dot(a, rm)
                        combo = tuple(
                            ap * Fraction(x) - am * Fraction(y)
                            for x, y in zip(rm, rp)
                        )
                        keep.append(_primitive(combo))
            rays = []
            seen = set()
            for r in keep:
                if r not in seen:
                    seen.add(r)
                    rays.append(r)
        processed.append(tuple(Fraction(x) for x in a))
    return tuple(sorted(lin)), tuple(sorted(rays))


def quadruple(cat, theta):
    """The four classes at theta from rational pairings."""
    zero_bit = 1 << cat.zero_index()
    T = Tbar = F = Fbar = 0
    for idx in range(len(cat)):
        bit = 1 << idx
        qvals = [_dot(theta, v) for v in cat.quotient_dimvectors(idx) if any(v)]
        svals = [_dot(theta, v) for v in cat.submodule_dimvectors(idx) if any(v)]
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


# -- the Hom complex of two-term complexes, one product per slot ---------------------


def hom_complex_columns(A, X, Y, sa, sb, sc):
    """Columns of (alpha, beta) |-> beta f_X - f_Y alpha over the slots sc, one
    per alpha slot of sa, then one per beta slot of sb."""
    p = A.p
    scpos = {slot: j for j, slot in enumerate(sc)}
    cols = []
    for (l, k, b) in sa:
        v = [0] * len(sc)
        for j in range(len(Y.zero)):
            for bi, c in A.mult(Y.mat[j][l], {b: 1}).items():
                v[scpos[(j, k, bi)]] = -c % p
        cols.append(tuple(v))
    for (l, k, b) in sb:
        v = [0] * len(sc)
        for j in range(len(X.minus)):
            for bi, c in A.mult({b: 1}, X.mat[k][j]).items():
                v[scpos[(l, j, bi)]] = c
        cols.append(tuple(v))
    return tuple(cols)


def chain_data(A, X, Y):
    """Null-homotopic span and homotopy-class representatives of the chain maps
    X -> Y, as a dict with keys hot, k_vecs and k_mats."""
    p = A.p
    sa = _layout(A, X.minus, Y.minus)
    sb = _layout(A, X.zero, Y.zero)
    sc = _layout(A, X.minus, Y.zero)
    na, nb = len(sa), len(sb)
    sol = nullspace(tuple(zip(*hom_complex_columns(A, X, Y, sa, sb, sc))), na + nb, p)
    sapos = {slot: j for j, slot in enumerate(sa)}
    sbpos = {slot: na + j for j, slot in enumerate(sb)}
    hvecs = []
    for (l, k, b) in _layout(A, X.zero, Y.minus):
        v = [0] * (na + nb)
        for j in range(len(X.minus)):
            for bi, c in A.mult({b: 1}, X.mat[k][j]).items():
                v[sapos[(l, j, bi)]] = c
        for j in range(len(Y.zero)):
            for bi, c in A.mult(Y.mat[j][l], {b: 1}).items():
                v[sbpos[(j, k, bi)]] = c
        hvecs.append(tuple(v))
    hot, _ = dense_rref(hvecs, p)
    work = hot
    k_vecs = []
    k_mats = []
    for v in sol:
        r = residual(v, work, p)
        if any(r):
            k_vecs.append(v)
            alpha = _unvec(sa, len(X.minus), len(Y.minus), v[:na])
            beta = _unvec(sb, len(X.zero), len(Y.zero), v[na:])
            k_mats.append((alpha, beta))
            work, _ = dense_rref(work + (r,), p)
    return {"hot": hot, "k_vecs": tuple(k_vecs), "k_mats": tuple(k_mats)}


# -- approximations by the other summands, recomposed on every trial ------------------


def mat_compose(A, M, N, ndst, nmid, nsrc):
    """Matrix product of algebra-valued matrices, composition order M after N."""
    p = A.p
    out = []
    for l in range(ndst):
        row = []
        for k in range(nsrc):
            acc = {}
            for j in range(nmid):
                x = M[l][j]
                y = N[j][k]
                if x and y:
                    for bi, c in A.mult(x, y).items():
                        acc[bi] = (acc.get(bi, 0) + c) % p
            row.append({bi: c for bi, c in acc.items() if c})
        out.append(tuple(row))
    return tuple(out)


def _spans(A, X, Y, comps):
    """The null-homotopic span of the chain maps X -> Y, stacked on the
    composites comps, and the dimension of the chain maps."""
    data = chain_data(A, X, Y)
    sa = _layout(A, X.minus, Y.minus)
    sb = _layout(A, X.zero, Y.zero)
    rows = [tuple(r) for r in data["hot"]]
    rows += [_vec(sa, alpha) + _vec(sb, beta) for alpha, beta in comps]
    return rows, len(data["hot"]) + len(data["k_vecs"])


def left_approximates(A, X, others, copies):
    """Whether the copies (t, pair), pair: X -> others[t], compose to span the
    chain maps X -> S up to homotopy, for each S among the others."""
    for S in others:
        comps = [
            _pair_compose(A, psi, pair, X, others[t], S)
            for t, pair in copies
            for psi in hom_k_basis(others[t], S)
        ]
        rows, need = _spans(A, X, S, comps)
        if rank(rows, A.p) < need:
            return False
    return True


def right_approximates(A, X, others, copies):
    """The dual of ``left_approximates``, for copies pair: others[t] -> X."""
    for S in others:
        comps = [
            _pair_compose(A, pair, psi, S, others[t], X)
            for t, pair in copies
            for psi in hom_k_basis(S, others[t])
        ]
        rows, need = _spans(A, S, X, comps)
        if rank(rows, A.p) < need:
            return False
    return True


def strip_copies(copies, check):
    """Drop the first copy whose removal still passes check, and start over,
    until no copy can go."""
    changed = True
    while changed:
        changed = False
        for c in range(len(copies)):
            trial = copies[:c] + copies[c + 1 :]
            if check(trial):
                copies = trial
                changed = True
                break
    return copies


def approximation(X, others, left):
    """The copies a minimal left (or right) approximation of X keeps; the
    same list as ``torslab.silting._approximation``."""
    A = X.algebra
    if left:
        copies = [(t, pair) for t, T in enumerate(others) for pair in hom_k_basis(X, T)]
        approximates = left_approximates
    else:
        copies = [(t, pair) for t, T in enumerate(others) for pair in hom_k_basis(T, X)]
        approximates = right_approximates
    if not approximates(A, X, others, copies):
        raise ValueError("the universal copies fail to approximate")
    return strip_copies(copies, lambda kept: approximates(A, X, others, kept))


# -- reduction of a chain of differentials, one copy per elimination ----------------


def _eliminate(A, terms, diffs, d, l0, k0):
    p = A.p
    D = diffs[d]
    i = terms[d + 1][l0]
    u = D[l0][k0]
    uinv = _local_inverse(A, i, u)
    nr, ncs = len(terms[d + 1]), len(terms[d])
    w = {k: A.mult(uinv, D[l0][k]) for k in range(ncs) if k != k0}
    v = {l: A.mult(D[l][k0], uinv) for l in range(nr) if l != l0}
    newD = []
    for l in range(nr):
        if l == l0:
            continue
        row = []
        for k in range(ncs):
            if k == k0:
                continue
            if D[l][k0] and w[k]:
                row.append(_elem_sub(p, D[l][k], A.mult(D[l][k0], w[k])))
            else:
                row.append(dict(D[l][k]))
        newD.append(row)
    diffs[d] = newD
    if d > 0:
        Dp = diffs[d - 1]
        for j in range(len(terms[d - 1])):
            acc = dict(Dp[k0][j])
            for k in range(ncs):
                if k == k0 or not w[k] or not Dp[k][j]:
                    continue
                for bi, c in A.mult(w[k], Dp[k][j]).items():
                    acc[bi] = (acc.get(bi, 0) + c) % p
            if any(c % p for c in acc.values()):
                raise SiltingError("split summand leaks upstream")
        diffs[d - 1] = [row for kk, row in enumerate(Dp) if kk != k0]
    if d + 1 < len(diffs):
        Dn = diffs[d + 1]
        for j in range(len(terms[d + 2])):
            acc = dict(Dn[j][l0])
            for l in range(nr):
                if l == l0 or not v[l] or not Dn[j][l]:
                    continue
                for bi, c in A.mult(Dn[j][l], v[l]).items():
                    acc[bi] = (acc.get(bi, 0) + c) % p
            if any(c % p for c in acc.values()):
                raise SiltingError("split summand leaks downstream")
        diffs[d + 1] = [[e for ll, e in enumerate(row) if ll != l0] for row in Dn]
    terms[d] = [t for kk, t in enumerate(terms[d]) if kk != k0]
    terms[d + 1] = [t for ll, t in enumerate(terms[d + 1]) if ll != l0]


def reduce_chain(A, terms, diffs):
    """The terms and differentials left after stripping every invertible
    component; the same lists as ``torslab.silting._reduce_chain``."""
    terms = [list(t) for t in terms]
    diffs = [[[dict(e) for e in row] for row in D] for D in diffs]
    while True:
        hit = _find_pivot(A, terms, diffs)
        if hit is None:
            break
        _eliminate(A, terms, diffs, *hit)
    out_terms = [tuple(t) for t in terms]
    out_diffs = [tuple(tuple(dict(e) for e in row) for row in D) for D in diffs]
    return out_terms, out_diffs


# -- faces of the g-vector fan, one augmented solve per face and weight ----------------


def positive_combination(rays, theta):
    """Strictly positive exact solution of sum(a_i rays_i) = theta, or None.

    The augmented system has a unique solution exactly when its pivots are
    the ray columns."""
    m = len(rays)
    red, pivots = rref_q([[g[i] for g in rays] + [t] for i, t in enumerate(theta)])
    if pivots != tuple(range(m)):
        return None
    coeffs = tuple(row[m] for row in red)
    if all(x > 0 for x in coeffs):
        return coeffs
    return None


def rigidity(theta, graph):
    """The first face, in vertex and subset order, holding theta in its relative
    interior; the same dict as ``torslab.silting.rigidity``."""
    theta = tuple(Fraction(t) for t in theta)
    depth = graph["depth"]
    if all(t == 0 for t in theta):
        return {"verdict": "rigid", "rays": (), "coeffs": (), "vertex": None, "depth": depth}
    seen = set()
    for vert in graph["vertices"]:
        gvs = vert["key"]
        for r in range(1, len(gvs) + 1):
            for subset in itertools.combinations(gvs, r):
                if subset in seen:
                    continue
                seen.add(subset)
                coeffs = positive_combination(subset, theta)
                if coeffs is not None:
                    return {
                        "verdict": "rigid",
                        "rays": subset,
                        "coeffs": coeffs,
                        "vertex": vert["key"],
                        "depth": depth,
                    }
    verdict = "not_rigid" if graph["complete"] else "unknown"
    return {"verdict": verdict, "rays": None, "coeffs": None, "vertex": None, "depth": depth}


# -- the exchange graph, every summand of every vertex mutated -------------------------


def enumerate_silting(A, depth):
    """Breadth-first mutation walk that mutates every summand of each expanded
    vertex, the edge back to the parent included; the same dict as
    ``torslab.silting.enumerate_silting``."""
    start = initial_silting(A)
    key0 = vertex_key(start)
    info = {key0: {"summands": start, "depth": 0}}
    order = [key0]
    edges = set()
    complete = True
    qpos = 0
    while qpos < len(order):
        key = order[qpos]
        qpos += 1
        rec = info[key]
        if rec["depth"] >= depth:
            complete = False
            continue
        for k in range(len(rec["summands"])):
            new = mutate(rec["summands"], k)
            nk = vertex_key(new)
            if nk != key:
                edges.add((key, nk) if key <= nk else (nk, key))
            if nk not in info:
                info[nk] = {"summands": new, "depth": rec["depth"] + 1}
                order.append(nk)
    vertices = tuple(
        {"key": key, "summands": info[key]["summands"], "depth": info[key]["depth"]}
        for key in sorted(info)
    )
    return {"depth": depth, "complete": complete, "vertices": vertices, "edges": tuple(sorted(edges))}


# -- numerical separation, every leg solved for every class --------------------------


def numdis_checks(algebra, bound):
    """The checks of ``torslab.reports.suite_numdis`` with all four legs
    solved anew for every class, not once per distinct pair of class cones."""
    cat = Catalogue(algebra, bound)
    hereditary = algebra.relations == ()
    checks = []
    for k, tmask in enumerate(enumerate_torsion_classes(cat)):
        wit = witnesses(cat, tmask)
        fmask = wit["perp"]
        ct = class_cone(cat, tmask)
        cf = class_cone(cat, fmask)
        hit, common = dd_intersection_nontrivial(ct, cf)
        disjoint = not hit
        trivial, _ = intersect_trivially(ct, cf)
        convex = is_strongly_convex(difference_cone(ct, cf))
        separator = separating_functional_pinned(ct, cf)
        legs = (disjoint, trivial, convex, separator is not None)
        agree = all(legs) or not any(legs)
        verified = None
        if separator is not None:
            verified = classes_in(cat, separator, tmask, fmask)
        payload = {
            "size": bin(tmask).count("1"),
            "disjoint": disjoint,
            "legs": list(legs),
            "separator": list(separator) if separator is not None else None,
            "separator-verified": verified,
        }
        if not disjoint:
            payload["common-class"] = list(common)
        bad = not agree or verified is False
        checks.append(_check("numdis-pair[%d]" % k, "fail" if bad else "pass", payload))
        if disjoint and wit["bicompact"]:
            checks.append(
                _check(
                    "numdis-bicompact-ff[%d]" % k,
                    "pass" if wit["ff"] else "window-limited",
                    _witness_dims(cat, wit),
                )
            )
        if hereditary and wit["bicompact"]:
            checks.append(
                _check(
                    "hereditary-bicompact-fac[%d]" % k,
                    "pass" if wit["fac"] is not None else "window-limited",
                    {"fac": _dims(cat, wit["fac"])},
                )
            )
    return checks


# -- the single-map search, every map of every level built ---------------------------


def tbar_map_search(cat, theta, target):
    """``torslab.reports._tbar_map_search`` with each level's space built for
    the cost cap and every map of it, the zero map included, swept in order."""
    A = cat.algebra
    p = A.p
    for level in range(1, TBAR_LEVEL_MAX + 1):
        space = presentation_space(A, tuple(level * t for t in theta))
        if p ** space["dim"] * len(cat) > TBAR_SWEEP_COST:
            return {"searched": False, "level": None}
        for coeffs in itertools.product(range(p), repeat=space["dim"]):
            if tbar_of_map(cat, map_from_coeffs(A, space, coeffs)) == target:
                return {"searched": True, "level": level}
    return {"searched": True, "level": None}
