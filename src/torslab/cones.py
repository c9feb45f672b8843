"""Exact rational cone geometry for class vectors of a module window.

Cones are nonnegative rational spans of integer generator lists.  Every sign
is decided exactly on Python integers; Fraction is left only in the
solutions the simplex returns and the separator program's normalized
generators.  Two engines are kept deliberately separate so tests can compare
them: a two-phase simplex with Bland's rule on a fraction-free tableau
(``linalg.bareiss_pivot``) answers the programming questions (trivial
intersection, strong convexity, best separating vector, the last as one
lexicographic program that continues over each optimal face), and an
incremental double description pass over facet systems re-decides
intersection triviality from the H-side.  The double description eliminates
nothing: it decides ray adjacency from zero sets, so the two engines share
no elimination code.

A class's cone is generated by the primitive directions of its members'
dimension vectors.  One table per catalogue holds the mask of the items
along each direction, so a cone is read from the directions whose mask
meets the class, with no pass over the class's items.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .algebra import memo
from .linalg import bareiss_pivot


class ConeError(Exception):
    pass


def _scale(vals, den):
    """Rationals or ints times a common multiple of their denominators."""
    return [v.numerator * (den // v.denominator) for v in vals]


def primitive_vector(vec):
    """Scale a rational vector to coprime integers, keeping its direction."""
    ints = _scale(vec, lcm(*(x.denominator for x in vec)))
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g else tuple(ints)


class RationalCone(namedtuple("RationalCone", "dim generators")):
    """Nonnegative rational span of the stored primitive integer generators."""

    __slots__ = ()

    @staticmethod
    def from_vectors(dim, vecs):
        gens = set()
        for v in vecs:
            pv = primitive_vector(v)
            if len(pv) != dim:
                raise ConeError("generator of wrong dimension")
            if any(pv):
                gens.add(pv)
        return RationalCone(dim, tuple(sorted(gens)))

    def is_zero(self):
        return not self.generators


@memo
def _direction_masks(cat):
    """Per primitive direction of the nonzero items' dimension vectors, in
    sorted order: (the direction, the mask of the items along it)."""
    out = {}
    for i in range(len(cat)):
        dims = cat.dims_of(i)
        if any(dims):
            d = primitive_vector(dims)
            out[d] = out.get(d, 0) | (1 << i)
    return tuple(sorted(out.items()))


def cone_of_subcat(cat, mask):
    """Cone spanned by the dimension vectors of the members: generated by
    the primitive directions whose item mask meets the members."""
    gens = tuple(d for d, along in _direction_masks(cat) if along & mask)
    return RationalCone(cat.algebra.n, gens)


def difference_cone(cone_t, cone_f):
    """Cone spanned by the first cone's generators and the negatives of the
    second's; strong convexity of this cone is one leg of the separation
    equivalences."""
    if cone_t.dim != cone_f.dim:
        raise ConeError("ambient dimension mismatch")
    neg = [tuple(-x for x in h) for h in cone_f.generators]
    return RationalCone.from_vectors(cone_t.dim, list(cone_t.generators) + neg)


# -- exact simplex ----------------------------------------------------------------
#
# Standard form: minimize cost.x subject to rows.x = rhs, x >= 0.  Dense
# tableau, Bland's rule for both the entering and the leaving choice, so
# termination is unconditional.  The identity block appended to the tableau
# tracks the basis inverse, which yields Farkas certificates on infeasibility.
# The tableau is fraction-free (Bareiss): rows and rhs are scaled to integers
# by one common positive factor, which keeps the sign of every phase-1 reduced
# cost and so Bland's path, and the rational tableau is T / det with det > 0
# the basis determinant, so each pivot's division is exact.


def solve_program(rows, rhs, cost=None, *later):
    """Returns a dict with keys status ('optimal' or 'infeasible'), x, value,
    farkas.  With cost None only feasibility is decided.  Each later
    objective is minimized in turn over the optimal face of the ones before
    it (lexicographic optimization): phase 1 runs once, and each stage
    continues from the last optimal basis.  x is optimal for every
    objective in that order; value is cost.x."""
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    den = lcm(*(v.denominator for row in rows for v in row), *(b.denominator for b in rhs))
    sgn = [-1 if b < 0 else 1 for b in rhs]
    tab = []
    for i, s in enumerate(sgn):
        tab.append(
            _scale([s * v for v in rows[i]], den)
            + [1 if j == i else 0 for j in range(m)]
            + _scale([s * rhs[i]], den)
        )
    basis = [ncols + i for i in range(m)]
    det = 1

    def pivot(r, c):
        nonlocal det, tab
        det = bareiss_pivot(tab, r, c, det)
        if det < 0:
            # the phase-2 pin-out may pivot on a negative entry
            det, tab = -det, [[-v for v in row] for row in tab]
        basis[r] = c

    def run(c_full, allowed):
        # minimize over the allowed columns; returns the optimal face's
        # columns: the basic ones and those with zero reduced cost
        while True:
            costed = [(c_full[b], tab[i]) for i, b in enumerate(basis) if c_full[b]]
            enter = -1
            face = []
            for j in allowed:
                if j in basis:
                    face.append(j)
                    continue
                cj, red = c_full[j] * det, sum(cb * row[j] for cb, row in costed)
                if cj < red:
                    enter = j
                    break
                if cj == red:
                    face.append(j)
            if enter < 0:
                return face
            leave = -1
            for i, row in enumerate(tab):
                d = row[enter]
                if d > 0:
                    if leave < 0:
                        leave = i
                        continue
                    best = tab[leave]
                    new, old = row[-1] * best[enter], best[-1] * d
                    if new < old or (new == old and basis[i] < basis[leave]):
                        leave = i
            if leave < 0:
                raise ConeError("unbounded program")
            pivot(leave, enter)

    phase1 = [0] * ncols + [1] * m
    run(phase1, range(ncols))
    if any(tab[i][-1] for i in range(m) if basis[i] >= ncols):
        y = [
            Fraction(sgn[i] * sum(tab[k][ncols + i] for k in range(m) if basis[k] >= ncols), det)
            for i in range(m)
        ]
        return {"status": "infeasible", "x": None, "value": None, "farkas": tuple(y)}
    tab = [row[:ncols] + row[-1:] for row in tab]
    if cost is not None:
        # pin phase-2 feasibility: pivot leftover zero-level artificials out of
        # the basis, dropping rows that turn out redundant
        for i in range(m - 1, -1, -1):
            if basis[i] < ncols:
                continue
            col = next((j for j in range(ncols) if tab[i][j]), None)
            if col is None:
                del tab[i]
                del basis[i]
            else:
                pivot(i, col)
        allowed = range(ncols)
        for obj in (cost,) + later:
            allowed = run(_scale(obj, lcm(*(c.denominator for c in obj))), allowed)
    x = [Fraction(0)] * ncols
    for i, b in enumerate(basis):
        if b < ncols:
            x[b] = Fraction(tab[i][-1], det)
    val = None
    if cost is not None:
        val = sum(c * v for c, v in zip(cost, x))
    return {"status": "optimal", "x": tuple(x), "value": val, "farkas": None}


def _dot(a, b):
    return sum(map(mul, a, b))


# -- LP-side predicates ------------------------------------------------------------


def intersect_trivially(c1, c2):
    """Decide cone(c1) meets cone(c2) only at the origin.

    One feasibility program per signed coordinate normalization, so the
    answer stays right when a cone contains a line.  Returns (True,
    ('farkas', certs)) or (False, ('common', nonzero integer vector))."""
    if c1.dim != c2.dim:
        raise ConeError("ambient dimension mismatch")
    if c1.is_zero() or c2.is_zero():
        return True, ("farkas", ())
    n = c1.dim
    g1, g2 = c1.generators, c2.generators
    base = [[g[c] for g in g1] + [-h[c] for h in g2] for c in range(n)]
    certs = []
    for k in range(n):
        for s in (1, -1):
            rows = base + [[g[k] for g in g1] + [0] * len(g2)]
            res = solve_program(rows, [0] * n + [s])
            if res["status"] == "optimal":
                lam = res["x"][: len(g1)]
                common = tuple(
                    sum(l * g[c] for l, g in zip(lam, g1)) for c in range(n)
                )
                return False, ("common", primitive_vector(common))
            certs.append((k, s, res["farkas"]))
    return True, ("farkas", tuple(certs))


def is_strongly_convex(cone):
    """True iff the cone contains no line through the origin.

    A line exists exactly when the generators admit a nonzero nonnegative
    dependence, which the normalization row turns into plain feasibility."""
    if cone.is_zero():
        return True
    rows = [[g[c] for g in cone.generators] for c in range(cone.dim)]
    rows.append([1] * len(cone.generators))
    rhs = [0] * cone.dim + [1]
    return solve_program(rows, rhs)["status"] == "infeasible"


def _separable(cone_t, cone_f):
    """Whether some theta has theta.g >= 1 on the first cone's generators and
    theta.h <= -1 on the second's, that is, whether a strict separator exists.

    Variables: theta = u - w with u, w >= 0, then one surplus per generator."""
    gens = list(cone_t.generators) + [tuple(-x for x in h) for h in cone_f.generators]
    rows = [
        list(g) + [-x for x in g] + [-int(k == i) for k in range(len(gens))]
        for i, g in enumerate(gens)
    ]
    return solve_program(rows, [1] * len(gens))["status"] == "optimal"


def _separator_program(norm_t, norm_f, n):
    """Rows for the max-min-slack program in shifted variables.

    Variables: u_0..u_{n-1} with theta_i = u_i - 1, then sigma with
    s = sigma - 1, then one surplus per generator row, then one box slack per
    u_i and for sigma.  Everything is >= 0 and boxed by 2."""
    ngen = len(norm_t) + len(norm_f)
    ncols = n + 1 + ngen + n + 1
    rows = []
    rhs = []
    gi = 0
    for g in norm_t:
        row = [0] * ncols
        for i in range(n):
            row[i] = g[i]
        row[n] = -1
        row[n + 1 + gi] = -1
        rows.append(row)
        rhs.append(sum(g) - 1)
        gi += 1
    for h in norm_f:
        row = [0] * ncols
        for i in range(n):
            row[i] = -h[i]
        row[n] = -1
        row[n + 1 + gi] = -1
        rows.append(row)
        rhs.append(-sum(h) - 1)
        gi += 1
    for i in range(n + 1):
        row = [0] * ncols
        row[i] = 1
        row[n + 1 + ngen + i] = 1
        rows.append(row)
        rhs.append(2)
    return rows, rhs, ncols


def separating_functional(cone_t, cone_f):
    """Integer theta with theta.g > 0 on the first cone's generators and
    theta.h < 0 on the second's, or None.

    A small feasibility program decides first whether any such theta exists.
    If one does, one lexicographic program maximizes the minimum slack over
    l1-normalized generators inside the box [-1,1]^n, then continues over
    the optimal face, minimizing each coordinate in turn, so the output is
    the lexicographically smallest optimum, scaled primitive."""
    if cone_t.dim != cone_f.dim:
        raise ConeError("ambient dimension mismatch")
    if not _separable(cone_t, cone_f):
        return None
    n = cone_t.dim
    norm_t = [
        tuple(Fraction(x, sum(abs(v) for v in g)) for x in g)
        for g in cone_t.generators
    ]
    norm_f = [
        tuple(Fraction(x, sum(abs(v) for v in h)) for x in h)
        for h in cone_f.generators
    ]
    rows, rhs, ncols = _separator_program(norm_t, norm_f, n)
    objectives = [[-int(j == n) for j in range(ncols)]]
    objectives += [[int(j == i) for j in range(ncols)] for i in range(n)]
    res = solve_program(rows, rhs, *objectives)
    if res["status"] != "optimal":
        raise ConeError("separator program must be feasible")
    if res["x"][n] <= 1:
        raise ConeError("separable cones with no positive minimum slack")
    theta = primitive_vector([u - 1 for u in res["x"][:n]])
    for g in cone_t.generators:
        if _dot(theta, g) <= 0:
            raise ConeError("separator failed sign check on %r" % (g,))
    for h in cone_f.generators:
        if _dot(theta, h) >= 0:
            raise ConeError("separator failed sign check on %r" % (h,))
    return theta


# -- double description ------------------------------------------------------------


def _canon_line(v):
    pv = primitive_vector(v)
    for x in pv:
        if x < 0:
            return tuple(-y for y in pv)
        if x > 0:
            return pv
    return pv


def dd_rays(ineqs, eqs, dim):
    """Lineality basis and extreme rays of the solution cone of the system
    {a.x >= 0 for a in ineqs, e.x = 0 for e in eqs}.

    Incremental double description over integer vectors.  Two rays are
    adjacent when no third ray is zero on every processed constraint that
    is zero on both (the combinatorial test, Fukuda-Prodon 1996); it holds
    with lineality too, since every processed constraint is zero on it."""
    lin = [tuple(int(j == i) for j in range(dim)) for i in range(dim)]
    rays = []
    processed = []

    def project(v, a, l0, al0):
        # a positive multiple of v - (a.v / a.l0) l0, since a.l0 > 0
        av = _dot(a, v)
        return tuple(al0 * x - av * y for x, y in zip(v, l0))

    for is_eq, a in [(True, e) for e in eqs] + [(False, a) for a in ineqs]:
        a = primitive_vector(a)
        pidx = next((i for i, l in enumerate(lin) if _dot(a, l) != 0), None)
        if pidx is not None:
            l0 = lin.pop(pidx)
            al0 = _dot(a, l0)
            if al0 < 0:
                l0, al0 = tuple(-x for x in l0), -al0
            lin = [_canon_line(project(l, a, l0, al0)) for l in lin]
            lin = [l for l in lin if any(l)]
            new_rays = []
            for r in rays:
                pr = primitive_vector(project(r, a, l0, al0))
                if any(pr) and pr not in new_rays:
                    new_rays.append(pr)
            rays = new_rays
            if not is_eq:
                rays.append(primitive_vector(l0))
        else:
            plus = [r for r in rays if _dot(a, r) > 0]
            zero = [r for r in rays if _dot(a, r) == 0]
            minus = [r for r in rays if _dot(a, r) < 0]
            keep = zero + (plus if not is_eq else [])
            if plus and minus:
                # zero sets over the processed constraints, as bitmasks
                zeros = {
                    r: sum(1 << i for i, b in enumerate(processed) if _dot(b, r) == 0)
                    for r in rays
                }
            for rp in plus:
                for rm in minus:
                    common = zeros[rp] & zeros[rm]
                    if not any(
                        common & ~z == 0 for r, z in zeros.items() if r != rp and r != rm
                    ):
                        ap, am = _dot(a, rp), _dot(a, rm)
                        combo = tuple(ap * x - am * y for x, y in zip(rm, rp))
                        keep.append(primitive_vector(combo))
            rays = []
            seen = set()
            for r in keep:
                if r not in seen:
                    seen.add(r)
                    rays.append(r)
        processed.append(a)
    return tuple(sorted(lin)), tuple(sorted(rays))


def dual_description(cone):
    """Facet system of the cone: (lineality, rays) of its dual cone.  The
    cone equals {x : r.x >= 0 for every ray, l.x = 0 for every lineality
    vector}."""
    return dd_rays(cone.generators, (), cone.dim)


def dd_intersection_nontrivial(c1, c2):
    """Decide nontrivial intersection from the facet side; returns
    (bool, witness).  Independent of the simplex path."""
    if c1.is_zero() or c2.is_zero():
        return False, None
    lin1, rays1 = dual_description(c1)
    lin2, rays2 = dual_description(c2)
    lin, rays = dd_rays(rays1 + rays2, lin1 + lin2, c1.dim)
    for v in lin + rays:
        if any(v):
            return True, v
    return False, None


def numerically_disjoint(ct, cf):
    """True iff the class cones ct and cf of two subcategories meet only at
    zero.

    Decided by double description; the certificate is a separating stability
    vector (trivial case) or a common nonzero class vector."""
    hit, witness = dd_intersection_nontrivial(ct, cf)
    if hit:
        return False, ("common", witness)
    return True, ("separator", separating_functional(ct, cf))
