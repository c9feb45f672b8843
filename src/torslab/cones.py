"""Exact rational cone geometry for class vectors of a module window.

Cones are nonnegative rational spans of integer generator lists.  Every
decision runs in Fraction arithmetic.  Two engines are kept deliberately
separate so tests can compare them: a two-phase simplex with Bland's rule
answers the programming questions (trivial intersection, strong convexity,
best separating vector), and an incremental double description pass over
facet systems re-decides intersection triviality from the H-side.  The
double description decides ray adjacency by a rank from ``linalg.rref_q``;
the simplex keeps its own tableau pivoting, so the two engines share no
elimination code.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .linalg import rref_q
from .stability import class_dimvectors

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ConeError(Exception):
    pass


def primitive_vector(vec):
    """Scale a rational vector to coprime integers, keeping its direction."""
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


@dataclass(frozen=True)
class RationalCone:
    """Nonnegative rational span of the stored primitive integer generators."""

    dim: int
    generators: tuple

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


def cone_of_subcat(cat, mask):
    """Cone spanned by the dimension vectors of the members."""
    return RationalCone.from_vectors(cat.algebra.n, class_dimvectors(cat, mask))


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


def solve_program(rows, rhs, cost=None):
    """Returns a dict with keys status ('optimal' or 'infeasible'), x, value,
    farkas.  With cost None only feasibility is decided."""
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
        # pin phase-2 feasibility: pivot leftover zero-level artificials out of
        # the basis, dropping rows that turn out redundant
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


def _dot(a, b):
    return sum(Fraction(x) * Fraction(y) for x, y in zip(a, b))


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
    base = [
        [Fraction(g[c]) for g in g1] + [Fraction(-h[c]) for h in g2]
        for c in range(n)
    ]
    certs = []
    for k in range(n):
        for s in (1, -1):
            rows = [list(r) for r in base]
            rows.append([Fraction(g[k]) for g in g1] + [_ZERO] * len(g2))
            rhs = [_ZERO] * n + [Fraction(s)]
            res = solve_program(rows, rhs)
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
    rows = [[Fraction(g[c]) for g in cone.generators] for c in range(cone.dim)]
    rows.append([_ONE] * len(cone.generators))
    rhs = [_ZERO] * cone.dim + [_ONE]
    return solve_program(rows, rhs)["status"] == "infeasible"


def _separator_program(norm_t, norm_f, n, fixed):
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
        row = [_ZERO] * ncols
        for i in range(n):
            row[i] = g[i]
        row[n] = -_ONE
        row[n + 1 + gi] = -_ONE
        rows.append(row)
        rhs.append(sum(g) - 1)
        gi += 1
    for h in norm_f:
        row = [_ZERO] * ncols
        for i in range(n):
            row[i] = -h[i]
        row[n] = -_ONE
        row[n + 1 + gi] = -_ONE
        rows.append(row)
        rhs.append(-sum(h) - 1)
        gi += 1
    for i in range(n + 1):
        row = [_ZERO] * ncols
        row[i] = _ONE
        row[n + 1 + ngen + i] = _ONE
        rows.append(row)
        rhs.append(Fraction(2))
    for var, val in fixed:
        row = [_ZERO] * ncols
        row[var] = _ONE
        rows.append(row)
        rhs.append(val)
    return rows, rhs, ncols


def separating_functional(cone_t, cone_f):
    """Integer theta with theta.g > 0 on the first cone's generators and
    theta.h < 0 on the second's, or None.

    Maximizes the minimum slack over l1-normalized generators inside the box
    [-1,1]^n, then fixes that value and minimizes each coordinate in turn, so
    the output is the lexicographically smallest optimum, scaled primitive."""
    if cone_t.dim != cone_f.dim:
        raise ConeError("ambient dimension mismatch")
    n = cone_t.dim
    norm_t = [
        tuple(Fraction(x, sum(abs(v) for v in g)) for x in g)
        for g in cone_t.generators
    ]
    norm_f = [
        tuple(Fraction(x, sum(abs(v) for v in h)) for x in h)
        for h in cone_f.generators
    ]
    fixed = []
    rows, rhs, ncols = _separator_program(norm_t, norm_f, n, fixed)
    cost = [_ZERO] * ncols
    cost[n] = -_ONE
    res = solve_program(rows, rhs, cost)
    if res["status"] != "optimal":
        raise ConeError("separator program must be feasible")
    sigma = res["x"][n]
    if sigma <= 1:
        return None
    fixed.append((n, sigma))
    for i in range(n):
        rows, rhs, ncols = _separator_program(norm_t, norm_f, n, fixed)
        cost = [_ZERO] * ncols
        cost[i] = _ONE
        res = solve_program(rows, rhs, cost)
        fixed.append((i, res["x"][i]))
    theta = primitive_vector([val - 1 for var, val in fixed[1:]])
    for g in cone_t.generators:
        if _dot(theta, g) <= 0:
            raise ConeError("separator failed sign check on %r" % (g,))
    for h in cone_f.generators:
        if _dot(theta, h) >= 0:
            raise ConeError("separator failed sign check on %r" % (h,))
    return theta


def cone_contains(cone, vec):
    """Exact membership of a rational vector in the cone."""
    target = [Fraction(x) for x in vec]
    if len(target) != cone.dim:
        raise ConeError("vector of wrong dimension")
    if cone.is_zero():
        return not any(target)
    rows = [[Fraction(g[c]) for g in cone.generators] for c in range(cone.dim)]
    return solve_program(rows, target)["status"] == "optimal"


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

    Incremental double description; adjacency is decided by the rank of the
    tight-constraint matrix, which stays valid while lineality is nonzero."""
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
            for rp in plus:
                for rm in minus:
                    if adjacent(rp, rm):
                        ap, am = _dot(a, rp), _dot(a, rm)
                        combo = tuple(
                            ap * Fraction(x) - am * Fraction(y)
                            for x, y in zip(rm, rp)
                        )
                        keep.append(primitive_vector(combo))
            rays = []
            seen = set()
            for r in keep:
                if r not in seen:
                    seen.add(r)
                    rays.append(r)
        processed.append(tuple(Fraction(x) for x in a))
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


def numerically_disjoint(cat, mask_t, mask_f):
    """True iff the class cones of the two subcategories meet only at zero.

    Decided by double description; the certificate is a separating stability
    vector (trivial case) or a common nonzero class vector."""
    ct = cone_of_subcat(cat, mask_t)
    cf = cone_of_subcat(cat, mask_f)
    hit, witness = dd_intersection_nontrivial(ct, cf)
    if hit:
        return False, ("common", witness)
    return True, ("separator", separating_functional(ct, cf))
