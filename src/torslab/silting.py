"""Two-term complexes of projectives, silting mutation, and g-vector fans.

A two-term complex lives in homological degrees -1 and 0; both terms are
finite direct sums of the indecomposable projectives e_i A.  A component
P(j) -> P(i) is an algebra element supported on paths i -> j, so a
differential is a matrix of {basis_index: coeff} dicts and every step here
is exact over F_p.

Mutation exchanges one indecomposable summand through an approximation
triangle.  The side is read off the summand's c-vector, its row of the
inverse g-vector matrix, which is sign-coherent (Fu, J. Algebra 473 (2017);
Treffinger, JPAA 223 (2019)): a positive row takes the left exchange, a
negative one the right, so each mutation builds one cone.  Summands are
kept individually and every vertex of the exchange graph is keyed by its
sorted tuple of summand g-vectors, which pins the whole walk down to a
deterministic object.
"""

from __future__ import annotations

from .algebra import (
    AlgebraError,
    image_submodule,
    injective_module,
    kernel_submodule,
    memo,
    path_map,
    projective_module,
    quotient_module,
    submodule_rep,
)
from .cones import RationalCone
from .linalg import inv_mod, nullspace, rank, residual, rref, unimodular_inverse
from .torsion import fac_closure, left_perp


class SiltingError(Exception):
    pass


class MutationError(SiltingError):
    pass


# -- algebra-valued matrices --------------------------------------------------


def _local_inverse(A, i, u):
    """Inverse of u in e_i A e_i; u must have a unit coefficient there."""
    e = A.basis_index[(i, ())]
    c = u.get(e, 0) % A.p
    if not c:
        raise AlgebraError("element has no unit part at vertex %r" % (i,))
    x = {e: inv_mod(c, A.p)}
    one = {e: 1}
    for _ in range(64):
        t = A.mult(u, x)
        if t == one:
            return x
        # Newton step x <- x(2 - t) squares the radical error term
        corr = {k: -v % A.p for k, v in t.items() if k != e}
        ce = (2 - t.get(e, 0)) % A.p
        if ce:
            corr[e] = ce
        x = A.mult(x, corr)
    raise AlgebraError("local inverse iteration did not terminate")


def _elem_neg(p, x):
    return {k: (p - v) % p for k, v in x.items() if v % p}


def _elem_sub(p, x, y):
    out = dict(x)
    for k, v in y.items():
        out[k] = (out.get(k, 0) - v) % p
    return {k: v for k, v in out.items() if v}


def _mat_compose(A, M, N, ndst, nmid, nsrc):
    """Matrix product of algebra-valued matrices, composition order M after N.
    Each cell sums over the nonzero cells of its column of N only."""
    p = A.p
    cols = [[(j, N[j][k]) for j in range(nmid) if N[j][k]] for k in range(nsrc)]
    out = []
    for l in range(ndst):
        Ml = M[l]
        row = []
        for col in cols:
            acc = {}
            for j, y in col:
                x = Ml[j]
                if x:
                    for bi, c in A.mult(x, y).items():
                        acc[bi] = (acc.get(bi, 0) + c) % p
            row.append({bi: c for bi, c in acc.items() if c})
        out.append(tuple(row))
    return tuple(out)


@memo
def _layout(A, src, dst):
    """Coordinate slots (dst summand, src summand, path) of Hom(+P(src), +P(dst))."""
    return tuple(
        (l, k, b)
        for l, zl in enumerate(dst)
        for k, mk in enumerate(src)
        for b in A.paths[zl][mk]
    )


def _offsets(A, src, dst):
    """(offsets, length) of _layout(A, src, dst): offsets[l][k] is where the
    block of slots (l, k, b) starts, so the slot (l, k, b) is at
    offsets[l][k] + _path_pos(A)[b]."""
    base = []
    n = 0
    for zl in dst:
        spans = A.paths[zl]
        row = []
        for mk in src:
            row.append(n)
            n += len(spans[mk])
        base.append(tuple(row))
    return tuple(base), n


@memo
def _path_pos(A):
    """The position of each basis path b inside its span A.paths[i][j]."""
    pos = [0] * A.dim
    for row in A.paths:
        for span in row:
            for t, b in enumerate(span):
                pos[b] = t
    return tuple(pos)


def _vec(slots, M):
    return tuple(M[l][k].get(b, 0) for (l, k, b) in slots)


def _unvec(slots, nsrc, ndst, vec):
    rows = [[{} for _ in range(nsrc)] for _ in range(ndst)]
    for (l, k, b), c in zip(slots, vec):
        if c:
            rows[l][k][b] = c
    return tuple(tuple(rows[l][k] for k in range(nsrc)) for l in range(ndst))


# -- complexes ----------------------------------------------------------------


class TwoTermComplex:
    """Complex of projectives concentrated in degrees -1 and 0.

    mat[l][k] is the component P(minus[k]) -> P(zero[l]); its support must
    consist of paths from zero[l] to minus[k].  Two complexes are equal when
    they have the same algebra, terms and differential, so caches key them by
    value.
    """

    __slots__ = ("algebra", "minus", "zero", "mat", "_hash")

    def __init__(self, algebra, minus, zero, mat):
        self.algebra = algebra
        self._hash = None
        self.minus = tuple(minus)
        self.zero = tuple(zero)
        if not all(0 <= v < algebra.n for v in self.minus + self.zero):
            raise SiltingError("invalid vertex in terms %r, %r" % (self.minus, self.zero))
        p = algebra.p
        rows = []
        if len(mat) != len(self.zero):
            raise SiltingError("differential has %d rows, expected %d" % (len(mat), len(self.zero)))
        for l, zl in enumerate(self.zero):
            row = mat[l]
            if len(row) != len(self.minus):
                raise SiltingError("differential row %d has wrong width" % l)
            cleaned = []
            allowed = algebra.paths[zl]
            for k, mk in enumerate(self.minus):
                cell = {}
                for b, c in row[k].items():
                    c %= p
                    if not c:
                        continue
                    if b not in allowed[mk]:
                        raise SiltingError(
                            "entry (%d, %d) uses a path outside e_%d A e_%d" % (l, k, zl, mk)
                        )
                    cell[b] = c
                cleaned.append(cell)
            rows.append(tuple(cleaned))
        self.mat = tuple(rows)

    def g_vector(self):
        n = self.algebra.n
        g = [0] * n
        for i in self.zero:
            g[i] += 1
        for i in self.minus:
            g[i] -= 1
        return tuple(g)

    def __eq__(self, other):
        return (
            isinstance(other, TwoTermComplex)
            and self.algebra is other.algebra
            and self.minus == other.minus
            and self.zero == other.zero
            and self.mat == other.mat
        )

    def __hash__(self):
        if self._hash is None:
            cells = tuple(tuple(frozenset(cell.items()) for cell in row) for row in self.mat)
            self._hash = hash((id(self.algebra), self.minus, self.zero, cells))
        return self._hash

    def __repr__(self):
        return "TwoTermComplex(minus=%r, zero=%r)" % (self.minus, self.zero)


def projective_complex(A, i):
    """Stalk complex P(i) in degree 0."""
    if not 0 <= i < A.n:
        raise SiltingError("invalid vertex %r" % (i,))
    return TwoTermComplex(A, (), (i,), ((),))


def initial_silting(A):
    """The algebra itself, one stalk summand per vertex."""
    parts = [projective_complex(A, i) for i in range(A.n)]
    return tuple(sorted(parts, key=lambda c: c.g_vector()))


def direct_sum_complex(parts, A):
    minus = []
    zero = []
    for part in parts:
        minus.extend(part.minus)
        zero.extend(part.zero)
    mat = []
    coff = 0
    nm = len(minus)
    for part in parts:
        for l in range(len(part.zero)):
            row = [{} for _ in range(nm)]
            for k in range(len(part.minus)):
                row[coff + k] = dict(part.mat[l][k])
            mat.append(tuple(row))
        coff += len(part.minus)
    return TwoTermComplex(A, tuple(minus), tuple(zero), tuple(mat))


# -- chain maps up to homotopy -------------------------------------------------


def _products(A, X, Y, sa, sb):
    """Per-row product tables of the Hom complex.

    fy[(l, b)] lists (j, Y.mat[j][l] b) over the rows j of Y for the (l, b)
    of the slots sa, and xf[(k, b)] lists (j, b X.mat[k][j]) over the columns
    j of X for the (k, b) of the slots sb.  A product does not depend on the
    slot's other summand index, so each is computed once however many slots
    share it."""
    fy = {}
    for (l, _, b) in sa:
        if (l, b) not in fy:
            fy[(l, b)] = tuple(
                (j, A.mult(row[l], {b: 1})) for j, row in enumerate(Y.mat) if row[l]
            )
    xf = {}
    for (_, k, b) in sb:
        if (k, b) not in xf:
            xf[(k, b)] = tuple((j, A.mult({b: 1}, x)) for j, x in enumerate(X.mat[k]) if x)
    return fy, xf


def _delta(A, sa, sb, offc, nc, fy, xf):
    """Rows of the Hom-complex differential Hom^0(X, Y) -> Hom^1(X, Y),
    (alpha, beta) |-> beta f_X - f_Y alpha, read from the tables of
    _products: nc sparse rows {column: value}, one per slot of
    _layout(A, X.minus, Y.zero), over the columns of the alpha slots of sa
    and then of the beta slots of sb.  A product in block (j, k) lands in
    row offc[j][k] + _path_pos(A)[path] (see _offsets).  Its kernel is the
    chain maps X -> Y, its cokernel Hom(X, Y[1])."""
    p = A.p
    pos = _path_pos(A)
    rows = [{} for _ in range(nc)]
    col = 0
    for (l, k, b) in sa:
        for j, prod in fy[(l, b)]:
            o = offc[j][k]
            for bi, c in prod.items():
                rows[o + pos[bi]][col] = -c % p
        col += 1
    for (l, k, b) in sb:
        for j, prod in xf[(k, b)]:
            o = offc[l][j]
            for bi, c in prod.items():
                rows[o + pos[bi]][col] = c
        col += 1
    return rows


@memo
def _chain_data(A, X, Y):
    """The Hom complex of X and Y, built once per ordered pair: the slot
    layouts of its degree-0 terms, the number nc of rows of its
    differential and their nullity, the null-homotopic span of the chain
    maps X -> Y, and the coordinate vectors of representatives for a basis
    of their homotopy classes.  Rows and homotopy images are placed by
    block offset (_offsets), so no degree-1 layout or slot index is built.
    The matrices of the representatives are a table of their own
    (_k_mats), built on first read, since the presilting test never reads
    them.  Hom(X, Y[1]) vanishes when the differential is onto, that is
    when len(sa) + len(sb) - nullity == nc."""
    p = A.p
    sa = _layout(A, X.minus, Y.minus)
    sb = _layout(A, X.zero, Y.zero)
    sh = _layout(A, X.zero, Y.minus)
    na, nb = len(sa), len(sb)
    offc, nc = _offsets(A, X.minus, Y.zero)
    fy, xf = _products(A, X, Y, sa + sh, sb + sh)
    sol = nullspace(_delta(A, sa, sb, offc, nc, fy, xf), na + nb, p)
    # null-homotopic chain maps (h f_X, f_Y h) for h: X^0 -> Y^{-1}; none
    # when there is no h, and then nothing to eliminate
    hot = ()
    if sh:
        hvecs = []
        pos = _path_pos(A)
        offa, _ = _offsets(A, X.minus, Y.minus)
        offb, _ = _offsets(A, X.zero, Y.zero)
        for (l, k, b) in sh:
            v = [0] * (na + nb)
            for j, prod in xf[(k, b)]:
                o = offa[l][j]
                for bi, c in prod.items():
                    v[o + pos[bi]] = c
            for j, prod in fy[(l, b)]:
                o = na + offb[j][k]
                for bi, c in prod.items():
                    v[o + pos[bi]] = c
            hvecs.append(tuple(v))
        hot, _ = rref(tuple(hvecs), p)
    work = hot
    k_vecs = []
    for v in sol:
        r = residual(v, work, p)
        if any(r):
            k_vecs.append(v)
            work, _ = rref(work + (r,), p)
    return {
        "sa": sa,
        "sb": sb,
        "nc": nc,
        "nullity": len(sol),
        "hot": hot,
        "k_vecs": tuple(k_vecs),
    }


@memo
def _k_mats(A, X, Y):
    """The (alpha, beta) matrices of the basis vectors of _chain_data."""
    data = _chain_data(A, X, Y)
    sa, sb, na = data["sa"], data["sb"], len(data["sa"])
    return tuple(
        (
            _unvec(sa, len(X.minus), len(Y.minus), v[:na]),
            _unvec(sb, len(X.zero), len(Y.zero), v[na:]),
        )
        for v in data["k_vecs"]
    )


def hom_k_basis(X, Y):
    """Basis of the homotopy classes of chain maps X -> Y, as (alpha, beta)."""
    return _k_mats(X.algebra, X, Y)


def _pair_compose(A, outer, inner, X, Y, Z):
    """Chain map composite (X -> Y -> Z)."""
    alpha = _mat_compose(A, outer[0], inner[0], len(Z.minus), len(Y.minus), len(X.minus))
    beta = _mat_compose(A, outer[1], inner[1], len(Z.zero), len(Y.zero), len(X.zero))
    return (alpha, beta)


def _pair_vec(X, Y, pair):
    data = _chain_data(X.algebra, X, Y)
    return _vec(data["sa"], pair[0]) + _vec(data["sb"], pair[1])


# -- presilting ----------------------------------------------------------------


def _set_presilting(summands):
    """Hom(X, Y[1]) = 0 for all summands X, Y: the Hom-complex differential
    of each ordered pair is onto, read from the shared table."""
    summands = tuple(summands)
    tables = (_chain_data(X.algebra, X, Y) for X in summands for Y in summands)
    return all(len(t["sa"]) + len(t["sb"]) - t["nullity"] == t["nc"] for t in tables)


def is_silting(summands):
    """Presilting with one indecomposable summand per simple module.

    Summands must be pairwise nonisomorphic; since the g-vector separates
    indecomposable presilting complexes this is a g-vector distinctness check.
    """
    summands = tuple(summands)
    if not summands:
        return False
    if len(summands) != summands[0].algebra.n:
        return False
    if len({c.g_vector() for c in summands}) != len(summands):
        return False
    return _set_presilting(summands)


# -- reduction -----------------------------------------------------------------


def _find_pivot(A, terms, diffs):
    p = A.p
    for d, D in enumerate(diffs):
        src, dst = terms[d], terms[d + 1]
        for l in range(len(dst)):
            for k in range(len(src)):
                if src[k] != dst[l]:
                    continue
                if D[l][k].get(A.basis_index[(src[k], ())], 0) % p:
                    return d, l, k
    return None


def _eliminate(A, terms, diffs, d, l0, k0):
    """Split off the invertible component D[l0][k0] of diffs[d] in place:
    the rows it touches are updated, then its row and column are dropped."""
    p = A.p
    D = diffs[d]
    uinv = _local_inverse(A, terms[d + 1][l0], D[l0][k0])
    # u is a unit, so the products with nonzero cells are nonzero
    w = {k: A.mult(uinv, x) for k, x in enumerate(D[l0]) if k != k0 and x}
    for l, row in enumerate(D):
        if l != l0 and row[k0]:
            for k, wk in w.items():
                row[k] = _elem_sub(p, row[k], A.mult(row[k0], wk))
    if d > 0:
        Dp = diffs[d - 1]
        for j in range(len(terms[d - 1])):
            acc = dict(Dp[k0][j])
            for k, wk in w.items():
                if not Dp[k][j]:
                    continue
                for bi, c in A.mult(wk, Dp[k][j]).items():
                    acc[bi] = (acc.get(bi, 0) + c) % p
            if any(c % p for c in acc.values()):
                raise SiltingError("split summand leaks upstream")
        del Dp[k0]
    if d + 1 < len(diffs):
        Dn = diffs[d + 1]
        v = {l: A.mult(row[k0], uinv) for l, row in enumerate(D) if l != l0 and row[k0]}
        for j in range(len(terms[d + 2])):
            acc = dict(Dn[j][l0])
            for l, vl in v.items():
                if not Dn[j][l]:
                    continue
                for bi, c in A.mult(Dn[j][l], vl).items():
                    acc[bi] = (acc.get(bi, 0) + c) % p
            if any(c % p for c in acc.values()):
                raise SiltingError("split summand leaks downstream")
        for row in Dn:
            del row[l0]
    del D[l0]
    for row in D:
        del row[k0]
    del terms[d][k0]
    del terms[d + 1][l0]


def _reduce_chain(A, terms, diffs):
    """Strip every invertible component of a chain of differentials.

    Cells are never mutated (``_elem_sub`` returns a new dict), so only the
    list structure is copied before the in-place eliminations."""
    terms = [list(t) for t in terms]
    diffs = [[list(row) for row in D] for D in diffs]
    while (hit := _find_pivot(A, terms, diffs)) is not None:
        _eliminate(A, terms, diffs, *hit)
    return [tuple(t) for t in terms], [tuple(tuple(row) for row in D) for D in diffs]


# -- mutation ------------------------------------------------------------------


def _approximation(X, others, left):
    """Minimal left (or right) approximation of X by the others, as the
    kept (t, pair) copies of the chain maps X -> others[t] (others[t] -> X).

    A set of copies approximates when, for each S among the others, their
    composites with Hom(others[t], S) (Hom(S, others[t])) and the
    null-homotopic maps span the chain maps X -> S (S -> X).  Each copy's
    composite rows are built once.  Approximation is monotone in the kept
    set, so one pass in copy order drops every copy that can go: a copy
    kept once stays needed after later copies are dropped.
    """
    A = X.algebra
    copies = [
        (t, pair)
        for t, T in enumerate(others)
        for pair in (hom_k_basis(X, T) if left else hom_k_basis(T, X))
    ]
    tests = []
    for S in others:
        src, dst = (X, S) if left else (S, X)
        data = _chain_data(A, src, dst)
        rows = []
        for t, pair in copies:
            T = others[t]
            if left:
                comps = (_pair_compose(A, psi, pair, X, T, S) for psi in hom_k_basis(T, S))
            else:
                comps = (_pair_compose(A, pair, psi, S, T, X) for psi in hom_k_basis(S, T))
            rows.append(tuple(_pair_vec(src, dst, comp) for comp in comps))
        tests.append((data["hot"], len(data["hot"]) + len(data["k_vecs"]), rows))

    def approximates(kept):
        return all(
            rank(hot + tuple(r for c in kept for r in rows[c]), A.p) == need
            for hot, need, rows in tests
        )

    kept = range(len(copies))
    if not approximates(kept):
        raise MutationError("universal %s fails to approximate" % ("target" if left else "source"))
    for c in range(len(copies)):
        trial = [d for d in kept if d != c]
        if approximates(trial):
            kept = trial
    return [copies[c] for c in kept]


def _reduced_cone(A, S, T, fa, fb):
    """Reduced cone of f: S -> T, whose components are fa: S^-1 -> T^-1 and
    fb: S^0 -> T^0.  Its terms are S^-1, S^0 + T^-1 and T^0, with
    differentials D0 = [-d_S ; fa] and D1 = [fb | d_T]."""
    sm, sz, tm = range(len(S.minus)), range(len(S.zero)), range(len(T.minus))
    D0 = [[_elem_neg(A.p, S.mat[l][k]) for k in sm] for l in sz]
    D0 += [[fa[l][k] for k in sm] for l in tm]
    D1 = [[fb[l][k] for k in sz] + [T.mat[l][k] for k in tm] for l in range(len(T.zero))]
    return _reduce_chain(A, [S.minus, S.zero + T.minus, T.zero], [D0, D1])


def _exchange(X, others, left):
    """The summand replacing X, or None when the cone leaves two terms.

    Left: the cone of the minimal left approximation g: X -> E, in degrees
    -2..0; g stacks the copies as rows.  Right: the cone of the minimal
    right approximation h: E -> X shifted one step right, in degrees
    -1..+1; h stacks the copies as columns."""
    A = X.algebra
    copies = _approximation(X, others, left)
    E = direct_sum_complex([others[t] for t, _ in copies], A)
    if left:
        S, T = X, E
        fa, fb = ([row for _, pair in copies for row in pair[m]] for m in (0, 1))
    else:
        S, T = E, X
        fa, fb = (
            [[e for _, pair in copies for e in pair[m][r]] for r in range(nrows)]
            for m, nrows in ((0, len(X.minus)), (1, len(X.zero)))
        )
    terms, diffs = _reduced_cone(A, S, T, fa, fb)
    if terms[0 if left else 2]:
        return None
    d = 1 if left else 0
    return TwoTermComplex(A, terms[d], terms[d + 1], diffs[d])


def mutate(summands, k):
    """Exchange summand k of a basic silting complex; returns the sorted
    summand tuple of the neighbouring silting complex.  The exchange is left
    when summand k's c-vector is positive, right when it is negative."""
    summands = tuple(summands)
    if not summands:
        raise MutationError("empty complex cannot be mutated")
    A = summands[0].algebra
    if not 0 <= k < len(summands):
        raise MutationError("summand index %r out of range" % (k,))
    if not is_silting(summands):
        raise MutationError("mutation requires a basic silting complex")
    X = summands[k]
    others = summands[:k] + summands[k + 1 :]
    key = vertex_key(summands)
    c_vector = _inverse_gvectors(A, key)[key.index(X.g_vector())]
    new = _exchange(X, others, min(c_vector) >= 0)
    if new is None:
        raise MutationError("mutation leaves the two-term range")
    out = tuple(sorted(others + (new,), key=lambda c: c.g_vector()))
    if not is_silting(out):
        raise MutationError("exchange did not produce a silting complex")
    return out


# -- the exchange graph ----------------------------------------------------------


def vertex_key(summands):
    return tuple(sorted(c.g_vector() for c in summands))


def enumerate_silting(A, depth):
    """Breadth-first walk of the mutation graph starting at the algebra.

    The result is complete when every reached vertex was expanded and all
    its neighbours were already known; a vertex parked at the depth limit
    leaves the answer a lower bound instead.

    Each edge is derived once.  When a mutation reaches a vertex, new or
    known, that vertex records the g-vector of the summand the mutation
    created there, and its expansion skips every recorded summand: an
    almost complete two-term silting complex has exactly two completions
    (Adachi-Iyama-Reiten, Thm 2.18), so mutating there can only give back a
    vertex whose edge is already known.
    """
    if depth < 0:
        raise SiltingError("depth must be nonnegative")
    start = initial_silting(A)
    key0 = vertex_key(start)
    info = {key0: {"summands": start, "depth": 0, "done": set()}}
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
        for k, X in enumerate(rec["summands"]):
            if X.g_vector() in rec["done"]:
                continue
            new = mutate(rec["summands"], k)
            nk = vertex_key(new)
            if nk not in info:
                info[nk] = {"summands": new, "depth": rec["depth"] + 1, "done": set()}
                order.append(nk)
            if nk != key:
                edges.add((key, nk) if key <= nk else (nk, key))
                (created,) = set(nk) - set(key)
                info[nk]["done"].add(created)
    vertices = tuple(
        {"key": key, "summands": info[key]["summands"], "depth": info[key]["depth"]}
        for key in sorted(info)
    )
    return {
        "depth": depth,
        "complete": complete,
        "vertices": vertices,
        "edges": tuple(sorted(edges)),
    }


def silting_cone(summands):
    """Cone spanned by the summand g-vectors, which must be a basis of Z^n."""
    summands = tuple(summands)
    if not summands:
        raise SiltingError("empty summand list")
    A = summands[0].algebra
    _inverse_gvectors(A, vertex_key(summands))
    return RationalCone.from_vectors(A.n, tuple(c.g_vector() for c in summands))


@memo
def _inverse_gvectors(A, key):
    """Rows of the integer inverse of the matrix whose columns are the
    g-vectors in key: row i dotted with theta is the coordinate of theta
    along key[i].  The g-vectors of a two-term silting complex are a basis
    of Z^n (Adachi-Iyama-Reiten), so the inverse must be integral."""
    n = A.n
    mat = [[g[i] for g in key] for i in range(n)]
    inv = unimodular_inverse(mat) if len(key) == n else None
    if inv is None:
        raise SiltingError("g-vectors %r are not a basis of Z^%d" % (key, n))
    return inv


def rigidity(theta, graph):
    """Locate theta in the open face fan of an enumerated exchange graph.

    Returns a dict with verdict "rigid" (plus the witnessing rays and their
    strictly positive coefficients), "not_rigid" (only on a complete graph),
    or "unknown" (the walk was cut off at its depth limit).  The witness is
    the first vertex, in key order, whose cone holds theta; since its rays
    are independent, the face whose relative interior holds theta is the
    rays with positive coordinates.
    """
    theta = tuple(theta)
    depth = graph["depth"]
    if not any(theta):
        return {"verdict": "rigid", "rays": (), "coeffs": (), "vertex": None, "depth": depth}
    A = graph["vertices"][0]["summands"][0].algebra
    for vert in graph["vertices"]:
        key = vert["key"]
        coords = [sum(a * t for a, t in zip(row, theta)) for row in _inverse_gvectors(A, key)]
        if all(x >= 0 for x in coords):
            return {
                "verdict": "rigid",
                "rays": tuple(g for g, x in zip(key, coords) if x),
                "coeffs": tuple(x for x in coords if x),
                "vertex": key,
                "depth": depth,
            }
    if graph["complete"]:
        return {"verdict": "not_rigid", "rays": None, "coeffs": None, "vertex": None, "depth": depth}
    return {"verdict": "unknown", "rays": None, "coeffs": None, "vertex": None, "depth": depth}


# -- cohomology and induced torsion pairs ----------------------------------------


def _projective_map(U):
    """Per-vertex matrices of the differential P1 -> P0 of U: its component
    x: P(k) -> P(l) is left multiplication by x on the paths starting at k."""
    A = U.algebra
    return tuple(
        path_map(A, [A.paths[k][v] for k in U.minus], [A.paths[l][v] for l in U.zero], U.mat)
        for v in range(A.n)
    )


def _nakayama_map(U):
    """Per-vertex matrices of the Nakayama twist nu P1 -> nu P0 of U: its
    component x: P(k) -> P(l) becomes the dual of right multiplication by x,
    from the paths ending at l to those ending at k."""
    A = U.algebra
    cells = [[row[k] for row in U.mat] for k in range(len(U.minus))]
    return tuple(
        path_map(
            A,
            [A.paths[v][l] for l in U.zero],
            [A.paths[v][k] for k in U.minus],
            cells,
            right=True,
            dual=True,
        )
        for v in range(A.n)
    )


def twisted_kernel(U):
    """H^{-1} of the Nakayama twist, the kernel of nu P1 -> nu P0, as a
    representation."""
    A = U.algebra
    Nm = injective_module(A, *U.minus)
    Nz = injective_module(A, *U.zero)
    return submodule_rep(Nm, kernel_submodule(_nakayama_map(U), Nm, Nz))


def cohomology(U):
    """(H^0(U), H^{-1} of the Nakayama twist), both as representations."""
    A = U.algebra
    Mm = projective_module(A, *U.minus)
    Mz = projective_module(A, *U.zero)
    h0 = quotient_module(Mz, image_submodule(_projective_map(U), Mm, Mz))
    return h0, twisted_kernel(U)


def induced_torsion_pairs(cat, U):
    """Pair of torsion class masks cut out by the cohomology of U.

    Returns (big, small): the perp class of the twisted kernel and the
    factor closure of the cokernel, with small <= big checked.
    """
    h0, hm1 = cohomology(U)
    big = left_perp(cat, [hm1])
    small = fac_closure(cat, [h0])
    if small & ~big:
        raise SiltingError("induced torsion classes are not nested")
    return big, small
