"""Path algebras with admissible relations over F_p, and their modules.

Conventions, fixed once and used by every other module:

  * paths compose left to right: ``p.q`` means "p, then q", defined when
    target(p) == source(q);
  * a representation assigns to each arrow a: s -> t a (d_t x d_s) matrix
    over F_p, and a path a_1...a_k acts as M_{a_k} @ ... @ M_{a_1};
  * P(i) is carried by the basis paths starting at i (arrows append on the
    right), hence dim Hom(P(i), M) = dims(M)_i;
  * I(i) is the linear dual of the span of basis paths ending at i, with an
    arrow acting as the transpose of left multiplication;
  * Hom(P(i), P(j)) is identified with the span of basis paths j -> i, an
    element x acting by q |-> x.q.

The path basis is computed by linear algebra on a truncated window of paths.
For ideals generated by length-homogeneous relations this window computation
is exact once a path length with empty basis layer appears (leading terms
form a monomial ideal, and monomial complements are closed under subpaths).
Inhomogeneous admissible relations get an extra window-stability pass.
``A.paths[i][j]`` is the one index of basis paths from i to j; the
projective and injective layouts and ``paths_between`` all read it.
``path_map`` is the one matrix of multiplication of basis paths by algebra
elements: the arrow actions on projectives and injectives and the maps of a
two-term complex in the silting layer are its blocks.

``memo`` is the one cache primitive of the package: every memoised result,
here and in the catalogue, torsion and silting layers, is stored on the
object that owns it, and lives and dies with that object.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps

from .linalg import (
    identity,
    in_row_space,
    mat_mul,
    mat_vec,
    nullspace,
    residual,
    row_space,
    rref,
    zeros,
)

PATH_CAP = 10_000

PRIMES = (2, 3, 5, 7, 11, 13)


class AlgebraError(Exception):
    pass


def memo(fn):
    """Cache fn(owner, *args) in a dict on owner, keyed by args.

    Each decorated function has its own table in the owner's ``__dict__``,
    so the cache is freed with its owner and no two functions share one.
    A call that raises stores nothing.
    """
    name = "_memo_%s.%s" % (fn.__module__, fn.__qualname__)

    @wraps(fn)
    def cached(owner, *args):
        table = owner.__dict__.get(name)
        if table is None:
            table = owner.__dict__[name] = {}
        try:
            return table[args]
        except KeyError:
            pass
        out = table[args] = fn(owner, *args)
        return out

    return cached


@dataclass(frozen=True)
class Arrow:
    name: str
    source: int
    target: int


def _window_overflow():
    return AlgebraError(
        "path window exceeds %d paths; ideal is not admissible "
        "or the algebra is infinite dimensional" % PATH_CAP
    )


def _has_oriented_cycle(n, arrows):
    """Whether the quiver has an oriented cycle: peeling off vertices with no
    incoming arrow (Kahn's algorithm) leaves some vertex behind."""
    indeg = [0] * n
    for a in arrows:
        indeg[a.target] += 1
    ready = [v for v in range(n) if not indeg[v]]
    peeled = 0
    while ready:
        v = ready.pop()
        peeled += 1
        for a in arrows:
            if a.source == v:
                indeg[a.target] -= 1
                if not indeg[a.target]:
                    ready.append(a.target)
    return peeled < n


def _path_target(algebra_arrows, path):
    src, arrows = path
    return algebra_arrows[arrows[-1]].target if arrows else src


class Algebra:
    """A = KQ/I with a saturated path basis and multiplication table.

    Paths are pairs (source_vertex_index, tuple_of_arrow_indices).
    Elements are dicts {basis_index: coefficient mod p}.
    """

    def __init__(self, p, vertex_names, arrows, relations, source_text=""):
        if p not in PRIMES:
            raise AlgebraError("field must be a prime p with 2 <= p <= 13, got %r" % (p,))
        self.p = p
        self.vertex_names = tuple(vertex_names)
        self.n = len(self.vertex_names)
        self.arrows = tuple(arrows)
        self.relations = tuple(tuple(r) for r in relations)
        self.source_text = source_text
        self._check_relations_shape()
        self._build_basis()

    # -- construction ------------------------------------------------------

    def _check_relations_shape(self):
        for rel in self.relations:
            if not rel:
                raise AlgebraError("empty relation")
            ends = set()
            for coeff, (src, arrs) in rel:
                if len(arrs) < 2:
                    raise AlgebraError("relation paths must have length >= 2")
                ends.add((src, _path_target(self.arrows, (src, arrs))))
            if len(ends) != 1:
                raise AlgebraError("relation terms are not parallel paths")

    def _paths_up_to(self, L):
        """All paths of length <= L, grouped by length."""
        layers = [[(v, ()) for v in range(self.n)]]
        total = self.n
        for length in range(1, L + 1):
            nxt = []
            for src, arrs in layers[-1]:
                tail = _path_target(self.arrows, (src, arrs))
                for ai, a in enumerate(self.arrows):
                    if a.source == tail:
                        nxt.append((src, arrs + (ai,)))
            total += len(nxt)
            if total > PATH_CAP:
                raise _window_overflow()
            layers.append(nxt)
        return layers

    def _path_key(self, path):
        src, arrs = path
        return (len(arrs), tuple(self.arrows[a].name for a in arrs), src)

    def _reduction_data(self, L):
        """RREF the ideal window at length L.

        Returns (window_paths_ascending, nf) where nf maps every window path
        to a tuple of (path, coeff) over non-pivot paths.
        """
        layers = self._paths_up_to(L)
        paths = [q for layer in layers for q in layer]
        paths.sort(key=self._path_key)
        # column 0 = largest path, so RREF pivots are leading (largest) terms
        desc = paths[::-1]
        col = {q: i for i, q in enumerate(desc)}
        rows = []
        by_start = {}
        for q in paths:
            by_start.setdefault(q[0], []).append(q)
        for rel in self.relations:
            src0 = rel[0][1][0]
            tgt0 = _path_target(self.arrows, rel[0][1])
            rlen = max(len(arrs) for _, (_, arrs) in rel)
            for x in paths:
                if _path_target(self.arrows, x) != src0:
                    continue
                lx = len(x[1])
                if lx + rlen > L:
                    continue
                for y in by_start.get(tgt0, ()):
                    if lx + rlen + len(y[1]) > L:
                        continue
                    vec = [0] * len(desc)
                    for coeff, (_, rarrs) in rel:
                        full = (x[0], x[1] + rarrs + y[1])
                        vec[col[full]] = (vec[col[full]] + coeff) % self.p
                    rows.append(tuple(vec))
        red, pivots = rref(rows, self.p) if rows else ((), ())
        pivset = set(pivots)
        nf = {}
        for q in paths:
            c = col[q]
            if c not in pivset:
                nf[q] = ((q, 1),)
        for i, c in enumerate(pivots):
            combo = []
            for j, entry in enumerate(red[i]):
                if entry and j != c:
                    combo.append((desc[j], (-entry) % self.p))
            nf[desc[c]] = tuple(combo)
        return paths, nf

    def _maxrel(self):
        m = 0
        for rel in self.relations:
            for _, (_, arrs) in rel:
                m = max(m, len(arrs))
        return m

    def _build_basis(self):
        if not self.relations and _has_oriented_cycle(self.n, self.arrows):
            # paths around a free cycle have every length, so every window
            # would grow to the cap
            raise _window_overflow()
        maxrel = self._maxrel()
        homogeneous = all(
            len({len(arrs) for _, (_, arrs) in rel}) == 1 for rel in self.relations
        )
        L = max(2, 2 * maxrel)
        basis = None
        while True:
            paths, nf = self._reduction_data(L)
            standard = [q for q in paths if nf[q] == ((q, 1),)]
            by_len = {}
            for q in standard:
                by_len.setdefault(len(q[1]), 0)
                by_len[len(q[1])] += 1
            empty = next((l for l in range(L + 1) if by_len.get(l, 0) == 0), None)
            if empty is not None:
                if any(len(q[1]) >= empty for q in standard):
                    # only possible for inhomogeneous ideals; widen the window
                    L += maxrel + 2
                    continue
                basis = standard
                break
            # no empty layer yet: grow geometrically so the path cap is
            # reached in O(log cap) rounds when the algebra is infinite
            L = 2 * L + max(2, maxrel)
        if not homogeneous:
            # stability double-check: the basis must survive a wider window
            paths2, nf2 = self._reduction_data(L + maxrel + 1)
            standard2 = [q for q in paths2 if nf2[q] == ((q, 1),)]
            if sorted(map(self._path_key, standard2)) != sorted(map(self._path_key, basis)):
                raise AlgebraError("path basis did not stabilize; ideal looks non-admissible")
        basis.sort(key=self._path_key)
        maxlen = max((len(q[1]) for q in basis), default=0)
        L2 = max(2 * maxlen, maxrel, 1)
        if L2 > L:
            _, nf = self._reduction_data(L2)
        self.basis = tuple(basis)
        self.basis_index = {q: i for i, q in enumerate(self.basis)}
        self._nf = {
            q: tuple((self.basis_index[b], c) for b, c in combo)
            for q, combo in nf.items()
        }
        self.dim = len(self.basis)
        self.path_source = tuple(q[0] for q in self.basis)
        self.path_target = tuple(_path_target(self.arrows, q) for q in self.basis)
        paths = [[[] for _ in range(self.n)] for _ in range(self.n)]
        for k in range(self.dim):
            paths[self.path_source[k]][self.path_target[k]].append(k)
        self.paths = tuple(tuple(tuple(ks) for ks in row) for row in paths)

    # -- element arithmetic ------------------------------------------------

    def reduce_path(self, path):
        combo = self._nf.get(path)
        if combo is None:
            raise AlgebraError("path of length %d outside reduction window" % len(path[1]))
        return {i: c for i, c in combo}

    @memo
    def mult_basis(self, i, j):
        """Product basis[i].basis[j] as a tuple of (index, coeff)."""
        if self.path_target[i] != self.path_source[j]:
            return ()
        src, arrs = self.basis[i]
        return tuple(sorted(self.reduce_path((src, arrs + self.basis[j][1])).items()))

    def mult(self, x, y):
        """Product of two elements given as {basis_index: coeff} dicts."""
        out = {}
        for i, ci in x.items():
            if not ci:
                continue
            for j, cj in y.items():
                if not cj:
                    continue
                for k, ck in self.mult_basis(i, j):
                    out[k] = (out.get(k, 0) + ci * cj * ck) % self.p
        return {k: c for k, c in out.items() if c}

    def paths_between(self, i, j):
        """Indices of basis paths from vertex i to vertex j."""
        return self.paths[i][j]


# -- presentation file format ----------------------------------------------
#
#   field p=3
#   vertices 1 2
#   arrow a: 1 -> 2
#   relation 1*a.b + 2*b.a
#
# '#' starts a comment; paths are dot-separated arrow names, left to right.


def load_algebra(text):
    p = None
    vertex_names = []
    arrows = []
    raw_relations = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "field":
            fmt = rest.replace(" ", "")
            if not fmt.startswith("p="):
                raise AlgebraError("line %d: expected 'field p=<prime>'" % lineno)
            try:
                p = int(fmt[2:])
            except ValueError:
                raise AlgebraError("line %d: bad field line %r" % (lineno, rest))
        elif head == "vertices":
            vertex_names = rest.split()
            if not vertex_names:
                raise AlgebraError("line %d: empty vertex list" % lineno)
        elif head == "arrow":
            name_part, _, ends = rest.partition(":")
            name = name_part.strip()
            src_s, sep, tgt_s = ends.partition("->")
            if not sep or not name:
                raise AlgebraError("line %d: expected 'arrow name: v -> w'" % lineno)
            arrows.append((name, src_s.strip(), tgt_s.strip(), lineno))
        elif head == "relation":
            raw_relations.append((rest, lineno))
        else:
            raise AlgebraError("line %d: unknown directive %r" % (lineno, head))
    if p is None:
        raise AlgebraError("missing 'field' line")
    if not vertex_names:
        raise AlgebraError("missing 'vertices' line")
    if len(set(vertex_names)) != len(vertex_names):
        raise AlgebraError("duplicate vertex names")
    vindex = {name: i for i, name in enumerate(vertex_names)}
    arrow_objs = []
    aindex = {}
    for name, src_s, tgt_s, lineno in arrows:
        if src_s not in vindex or tgt_s not in vindex:
            raise AlgebraError("line %d: unknown vertex in arrow %r" % (lineno, name))
        if name in aindex:
            raise AlgebraError("line %d: duplicate arrow name %r" % (lineno, name))
        aindex[name] = len(arrow_objs)
        arrow_objs.append(Arrow(name, vindex[src_s], vindex[tgt_s]))
    relations = []
    for expr, lineno in raw_relations:
        relations.append(_parse_relation(expr, lineno, aindex, arrow_objs, p))
    return Algebra(p, vertex_names, arrow_objs, relations, source_text=text)


def _parse_relation(expr, lineno, aindex, arrow_objs, p):
    # split into signed terms on top-level + and -
    terms = []
    buf = ""
    sign = 1
    for ch in expr:
        if ch in "+-":
            if buf.strip():
                terms.append((sign, buf.strip()))
            buf = ""
            sign = 1 if ch == "+" else -1
        else:
            buf += ch
    if buf.strip():
        terms.append((sign, buf.strip()))
    if not terms:
        raise AlgebraError("line %d: empty relation" % lineno)
    out = []
    for sign, term in terms:
        coeff_s, star, path_s = term.partition("*")
        if star:
            try:
                coeff = int(coeff_s.strip())
            except ValueError:
                raise AlgebraError("line %d: bad coefficient %r" % (lineno, coeff_s))
        else:
            coeff, path_s = 1, term
        coeff = (sign * coeff) % p
        names = [s.strip() for s in path_s.split(".")]
        try:
            arrs = tuple(aindex[nm] for nm in names)
        except KeyError as exc:
            raise AlgebraError("line %d: unknown arrow %s" % (lineno, exc))
        for k in range(len(arrs) - 1):
            if arrow_objs[arrs[k]].target != arrow_objs[arrs[k + 1]].source:
                raise AlgebraError("line %d: path %r is not composable" % (lineno, path_s))
        if coeff:
            out.append((coeff, (arrow_objs[arrs[0]].source, arrs)))
    if not out:
        raise AlgebraError("line %d: relation vanishes mod %d" % (lineno, p))
    return out


# -- representations --------------------------------------------------------


class Representation:
    __slots__ = ("algebra", "dims", "mats", "_hash")

    def __init__(self, algebra, dims, mats, check=True):
        self.algebra = algebra
        self.dims = tuple(dims)
        self.mats = tuple(tuple(tuple(row) for row in m) for m in mats)
        self._hash = None
        if check:
            self._validate()

    def _validate(self):
        A = self.algebra
        if len(self.dims) != A.n or len(self.mats) != len(A.arrows):
            raise AlgebraError("representation shape mismatch with algebra")
        for ai, a in enumerate(A.arrows):
            m = self.mats[ai]
            if len(m) != self.dims[a.target]:
                raise AlgebraError("arrow %s: expected %d rows" % (a.name, self.dims[a.target]))
            for row in m:
                if len(row) != self.dims[a.source]:
                    raise AlgebraError("arrow %s: bad row length" % a.name)
        for rel in A.relations:
            src = rel[0][1][0]
            tgt = _path_target(A.arrows, rel[0][1])
            acc = zeros(self.dims[tgt], self.dims[src])
            for coeff, path in rel:
                pm = self.path_matrix(path)
                acc = tuple(
                    tuple((x + coeff * y) % A.p for x, y in zip(r1, r2))
                    for r1, r2 in zip(acc, pm)
                )
            if any(any(row) for row in acc):
                raise AlgebraError("relation does not annihilate the representation")

    def path_matrix(self, path):
        """Matrix of the action of a path, shape (d_target x d_source)."""
        A = self.algebra
        src, arrs = path
        cur = src
        m = identity(self.dims[src])
        for ai in arrs:
            a = A.arrows[ai]
            if self.dims[cur] == 0:
                m = zeros(self.dims[a.target], self.dims[src])
            else:
                m = mat_mul(self.mats[ai], m, A.p, inner=self.dims[cur])
                if not m and self.dims[a.target] == 0:
                    m = ()
            cur = a.target
        if self.dims[cur] == 0:
            return ()
        return m

    def total_dim(self):
        return sum(self.dims)

    def __eq__(self, other):
        return (
            isinstance(other, Representation)
            and self.algebra is other.algebra
            and self.dims == other.dims
            and self.mats == other.mats
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((id(self.algebra), self.dims, self.mats))
        return self._hash

    def __repr__(self):
        return "Representation(dims=%r)" % (self.dims,)


def zero_module(A):
    return Representation(A, (0,) * A.n, tuple(() for _ in A.arrows), check=False)


def simple_module(A, i):
    if not 0 <= i < A.n:
        raise AlgebraError("invalid vertex %r" % (i,))
    dims = tuple(1 if v == i else 0 for v in range(A.n))
    mats = []
    for a in A.arrows:
        dt, ds = dims[a.target], dims[a.source]
        mats.append(zeros(dt, ds))
    return Representation(A, dims, mats, check=False)


def path_map(A, src, dst, cells, right=False, dual=False):
    """F_p matrix of a block map between direct sums of spans of basis paths.

    src and dst are sequences of spans, each a tuple of basis indices.  Block
    (l, k) sends a path q of src[k] to cells[l][k].q, or to q.cells[l][k]
    when right is set, written in the basis of dst[l]; an empty cell is the
    zero block.  The matrix has one row per path of dst and one column per
    path of src, or is transposed when dual is set, which is the matrix of
    the dual map between the dual spaces.  A product with a path outside
    dst[l] raises AlgebraError.
    """
    row_of = {}
    for l, span in enumerate(dst):
        for b in span:
            row_of[(l, b)] = len(row_of)
    ncols = sum(map(len, src))
    m = [[0] * ncols for _ in row_of]
    c0 = 0
    for k, span in enumerate(src):
        for l, row in enumerate(cells):
            x = row[k]
            if not x:
                continue
            for c, q in enumerate(span, c0):
                for b, coeff in (A.mult({q: 1}, x) if right else A.mult(x, {q: 1})).items():
                    r = row_of.get((l, b))
                    if r is None:
                        raise AlgebraError(
                            "block (%d, %d) takes basis path %d outside its target span" % (l, k, q)
                        )
                    m[r][c] = coeff
        c0 += len(span)
    if dual:
        return tuple(tuple(row[c] for row in m) for c in range(ncols))
    return tuple(tuple(row) for row in m)


def proj_struct(A, i):
    """Basis-path layout of P(i) = e_i A: per-vertex lists of basis indices."""
    if not 0 <= i < A.n:
        raise AlgebraError("invalid vertex %r" % (i,))
    return A.paths[i]


def inj_struct(A, i):
    """Basis-path layout of the paths ending at i, grouped by source vertex."""
    if not 0 <= i < A.n:
        raise AlgebraError("invalid vertex %r" % (i,))
    return tuple(A.paths[v][i] for v in range(A.n))


def _arrow_module(A, layouts, right):
    """Direct sum of the modules carried by the path layouts, layouts[k][v]
    being summand k at vertex v.  An arrow a: s -> t acts on each summand by
    right multiplication, from s to t, or else by the dual of left
    multiplication, which runs from t to s."""
    dims = tuple(sum(len(lay[v]) for lay in layouts) for v in range(A.n))
    mats = []
    for ai, a in enumerate(A.arrows):
        x = {A.basis_index[(a.source, (ai,))]: 1}
        cells = [[x if l == k else {} for k in range(len(layouts))] for l in range(len(layouts))]
        s, t = (a.source, a.target) if right else (a.target, a.source)
        src = [lay[s] for lay in layouts]
        dst = [lay[t] for lay in layouts]
        mats.append(path_map(A, src, dst, cells, right=right, dual=not right))
    return Representation(A, dims, mats, check=False)


def projective_module(A, *vertices):
    """P(i) = e_i A, or the direct sum of P(i) over several vertices i."""
    return _arrow_module(A, [proj_struct(A, i) for i in vertices], right=True)


def injective_module(A, *vertices):
    """I(i), the dual of A e_i, or the direct sum of I(i) over several
    vertices i."""
    return _arrow_module(A, [inj_struct(A, i) for i in vertices], right=False)


def direct_sum(M, N):
    A = M.algebra
    dims = tuple(dm + dn for dm, dn in zip(M.dims, N.dims))
    mats = []
    for ai, a in enumerate(A.arrows):
        dt, ds = dims[a.target], dims[a.source]
        m = [[0] * ds for _ in range(dt)]
        mt, ms = M.dims[a.target], M.dims[a.source]
        for r in range(mt):
            for c in range(ms):
                m[r][c] = M.mats[ai][r][c]
        for r in range(N.dims[a.target]):
            for c in range(N.dims[a.source]):
                m[mt + r][ms + c] = N.mats[ai][r][c]
        mats.append(tuple(tuple(row) for row in m))
    return Representation(A, dims, mats, check=False)


# -- hom spaces --------------------------------------------------------------


def hom_space(M, N):
    """F_p-basis of Hom(M, N); each element is a tuple of per-vertex matrices
    phi_v of shape (dims(N)_v x dims(M)_v)."""
    A = M.algebra
    if A is not N.algebra:
        raise AlgebraError("modules over different algebras")
    p = A.p
    off = []
    acc = 0
    for v in range(A.n):
        off.append(acc)
        acc += N.dims[v] * M.dims[v]
    D = acc
    rows = []
    for ai, a in enumerate(A.arrows):
        s, t = a.source, a.target
        Ma, Na = M.mats[ai], N.mats[ai]
        for i in range(N.dims[t]):
            for j in range(M.dims[s]):
                row = [0] * D
                for k in range(M.dims[t]):
                    row[off[t] + i * M.dims[t] + k] = (row[off[t] + i * M.dims[t] + k] + Ma[k][j]) % p
                for k in range(N.dims[s]):
                    row[off[s] + k * M.dims[s] + j] = (row[off[s] + k * M.dims[s] + j] - Na[i][k]) % p
                if any(row):
                    rows.append(tuple(row))
    basis = nullspace(tuple(rows), D, p)
    out = []
    for vec in basis:
        phis = []
        for v in range(A.n):
            dN, dM = N.dims[v], M.dims[v]
            phis.append(
                tuple(
                    tuple(vec[off[v] + i * dM + j] for j in range(dM))
                    for i in range(dN)
                )
            )
        out.append(tuple(phis))
    return tuple(out)


def hom_dim(M, N):
    return len(hom_space(M, N))


# -- submodules and quotients -------------------------------------------------


def arrow_stable(M, sub):
    A = M.algebra
    for ai, a in enumerate(A.arrows):
        tgt_basis = sub[a.target]
        for vec in sub[a.source]:
            img = mat_vec(M.mats[ai], vec, A.p)
            if any(img) and not in_row_space(img, tgt_basis, A.p):
                return False
    return True


def quotient_module(M, sub):
    """Quotient of M by an arrow-stable tuple of per-vertex RREF bases.

    Its basis at v is the free (non-pivot) coordinates of M_v: an arrow
    sends a free basis vector to the residual of its image against the
    target basis, read at the free columns.
    """
    A = M.algebra
    if not arrow_stable(M, sub):
        raise AlgebraError("subspace family is not arrow stable")
    frees = []
    for v in range(A.n):
        pivots = {row.index(1) for row in sub[v]}
        frees.append([j for j in range(M.dims[v]) if j not in pivots])
    mats = []
    for ai, a in enumerate(A.arrows):
        m = M.mats[ai]
        reds = [residual([row[j] for row in m], sub[a.target], A.p) for j in frees[a.source]]
        mats.append(tuple(tuple(red[c] for red in reds) for c in frees[a.target]))
    return Representation(A, map(len, frees), mats, check=False)


def submodule_rep(M, sub):
    """Representation carried by an arrow-stable tuple of per-vertex RREF
    bases: the coordinates of an arrow image of a basis row are its entries
    at the pivot columns of the target basis."""
    A = M.algebra
    if not arrow_stable(M, sub):
        raise AlgebraError("subspace family is not arrow stable")
    mats = []
    for ai, a in enumerate(A.arrows):
        pivots = [row.index(1) for row in sub[a.target]]
        imgs = [mat_vec(M.mats[ai], vec, A.p) for vec in sub[a.source]]
        mats.append(tuple(tuple(img[c] for img in imgs) for c in pivots))
    return Representation(A, map(len, sub), mats, check=False)


def kernel_submodule(f, M, N):
    """Per-vertex RREF bases of the kernel of a hom f: M -> N."""
    A = M.algebra
    out = []
    for v in range(A.n):
        phi = f[v]
        ker = nullspace(phi, M.dims[v], A.p)
        out.append(row_space(ker, A.p))
    return tuple(out)


def image_submodule(f, M, N):
    """Per-vertex RREF bases of the image of f inside N: the row spaces of
    the columns of each f_v."""
    A = M.algebra
    return tuple(row_space(tuple(zip(*f[v])), A.p) for v in range(A.n))
