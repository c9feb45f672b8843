"""Exhaustive catalogue of module isomorphism classes inside a dimension window.

For each dimension vector d below the bound, the matrix tuples satisfying the
relations are enumerated up to simultaneous base change by sweeping the code
space in lexicographic order and marking whole GL-orbits; the first unvisited
code of an orbit is its canonical form.  GL(d_v, F_p) is generated by a cyclic
permutation, the transvection I + E_12, and (for p > 2) a primitive diagonal
scalar, so orbit connectivity under these generators is isomorphism.  Once
per dimension vector, each generator becomes one permutation of every code,
an array composed block by block from per-arrow transition tables (built
column by column and row by row from the generator's action on short
vectors, the identity on arrows away from the generator's vertex); the
orbit search then reads one array entry per code and generator, with no
matrix product or block split per code.  The relations are checked on the
first code of each orbit only, and the permutations are dropped when the
dimension vector is done.

The sweep keeps, for every code, the first code of its orbit, so an explicit
representation is located by encoding its matrices and reading that label: no
isomorphism test runs after the sweep.  Krull-Schmidt signatures come from
Fitting splittings found by sweeping endomorphism spaces, exhaustively and
refused past SWEEP_CAP; each split part is located in the catalogue and split
in turn (signature).  Bricks are read from submodule lattices (is_brick).
A lattice is seeded by the cyclic submodules vec.A, each spanned at a vertex
v by the images of vec under the basis paths from its vertex to v, read from
the item's path actions (path_actions), which the rank form of presentations
reads too.
Semibricks are every pairwise hom-orthogonal set of bricks, with no size cap.
"""

from __future__ import annotations

import itertools
from array import array
from operator import mul

from .algebra import (
    AlgebraError,
    Representation,
    hom_space,
    image_submodule,
    kernel_submodule,
    memo,
    quotient_module,
    submodule_rep,
)
from .linalg import inverse, mat_mul, mat_vec, rank, row_space

CODE_CAP = 4_000_000
SWEEP_CAP = 1_000_000


class BudgetError(Exception):
    pass


class WindowError(Exception):
    pass


def _primitive_root(p):
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    return 1


def _gl_generators(d, p):
    """Matrices generating GL(d, F_p)."""
    if d == 0:
        return ()
    gens = []
    if d >= 2:
        cyc = tuple(
            tuple(1 if j == (i + 1) % d else 0 for j in range(d)) for i in range(d)
        )
        gens.append(cyc)
        trans = tuple(
            tuple(1 if i == j else (1 if (i, j) == (0, 1) else 0) for j in range(d))
            for i in range(d)
        )
        gens.append(trans)
    if p > 2:
        g = _primitive_root(p)
        gens.append(
            tuple(
                tuple((g if i == 0 else 1) if i == j else 0 for j in range(d))
                for i in range(d)
            )
        )
    return tuple(gens)


def _digit_map(p, mat, groups):
    """Table of a code under a linear map on disjoint groups of its digits.

    Each group is a tuple of digit positions, and the group's digits, read as
    a vector v, become mat.v at the same positions.  The groups cover every
    digit, so a code's image is the sum of its groups' images, with no carry.
    """
    vecs = [t[::-1] for t in itertools.product(range(p), repeat=len(mat))]
    images = [tuple(sum(map(mul, row, v)) % p for row in mat) for v in vecs]
    codes, vals = [0], [0]
    for pos in groups:
        weights = [p**k for k in pos]
        spread = [sum(map(mul, v, weights)) for v in vecs]
        moved = [sum(map(mul, v, weights)) for v in images]
        codes = [s + c for s in spread for c in codes]
        vals = [m + x for m in moved for x in vals]
    tab = [0] * len(codes)
    for c, x in zip(codes, vals):
        tab[c] = x
    return tab


def _transition_table(p, dt, ds, g, h):
    """Code of g.m.h for every code of a dt x ds block m; g (h) is None when
    the rows (columns) do not move.  g acts on each column and h on each row,
    so each factor is a linear map on disjoint groups of the code's digits."""
    tab = None
    if g is not None:
        tab = _digit_map(p, g, [tuple(range(j, dt * ds, ds)) for j in range(ds)])
    if h is not None:
        ht = tuple(zip(*h))
        cols = _digit_map(p, ht, [tuple(range(i * ds, (i + 1) * ds)) for i in range(dt)])
        tab = cols if tab is None else [cols[x] for x in tab]
    return tab


def _code_permutation(tables, sizes):
    """A generator's image of every code, from its per-arrow block tables
    (None where the arrow does not move).  Arrow 0 holds the lowest digits,
    so the codes below an arrow's place value are the permutation built so
    far, offset by that arrow's moved block; no whole-length list is built."""
    perm = array("i", [0])
    base = 1
    for tab, size in zip(tables, sizes):
        lower, perm = perm, array("i")
        for t in range(size) if tab is None else tab:
            perm.extend(map((t * base).__add__, lower))
        base *= size
    return perm


def _all_dims(bound):
    return [dims for dims in itertools.product(*(range(b + 1) for b in bound))]


class Catalogue:
    def __init__(self, algebra, bound):
        self.algebra = algebra
        self.bound = tuple(bound)
        if len(self.bound) != algebra.n:
            raise WindowError("bound length does not match the number of vertices")
        if any(b < 0 for b in self.bound):
            raise WindowError("bound %r has a negative entry" % (self.bound,))
        # the number of code digits is largest at the bound, so one check
        # there refuses the window before any sweep; with at least
        # CODE_CAP.bit_length() digits there are more than CODE_CAP codes,
        # and p**load is never computed for an absurd bound
        p = algebra.p
        load = sum(self.bound[a.source] * self.bound[a.target] for a in algebra.arrows)
        if load >= CODE_CAP.bit_length() or p**load > CODE_CAP:
            raise BudgetError(
                "orbit sweep too large at dims %r: %d^%d codes" % (self.bound, p, load)
            )
        # per dimension vector: the first code of each code's orbit
        self._orbit_of = {}
        self._enumerate()
        self._by_total = sorted(
            range(len(self.reps)), key=lambda i: (sum(self.dims_of(i)), i)
        )

    # -- enumeration --------------------------------------------------------

    def _enumerate(self):
        A = self.algebra
        items = []
        for dims in _all_dims(self.bound):
            cells = [dims[a.target] * dims[a.source] for a in A.arrows]
            items.extend(self._sweep_dims(dims, cells))
        items.sort(key=lambda it: (it[0], it[1]))
        self.reps = tuple(rep for _, _, rep in items)
        self.fingerprints = tuple((dims, code) for dims, code, _ in items)
        self._fp_index = {fp: i for i, fp in enumerate(self.fingerprints)}

    def _decode(self, dims, code):
        """Matrices of a code, the inverse of _encode, one digit at a time."""
        p = self.algebra.p
        mats = []
        for a in self.algebra.arrows:
            rows = []
            for _ in range(dims[a.target]):
                row = []
                for _ in range(dims[a.source]):
                    code, x = divmod(code, p)
                    row.append(x)
                rows.append(tuple(row))
            mats.append(tuple(rows))
        return tuple(mats)

    def _sweep_dims(self, dims, cells):
        A = self.algebra
        p = A.p
        sizes = [p**c for c in cells]
        # one permutation of every code per GL generator of a vertex
        perms = []
        for v in range(A.n):
            for g in _gl_generators(dims[v], p):
                ginv = inverse(g, p)
                tables = [
                    _transition_table(
                        p,
                        dims[a.target],
                        dims[a.source],
                        g if a.target == v else None,
                        ginv if a.source == v else None,
                    )
                    if v in (a.source, a.target)
                    else None
                    for a in A.arrows
                ]
                perms.append(_code_permutation(tables, sizes))
        total = p ** sum(cells)
        orbit = array("i", [-1]) * total
        out = []
        for c0 in range(total):
            if orbit[c0] >= 0:
                continue
            orbit[c0] = c0
            frontier = [c0]
            while frontier:
                code = frontier.pop()
                for perm in perms:
                    nc = perm[code]
                    if orbit[nc] < 0:
                        orbit[nc] = c0
                        frontier.append(nc)
            try:
                rep = Representation(A, dims, self._decode(dims, c0))
            except AlgebraError:
                continue  # the relations do not hold
            out.append((dims, c0, rep))
        self._orbit_of[dims] = orbit
        return out

    def _encode(self, mats):
        """Code of a tuple of matrices, the inverse of _decode: arrow by
        arrow, row-major, first entry least significant, entries mod p."""
        p = self.algebra.p
        code = 0
        mult = 1
        for m in mats:
            for row in m:
                for x in row:
                    code += x % p * mult
                    mult *= p
        return code

    # -- basic access --------------------------------------------------------

    def __len__(self):
        return len(self.reps)

    def rep(self, idx):
        return self.reps[idx]

    def dims_of(self, idx):
        return self.reps[idx].dims

    def zero_index(self):
        return self._fp_index[(tuple(0 for _ in self.bound), 0)]

    def in_window(self, dims):
        return all(d <= b for d, b in zip(dims, self.bound))

    def by_total_dim(self):
        return self._by_total

    @memo
    def hom_basis(self, i, j):
        return hom_space(self.reps[i], self.reps[j])

    def hom_dim(self, i, j):
        return len(self.hom_basis(i, j))

    # -- Krull-Schmidt -------------------------------------------------------

    @memo
    def signature(self, idx):
        """Sorted catalogue indices of the indecomposable summands: the first
        endomorphism (basis elements, then every other nonzero combination)
        whose Fitting power has rank strictly between 0 and dim M splits M
        into image and kernel, each located in the catalogue and split in
        turn; M is indecomposable when none does."""
        M = self.reps[idx]
        total = M.total_dim()
        if total == 0:
            return ()
        p = self.algebra.p
        ends = hom_space(M, M)
        r = len(ends)
        if p**r > SWEEP_CAP:
            raise BudgetError("endomorphism sweep too large: %d^%d" % (p, r))
        kpow = total.bit_length()
        combos = (
            _combine(ends, coeffs, p)
            for coeffs in itertools.product(range(p), repeat=r)
            if coeffs.count(0) < r - 1  # zero and single basis elements skipped
        )
        for phi in itertools.chain(ends, combos):
            for _ in range(kpow):
                phi = tuple(mat_mul(m, m, p, inner=len(m)) for m in phi)
            if 0 < sum(rank(m, p) for m in phi) < total:
                parts = (image_submodule(phi, M, M), kernel_submodule(phi, M, M))
                found = [self.find_index(submodule_rep(M, part)) for part in parts]
                return tuple(sorted(s for j in found for s in self.signature(j)))
        return (idx,)

    def is_indec(self, idx):
        return len(self.signature(idx)) == 1

    def find_index(self, rep):
        """Catalogue index of an explicit representation, up to isomorphism:
        the item whose code opens the orbit of the representation's code."""
        if not self.in_window(rep.dims):
            raise WindowError("dims %r outside catalogue bound %r" % (rep.dims, self.bound))
        first = self._orbit_of[rep.dims][self._encode(rep.mats)]
        idx = self._fp_index.get((rep.dims, first))
        if idx is None:
            raise WindowError("representation of dims %r violates the relations" % (rep.dims,))
        return idx

    # -- bricks and semibricks -------------------------------------------------

    @memo
    def is_brick(self, idx):
        """A nonzero endomorphism that is not invertible is X -> X/S ~ T -> X,
        with S its nonzero kernel and T its proper image, so X is a brick
        unless a quotient by a nonzero submodule is a submodule (X/0 = X is
        none).  Only indecomposable items build lattices; is_indec may raise
        BudgetError."""
        if not self.is_indec(idx):
            return False
        pairs = self.subquot_pairs(idx)
        subs = {s for s, _ in pairs}
        return not any(q in subs for _, q in pairs)

    def bricks(self):
        return tuple(i for i in range(len(self.reps)) if self.is_brick(i))

    @memo
    def semibricks(self):
        """All pairwise hom-orthogonal sets of bricks, as sorted index tuples,
        ordered by size and then lexicographically.

        The sweep grows every orthogonal prefix by the later bricks, so it is
        exhaustive; a semibrick has at most as many members as there are
        bricks, which bounds it."""
        bricks = self.bricks()
        ortho = {
            (i, j)
            for i in bricks
            for j in bricks
            if i != j and self.hom_dim(i, j) == 0 and self.hom_dim(j, i) == 0
        }
        out = [()]

        def grow(prefix, rest):
            for k, b in enumerate(rest):
                if all((a, b) in ortho for a in prefix):
                    nxt = prefix + (b,)
                    out.append(nxt)
                    grow(nxt, rest[k + 1 :])

        grow((), bricks)
        return tuple(sorted(out, key=lambda s: (len(s), s)))

    # -- submodule lattices ------------------------------------------------------

    @memo
    def path_actions(self, idx):
        """Action matrix of every algebra basis path on item idx."""
        X = self.reps[idx]
        return tuple(X.path_matrix(path) for path in self.algebra.basis)

    @memo
    def submodule_families(self, idx):
        """All submodules, as tuples of per-vertex reduced bases.

        Every submodule is a sum of cyclic ones, so the lattice is the
        closure of the zero submodule under joining with the distinct cyclic
        submodules.  These are generated by the vectors of each M_v up to
        scalar: those whose first nonzero entry is 1.
        """
        M = self.reps[idx]
        A = self.algebra
        p = A.p
        seeds = set()
        for v in range(A.n):
            for vec in itertools.product(range(p), repeat=M.dims[v]):
                if any(vec) and next(filter(None, vec)) == 1:
                    seeds.add(self._cyclic_closure(idx, v, vec))
        zero = tuple(() for _ in range(A.n))
        fams = {zero}
        queue = [zero]
        while queue:
            fam = queue.pop()
            for seed in seeds:
                joined = tuple(self._join(fam[v], seed[v]) for v in range(A.n))
                if joined not in fams:
                    fams.add(joined)
                    queue.append(joined)
        return tuple(sorted(fams))

    @memo
    def _join(self, basis, rows):
        """RREF basis of the span of two row tuples; a vertex space of the
        window has few subspaces, so few distinct pairs meet."""
        return row_space(basis + rows, self.algebra.p)

    def _cyclic_closure(self, idx, v0, vec):
        """The submodule vec.A of item idx generated by vec in M_v0: at each
        vertex v, the span of the images of vec under the basis paths from
        v0 to v, which span e_v0 A there."""
        A = self.algebra
        actions = self.path_actions(idx)
        return tuple(
            row_space(tuple(mat_vec(actions[k], vec, A.p) for k in A.paths[v0][v]), A.p)
            for v in range(A.n)
        )

    @memo
    def submodule_dimvectors(self, idx):
        return tuple(
            sorted({tuple(len(f) for f in fam) for fam in self.submodule_families(idx)})
        )

    @memo
    def quotient_dimvectors(self, idx):
        dims = self.reps[idx].dims
        return tuple(
            sorted(
                tuple(d - s for d, s in zip(dims, sub))
                for sub in self.submodule_dimvectors(idx)
            )
        )

    @memo
    def subquot_pairs(self, idx):
        """(submodule index, quotient index) for every proper submodule."""
        M = self.reps[idx]
        pairs = set()
        for fam in self.submodule_families(idx):
            if tuple(len(f) for f in fam) == M.dims:
                continue
            S = submodule_rep(M, fam)
            Q = quotient_module(M, fam)
            pairs.add((self.find_index(S), self.find_index(Q)))
        return tuple(sorted(pairs))


def _combine(homs, coeffs, p):
    """Linear combination of hom-space basis elements."""
    return tuple(
        tuple(
            tuple(sum(map(mul, coeffs, entries)) % p for entries in zip(*rows))
            for rows in zip(*blocks)
        )
        for blocks in zip(*homs)
    )
