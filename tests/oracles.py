"""Item-level reference implementations, kept as test oracles.

Each closure here tests every item of the catalogue against every generator,
decomposable or not, with hom spaces computed straight from the modules.
``submodule_families`` joins every submodule with every other one, seeded by
every nonzero vector.  With the code under test they share only
``hom_space``, the F_p kernels and the cyclic submodule of one vector: no
Krull-Schmidt reduction, cached rows or seed-only join.  They are slow on
purpose.
"""

from __future__ import annotations

import itertools

from torslab.algebra import hom_space
from torslab.linalg import nullspace, rank, row_space
from torslab.torsion import indices_of


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


def submodule_families(cat, idx):
    """All submodules by joining every family with every other family."""
    M = cat.rep(idx)
    A = cat.algebra
    p = A.p
    fams = {tuple(() for _ in range(A.n))}
    for v in range(A.n):
        for vec in itertools.product(range(p), repeat=M.dims[v]):
            if any(vec):
                fams.add(cat._cyclic_closure(M, v, vec))
    queue = list(fams)
    while queue:
        fam = queue.pop()
        for other in list(fams):
            joined = tuple(row_space(fam[v] + other[v], p) for v in range(A.n))
            if joined not in fams:
                fams.add(joined)
                queue.append(joined)
    return tuple(sorted(fams))

