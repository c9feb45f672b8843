import random
from fractions import Fraction
from itertools import product

import pytest

import oracles
from conftest import SQUARE, bundled
from torslab import silting
from torslab.algebra import Algebra, injective_module, load_algebra, projective_module
from torslab.catalogue import Catalogue
from torslab.silting import (
    MutationError,
    SiltingError,
    TwoTermComplex,
    cohomology,
    direct_sum_complex,
    enumerate_silting,
    hom_k_basis,
    induced_torsion_pairs,
    initial_silting,
    is_silting,
    mutate,
    projective_complex,
    rigidity,
    silting_cone,
    vertex_key,
)
from torslab.torsion import indices_of


def shifted_projective_complex(A, i):
    """Stalk complex P(i) in degree -1."""
    return TwoTermComplex(A, (i,), (), ())


def is_presilting(U):
    """Whether Hom(U, U[1]) vanishes up to homotopy, for one complex or a
    collection of summands."""
    return silting._set_presilting((U,) if isinstance(U, TwoTermComplex) else U)


def unit_path(A, v):
    return next(k for k in A.paths[v][v] if not A.basis[k][1])


def all_matrices(A, src_v, dst_v, b, c):
    """All differentials for P(src_v)^c -> P(dst_v)^b over the base field."""
    paths = A.paths[dst_v][src_v]
    for coeffs in product(range(A.p), repeat=b * c * len(paths)):
        mat = []
        idx = 0
        for _ in range(b):
            row = []
            for _ in range(c):
                cell = {}
                for bi in paths:
                    if coeffs[idx]:
                        cell[bi] = coeffs[idx]
                    idx += 1
                row.append(cell)
            mat.append(tuple(row))
        yield tuple(mat)


def count_presilting(A, src_v, dst_v, b, c):
    n = 0
    for mat in all_matrices(A, src_v, dst_v, b, c):
        if is_presilting(TwoTermComplex(A, (src_v,) * c, (dst_v,) * b, mat)):
            n += 1
    return n


# -- complexes and validation --------------------------------------------------


def test_complex_validation(a2):
    arrow = a2.paths[0][1][0]
    U = TwoTermComplex(a2, (1,), (0,), (({arrow: 1},),))
    assert U.g_vector() == (1, -1)
    with pytest.raises(SiltingError, match=r"entry \(0, 0\) uses a path outside e_0 A e_1"):
        # entry must live in e_0 A e_1
        TwoTermComplex(a2, (1,), (0,), (({unit_path(a2, 0): 1},),))
    with pytest.raises(SiltingError, match=r"entry \(0, 1\) uses a path outside e_1 A e_0"):
        # e_1 A e_0 is zero, so the second cell holds no path at all
        TwoTermComplex(a2, (1, 0), (1,), (({unit_path(a2, 1): 1}, {arrow: 1}),))
    # an entry that vanishes mod p is dropped before its path is checked
    V = TwoTermComplex(a2, (1, 0), (0,), (({arrow: 1 + a2.p}, {unit_path(a2, 1): a2.p}),))
    assert V.mat == (({arrow: 1}, {}),)
    with pytest.raises(SiltingError):
        TwoTermComplex(a2, (1,), (0,), ())
    for minus in ((2,), (-1,)):
        with pytest.raises(SiltingError):
            TwoTermComplex(a2, minus, (0,), (({},),))


def test_stalks_and_initial(a2):
    start = initial_silting(a2)
    assert vertex_key(start) == ((0, 1), (1, 0))
    assert is_silting(start)
    assert is_presilting(projective_complex(a2, 0))
    sh = shifted_projective_complex(a2, 1)
    assert sh.g_vector() == (0, -1)
    assert is_presilting(sh)


def test_direct_sum_complex(a2):
    arrow = a2.paths[0][1][0]
    U = TwoTermComplex(a2, (1,), (0,), (({arrow: 1},),))
    D = direct_sum_complex([U, projective_complex(a2, 1)], a2)
    assert D.minus == (1,)
    assert D.zero == (0, 1)
    assert D.g_vector() == (1, 0)


# -- homotopy homs and presilting ----------------------------------------------


def test_hom_k_dimensions(a2):
    arrow = a2.paths[0][1][0]
    U = TwoTermComplex(a2, (1,), (0,), (({arrow: 1},),))
    P1 = projective_complex(a2, 0)
    P2 = projective_complex(a2, 1)
    assert len(hom_k_basis(U, P1)) == 0
    assert len(hom_k_basis(P1, U)) == 1
    assert len(hom_k_basis(P2, U)) == 0
    assert len(hom_k_basis(U, P2)) == 0
    assert len(hom_k_basis(P1, P1)) == 1
    # P1 -> P2 only through the arrow path, P2 -> P1 has no path
    assert len(hom_k_basis(P2, P1)) == 1
    assert len(hom_k_basis(P1, P2)) == 0


def test_projective_shift_not_presilting(a2):
    pair = (projective_complex(a2, 0), shifted_projective_complex(a2, 0))
    assert not is_presilting(pair)
    assert is_presilting((projective_complex(a2, 0), projective_complex(a2, 1)))


def test_presilting_counts_a2(a2):
    # over F_2 the count by shape equals the number of full rank matrices
    assert count_presilting(a2, 1, 0, 1, 1) == 1
    assert count_presilting(a2, 1, 0, 2, 1) == 3
    assert count_presilting(a2, 1, 0, 1, 2) == 3
    assert count_presilting(a2, 1, 0, 2, 2) == 6


def test_presilting_shapes_kronecker(kronecker):
    feasible = set()
    for b in range(3):
        for c in range(3):
            if count_presilting(kronecker, 1, 0, b, c) > 0:
                feasible.add((b, c))
    assert feasible == {(0, 0), (0, 1), (0, 2), (1, 0), (2, 0), (2, 1), (1, 2)}
    # two entries of a column must stay independent
    assert count_presilting(kronecker, 1, 0, 2, 1) == 6


def test_presilting_count_loop(loop):
    # only the two differentials with a unit part survive
    assert count_presilting(loop, 0, 0, 1, 1) == 2


# -- reduction -------------------------------------------------------------------


def test_reduced_contractible(a2):
    e0 = unit_path(a2, 0)
    C = TwoTermComplex(a2, (0,), (0,), (({e0: 1},),))
    R = oracles.reduced(C)
    assert R.minus == () and R.zero == ()


def test_reduced_strips_unit_block(a2):
    e0 = unit_path(a2, 0)
    arrow = a2.paths[0][1][0]
    C = TwoTermComplex(
        a2, (0, 1), (0, 0), (({e0: 1}, {arrow: 1}), ({}, {arrow: 1}))
    )
    R = oracles.reduced(C)
    assert R.g_vector() == (1, -1)
    assert R.minus == (1,) and R.zero == (0,)
    assert R.mat[0][0] == {arrow: 1}


def test_reduced_keeps_radical_entries(loop):
    x = next(k for k in range(loop.dim) if loop.basis[k][1])
    C = TwoTermComplex(loop, (0,), (0,), (({x: 1},),))
    R = oracles.reduced(C)
    assert R.minus == (0,) and R.zero == (0,)


# -- mutation ---------------------------------------------------------------------


def test_mutate_rejects_bad_input(a2):
    P1 = projective_complex(a2, 0)
    with pytest.raises(MutationError):
        mutate((P1, P1), 0)
    with pytest.raises(MutationError):
        mutate((P1,), 0)
    with pytest.raises(MutationError):
        mutate((P1, shifted_projective_complex(a2, 0)), 0)
    with pytest.raises(MutationError):
        mutate(initial_silting(a2), 5)


def test_pentagon(a2):
    g = enumerate_silting(a2, 5)
    assert g["complete"]
    keys = [v["key"] for v in g["vertices"]]
    assert keys == [
        ((-1, 0), (0, -1)),
        ((-1, 0), (0, 1)),
        ((0, -1), (1, -1)),
        ((0, 1), (1, 0)),
        ((1, -1), (1, 0)),
    ]
    assert g["edges"] == (
        (((-1, 0), (0, -1)), ((-1, 0), (0, 1))),
        (((-1, 0), (0, -1)), ((0, -1), (1, -1))),
        (((-1, 0), (0, 1)), ((0, 1), (1, 0))),
        (((0, -1), (1, -1)), ((1, -1), (1, 0))),
        (((0, 1), (1, 0)), ((1, -1), (1, 0))),
    )
    # no vertex sits at distance > 2 in a pentagon
    assert max(v["depth"] for v in g["vertices"]) == 2


def test_pentagon_incomplete_at_low_depth(a2):
    g = enumerate_silting(a2, 2)
    assert len(g["vertices"]) == 5
    assert not g["complete"]


def test_loop_graph(loop):
    g = enumerate_silting(loop, 3)
    assert g["complete"]
    assert [v["key"] for v in g["vertices"]] == [((-1,),), ((1,),)]
    assert g["edges"] == ((((-1,),), ((1,),)),)


def test_kronecker_graph_counts(kronecker):
    g2 = enumerate_silting(kronecker, 2)
    assert len(g2["vertices"]) == 5
    assert not g2["complete"]
    g6 = enumerate_silting(kronecker, 6)
    assert len(g6["vertices"]) == 13
    assert not g6["complete"]
    keys = {v["key"] for v in g6["vertices"]}
    # one line: presentations on one side, copresentations on the other
    assert ((7, -6), (6, -5)) not in keys
    assert ((6, -5), (7, -6)) in keys
    assert ((3, -4), (4, -5)) in keys


@pytest.mark.parametrize("name", ["a2", "kronecker", "kronecker_p3"])
def test_mutation_involution(name, request):
    """Mutating a summand and then the new summand returns to the vertex."""
    g = enumerate_silting(request.getfixturevalue(name), 5)
    pairs = 0
    for vert in g["vertices"]:
        s = vert["summands"]
        old = {c.g_vector() for c in s}
        for k in range(len(s)):
            nb = mutate(s, k)
            fresh = [i for i, c in enumerate(nb) if c.g_vector() not in old]
            assert len(fresh) == 1
            assert vertex_key(mutate(nb, fresh[0])) == vert["key"]
            pairs += 1
    assert pairs == {"a2": 10, "kronecker": 22, "kronecker_p3": 22}[name]


def test_mutation_against_odd_prime(kronecker_p3):
    g = enumerate_silting(kronecker_p3, 4)
    assert len(g["vertices"]) == 9
    assert {v["key"] for v in g["vertices"]} >= {
        ((0, 1), (1, 0)),
        ((2, -1), (3, -2)),
        ((1, -2), (2, -3)),
    }


def _graph_by_value(g):
    vertices = tuple((v["key"], v["depth"], v["summands"]) for v in g["vertices"])
    return g["depth"], g["complete"], g["edges"], vertices


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", ["a2", "kronecker", "kxk", "loop"])
def test_walk_matches_both_ends_oracle(name, p):
    A = bundled(name, p)
    assert _graph_by_value(enumerate_silting(A, 8)) == _graph_by_value(oracles.enumerate_silting(A, 8))


def test_walk_matches_both_ends_oracle_on_square(square):
    g = enumerate_silting(square, 8)
    assert g["complete"] and len(g["vertices"]) == 46 and len(g["edges"]) == 92
    assert _graph_by_value(g) == _graph_by_value(oracles.enumerate_silting(square, 8))


def test_walk_derives_each_tree_edge_once(kronecker, monkeypatch):
    calls = []
    original = silting.mutate

    def counted(summands, k):
        calls.append(k)
        return original(summands, k)

    monkeypatch.setattr(silting, "mutate", counted)
    g = enumerate_silting(kronecker, 8)
    # a path of 17 vertices: two mutations at the root, one per other
    # expanded vertex, and none back to a parent
    assert len(g["vertices"]) == 17 and len(g["edges"]) == 16
    assert len(calls) == 16


def test_walk_derives_each_edge_once_on_square(monkeypatch):
    calls = []
    original = silting.mutate

    def counted(summands, k):
        calls.append(k)
        return original(summands, k)

    monkeypatch.setattr(silting, "mutate", counted)
    g = enumerate_silting(load_algebra(SQUARE), 8)
    # 45 tree edges and 47 others, each derived from one end only
    assert g["complete"] and len(g["edges"]) == 92
    assert len(calls) == 92


def test_each_mutation_makes_one_exchange_on_square(monkeypatch):
    mutations, exchanges = [], []
    original_mutate, original_exchange = silting.mutate, silting._exchange

    def counted_mutate(summands, k):
        mutations.append(k)
        return original_mutate(summands, k)

    def counted_exchange(X, others, left):
        new = original_exchange(X, others, left)
        exchanges.append((left, new is not None))
        return new

    monkeypatch.setattr(silting, "mutate", counted_mutate)
    monkeypatch.setattr(silting, "_exchange", counted_exchange)
    enumerate_silting(load_algebra(SQUARE), 8)
    # the c-vector's sign picks the side, so no cone is built and discarded
    assert len(mutations) == len(exchanges) == 92
    assert {side for side, landed in exchanges if landed} == {True, False}
    assert all(landed for _, landed in exchanges)


# -- cones and rigidity ------------------------------------------------------------


def test_silting_cone(a2):
    cone = silting_cone(initial_silting(a2))
    assert cone.generators == ((0, 1), (1, 0))
    with pytest.raises(SiltingError):
        silting_cone(())
    twice = (projective_complex(a2, 0), projective_complex(a2, 0))
    with pytest.raises(SiltingError):
        silting_cone(twice)


def test_rigidity_a2(a2):
    g = enumerate_silting(a2, 5)
    got = rigidity((Fraction(2), Fraction(3)), g)
    assert got["verdict"] == "rigid"
    assert got["rays"] == ((0, 1), (1, 0))
    assert got["coeffs"] == (Fraction(3), Fraction(2))
    boundary = rigidity((Fraction(1), Fraction(0)), g)
    assert boundary["verdict"] == "rigid"
    assert boundary["rays"] == ((1, 0),)
    origin = rigidity((Fraction(0), Fraction(0)), g)
    assert origin["verdict"] == "rigid"
    assert origin["rays"] == ()
    anti = rigidity((Fraction(-2), Fraction(-5)), g)
    assert anti["verdict"] == "rigid"
    assert anti["rays"] == ((-1, 0), (0, -1))
    edge = rigidity((Fraction(1), Fraction(-1)), g)
    assert edge["verdict"] == "rigid"
    assert edge["rays"] == ((1, -1),)
    assert edge["coeffs"] == (Fraction(1),)


def test_rigidity_kronecker_limit_ray(kronecker):
    g = enumerate_silting(kronecker, 6)
    got = rigidity((Fraction(1), Fraction(-1)), g)
    assert got["verdict"] == "unknown"
    ray = rigidity((Fraction(3), Fraction(-2)), g)
    assert ray["verdict"] == "rigid"
    interior = rigidity((Fraction(5), Fraction(-3)), g)
    assert interior["verdict"] == "rigid"
    assert interior["rays"] == ((2, -1), (3, -2))


# -- cohomology and induced torsion pairs --------------------------------------------


def test_cohomology_of_presentation(a2):
    arrow = a2.paths[0][1][0]
    U = TwoTermComplex(a2, (1,), (0,), (({arrow: 1},),))
    h0, hm1 = cohomology(U)
    assert h0.dims == (1, 0)
    assert hm1.dims == (0, 1)


def test_cohomology_of_stalks(a2):
    h0, hm1 = cohomology(projective_complex(a2, 0))
    assert h0.dims == (1, 1)
    assert hm1.total_dim() == 0
    h0s, hm1s = cohomology(shifted_projective_complex(a2, 0))
    assert h0s.total_dim() == 0
    # the twisted kernel of a shifted stalk is the whole injective
    assert hm1s.dims == (1, 0)


def test_induced_torsion_pairs(a2):
    cat = Catalogue(a2, (2, 2))
    arrow = a2.paths[0][1][0]
    U = TwoTermComplex(a2, (1,), (0,), (({arrow: 1},),))
    big, small = induced_torsion_pairs(cat, U)
    big_dims = sorted(cat.rep(i).dims for i in indices_of(big))
    small_dims = sorted(cat.rep(i).dims for i in indices_of(small))
    assert small_dims == [(0, 0), (1, 0), (2, 0)]
    assert big_dims == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
    whole = direct_sum_complex(initial_silting(a2), a2)
    big_a, small_a = induced_torsion_pairs(cat, whole)
    assert big_a == small_a == (1 << len(cat)) - 1
    sh = direct_sum_complex(
        [shifted_projective_complex(a2, i) for i in range(2)], a2
    )
    big_s, small_s = induced_torsion_pairs(cat, sh)
    assert big_s == small_s == 1 << cat.zero_index()


def test_induced_pairs_along_pentagon(a2):
    # along the whole pentagon the two classes agree and are pairwise distinct
    cat = Catalogue(a2, (2, 2))
    g = enumerate_silting(a2, 5)
    seen = set()
    for vert in g["vertices"]:
        whole = direct_sum_complex(vert["summands"], a2)
        big, small = induced_torsion_pairs(cat, whole)
        assert big == small
        seen.add(big)
    assert len(seen) == 5


def test_equal_complexes_share_chain_data(monkeypatch):
    A = bundled("kronecker")
    a, b = (k for k in A.paths[0][1] if A.basis[k][1])

    def pair():
        return (
            TwoTermComplex(A, (1,), (0,), (({a: 1},),)),
            TwoTermComplex(A, (1,), (0,), (({b: 1},),)),
        )

    X, Y = pair()
    X2, Y2 = pair()
    assert X is not X2 and X == X2 and hash(X) == hash(X2)
    assert Y == Y2 and hash(Y) == hash(Y2)
    assert X != Y
    assert X != TwoTermComplex(bundled("kronecker"), (1,), (0,), (({a: 1},),))
    calls = []
    original = silting.nullspace

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(silting, "nullspace", counted)
    assert hom_k_basis(X, Y) == hom_k_basis(X2, Y2)
    assert len(calls) == 1


# -- the Hom complex and the face fan against the oracles ---------------------------

# (bundled name, field, depth) of the rank-2 exchange graphs the oracles walk
GRAPHS = (("a2", None, 6), ("kronecker", None, 6), ("kronecker", 3, 6))
# and Pi(A3)'s, where most pairs have a homotopy term and many a nonzero
# null-homotopic span; the weights below and the approximation test's
# every-copy-kept count are rank 2, so only the Hom-complex test reads these
HOM_GRAPHS = GRAPHS + (("pi_a3", None, 5), ("pi_a3", 3, 5))


def _agree_on_hom_complex(X, Y):
    A = X.algebra
    sa = silting._layout(A, X.minus, Y.minus)
    sb = silting._layout(A, X.zero, Y.zero)
    sc = silting._layout(A, X.minus, Y.zero)
    offc, nc = silting._offsets(A, X.minus, Y.zero)
    assert nc == len(sc)
    rows = silting._delta(A, sa, sb, offc, nc, *silting._products(A, X, Y, sa, sb))
    # the sparse rows, densified, are the transpose of the oracle's columns
    ncols = len(sa) + len(sb)
    assert all(0 <= j < ncols and 0 < x < A.p for row in rows for j, x in row.items())
    dense = tuple(tuple(row.get(j, 0) for j in range(ncols)) for row in rows)
    cols = oracles.hom_complex_columns(A, X, Y, sa, sb, sc)
    assert len(cols) == ncols
    assert dense == tuple(tuple(col[i] for col in cols) for i in range(len(sc)))
    data = silting._chain_data(A, X, Y)
    got = {"hot": data["hot"], "k_vecs": data["k_vecs"], "k_mats": hom_k_basis(X, Y)}
    assert got == oracles.chain_data(A, X, Y)


@pytest.mark.parametrize("name,p,depth", HOM_GRAPHS)
def test_hom_complex_matches_oracle_on_walk(name, p, depth):
    A = bundled(name, p)
    g = enumerate_silting(A, depth)
    pairs = 0
    for vert in g["vertices"]:
        for X in vert["summands"]:
            for Y in vert["summands"]:
                _agree_on_hom_complex(X, Y)
                pairs += 1
    assert pairs == A.n**2 * len(g["vertices"])


def _random_cells(A, rng, dst, src):
    """A matrix of random elements of e_i A e_j, about one cell in three empty."""
    return tuple(
        tuple(
            {b: rng.randrange(1, A.p) for b in A.paths[i][j] if rng.random() < 0.7}
            if rng.random() < 2 / 3
            else {}
            for j in src
        )
        for i in dst
    )


@pytest.mark.parametrize("name", ("kronecker", "pi_a3", "square"))
def test_mat_compose_matches_oracle(name):
    A = load_algebra(SQUARE) if name == "square" else bundled(name)
    rng = random.Random(35)
    nonzero = 0
    for _ in range(300):
        dst, mid, src = ([rng.randrange(A.n) for _ in range(rng.randint(0, 4))] for _ in range(3))
        M = _random_cells(A, rng, dst, mid)
        N = _random_cells(A, rng, mid, src)
        got = silting._mat_compose(A, M, N, len(dst), len(mid), len(src))
        assert got == oracles.mat_compose(A, M, N, len(dst), len(mid), len(src))
        nonzero += any(cell for row in got for cell in row)
    assert nonzero > 30


@pytest.mark.parametrize("p", (2, 3, 5))
def test_kronecker_walk_at_depth_12_in_closed_form(p):
    # the walk workload's graph: two rays of mutations out of the algebra
    g = enumerate_silting(bundled("kronecker", p), 12)
    assert not g["complete"]
    one = {k: ((k, 1 - k), (k + 1, -k)) for k in range(13)}
    other = {1: ((-1, 0), (0, 1)), 2: ((-1, 0), (0, -1))}
    other.update({k: ((k - 3, 2 - k), (k - 2, 1 - k)) for k in range(3, 13)})
    want = {tuple(sorted(key)): k for side in (one, other) for k, key in side.items()}
    assert len(want) == 25
    assert {vert["key"]: vert["depth"] for vert in g["vertices"]} == want
    path = [one[k] for k in range(12, -1, -1)] + [other[k] for k in range(1, 13)]
    path = [tuple(sorted(key)) for key in path]
    assert set(g["edges"]) == {tuple(sorted(e)) for e in zip(path, path[1:])}
    assert len(g["edges"]) == 24


@pytest.mark.parametrize(
    "name,p,shapes",
    [
        ("a2", None, ((1, 0, 1, 1), (1, 0, 2, 1), (1, 0, 1, 2), (1, 0, 2, 2))),
        ("kronecker", None, ((1, 0, 1, 1), (1, 0, 2, 1), (1, 0, 1, 2), (1, 0, 2, 2))),
        ("kronecker", 3, ((1, 0, 1, 1), (1, 0, 2, 1), (1, 0, 1, 2))),
        ("loop", None, ((0, 0, 1, 1), (0, 0, 2, 1), (0, 0, 1, 2))),
    ],
)
def test_hom_complex_matches_oracle_on_all_matrices(name, p, shapes):
    A = bundled(name, p)
    cplx = [
        TwoTermComplex(A, (src_v,) * c, (dst_v,) * b, mat)
        for src_v, dst_v, b, c in shapes
        for mat in all_matrices(A, src_v, dst_v, b, c)
    ]
    rng = random.Random(0)
    for _ in range(300):
        _agree_on_hom_complex(rng.choice(cplx), rng.choice(cplx))


# grid weights with zero coordinates, and weights off the integer grid
WEIGHTS = tuple(product(range(-3, 4), repeat=2)) + (
    (Fraction(1, 2), Fraction(-1, 3)),
    (Fraction(-5, 2), 0),
    (0, Fraction(7, 3)),
    (Fraction(3, 2), Fraction(-3, 2)),
    (Fraction(9, 4), Fraction(-3, 2)),
)


@pytest.mark.parametrize("name,p,depth", GRAPHS)
def test_face_solver_matches_augmented_solve(name, p, depth, monkeypatch):
    solves = []
    original = silting.unimodular_inverse

    def counted(a):
        solves.append(1)
        return original(a)

    # counted from the start: the walk's mutations read the same inverses
    monkeypatch.setattr(silting, "unimodular_inverse", counted)
    g = enumerate_silting(bundled(name, p), depth)
    verdicts = set()
    for theta in WEIGHTS:
        got = rigidity(theta, g)
        assert got == oracles.rigidity(theta, g), theta
        verdicts.add(got["verdict"])
    # one inverse per vertex, whatever the number of weights
    assert 0 < len(solves) <= len(g["vertices"])
    assert "rigid" in verdicts


def test_inverse_table_rejects_a_non_basis(a2):
    assert silting._inverse_gvectors(a2, ((1, -1), (0, -1))) == ((1, 0), (-1, -1))
    # dependent, then independent with determinant 2
    for key in (((1, 0), (2, 0)), ((2, 0), (0, 1))):
        with pytest.raises(SiltingError):
            silting._inverse_gvectors(a2, key)


def _agree_on_approximations(g):
    """Copies offered and kept over every mutation of g, in both directions."""
    offered = kept = 0
    for vert in g["vertices"]:
        summands = vert["summands"]
        for k, X in enumerate(summands):
            others = summands[:k] + summands[k + 1 :]
            for left in (True, False):
                got = silting._approximation(X, others, left)
                assert got == oracles.approximation(X, others, left), (vert["key"], k, left)
                offered += sum(
                    len(hom_k_basis(X, T) if left else hom_k_basis(T, X)) for T in others
                )
                kept += len(got)
    return offered, kept


@pytest.mark.parametrize("name,p,depth", GRAPHS)
def test_approximation_matches_restarting_strip(name, p, depth):
    offered, kept = _agree_on_approximations(enumerate_silting(bundled(name, p), depth))
    assert kept == offered > 0


def test_approximation_strip_matches_on_square(square):
    # with three other summands some copies factor through others and go
    offered, kept = _agree_on_approximations(enumerate_silting(square, 4))
    assert 0 < kept < offered


def _agree_on_reductions(g, monkeypatch):
    """Build the cone of every exchange of every vertex in both directions,
    each reduced by ``_reduce_chain`` and by the copying oracle; returns the
    number of exchanges and of cones that leave the two-term range."""
    original = silting._reduce_chain

    def checked(A, terms, diffs):
        want = oracles.reduce_chain(A, terms, diffs)
        got = original(A, terms, diffs)
        assert got == want
        return got

    monkeypatch.setattr(silting, "_reduce_chain", checked)
    exchanges = out_of_range = 0
    for vert in g["vertices"]:
        summands = vert["summands"]
        for k, X in enumerate(summands):
            others = summands[:k] + summands[k + 1 :]
            for left in (True, False):
                exchanges += 1
                out_of_range += silting._exchange(X, others, left) is None
    return exchanges, out_of_range


@pytest.mark.parametrize("name,p,depth", GRAPHS)
def test_in_place_reduction_matches_copying_oracle(name, p, depth, monkeypatch):
    exchanges, out_of_range = _agree_on_reductions(
        enumerate_silting(bundled(name, p), depth), monkeypatch
    )
    # exactly one of the two exchanges of a silting summand stays two-term
    assert exchanges == 2 * out_of_range > 0


def test_in_place_reduction_matches_copying_oracle_on_square(square, monkeypatch):
    exchanges, out_of_range = _agree_on_reductions(enumerate_silting(square, 4), monkeypatch)
    assert exchanges == 2 * out_of_range > 0


def test_walk_builds_each_hom_complex_once(monkeypatch):
    # presilting tests and homotopy bases read one table per ordered pair
    A = bundled("kronecker")
    calls = []
    original = silting._products

    def counted(A, X, Y, sa, sb):
        calls.append((X, Y))
        return original(A, X, Y, sa, sb)

    monkeypatch.setattr(silting, "_products", counted)
    g = enumerate_silting(A, 8)
    assert len(g["vertices"]) == 17
    assert calls and len(calls) == len(set(calls))


def test_walk_composes_each_composite_once(monkeypatch):
    A = bundled("kronecker")
    calls = []
    original = silting._pair_compose

    def frozen(pair):
        return tuple(tuple(tuple(frozenset(c.items()) for c in row) for row in m) for m in pair)

    def counted(A, outer, inner, X, Y, Z):
        calls.append((frozen(outer), frozen(inner), X, Y, Z))
        return original(A, outer, inner, X, Y, Z)

    monkeypatch.setattr(silting, "_pair_compose", counted)
    g = enumerate_silting(A, 8)
    assert len(g["vertices"]) == 17
    assert calls and len(calls) == len(set(calls))


def test_walk_computes_each_product_once_per_hom_complex(monkeypatch):
    A = bundled("kronecker")
    calls = []
    original = Algebra.mult

    def counted(self, x, y):
        calls.append(1)
        return original(self, x, y)

    monkeypatch.setattr(Algebra, "mult", counted)
    g = enumerate_silting(A, 8)
    assert len(g["vertices"]) == 17
    # one product per slot and summand makes 21,158 calls on this walk,
    # one per per-row table entry 4,400
    assert len(calls) <= 5000
    for vert in g["vertices"]:
        for c in vert["summands"]:
            twin = TwoTermComplex(A, c.minus, c.zero, c.mat)
            assert twin == c and hash(twin) == hash(c)


@pytest.mark.parametrize(
    "name, p",
    [(n, None) for n in ("a2", "kronecker", "kxk", "loop", "pi_a2", "pi_a3", "square")]
    + [("pi_a3", 3)],
)
def test_complex_maps_are_module_maps(name, p):
    # the projective map of cohomology and the Nakayama map of twisted_kernel
    # at every walk vertex, the summands summed into one complex
    A = load_algebra(SQUARE) if name == "square" else bundled(name, p=p)
    for vert in enumerate_silting(A, 5)["vertices"]:
        U = direct_sum_complex(vert["summands"], A)
        oracles.assert_module_map(
            silting._projective_map(U),
            projective_module(A, *U.minus),
            projective_module(A, *U.zero),
        )
        oracles.assert_module_map(
            silting._nakayama_map(U),
            injective_module(A, *U.minus),
            injective_module(A, *U.zero),
        )
