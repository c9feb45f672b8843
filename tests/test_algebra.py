import functools
import gc
import time
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bundled
from oracles import simple_module, zero_module, zero_relation_basis, zero_relation_product
from torslab.algebra import (
    AlgebraError,
    Representation,
    _PathWindow,
    arrow_stable,
    direct_sum,
    hom_space,
    image_submodule,
    inj_struct,
    injective_module,
    kernel_submodule,
    load_algebra,
    memo,
    path_map,
    proj_struct,
    projective_module,
    quotient_module,
    submodule_rep,
)
from torslab.catalogue import Catalogue
from torslab.stability import _integer_weight, _pairings


def test_parse_basics(a2, kronecker, loop, kxk):
    assert a2.p == 2 and a2.n == 2 and len(a2.arrows) == 1
    assert a2.dim == 3
    assert kronecker.dim == 4
    assert loop.dim == 2
    assert kxk.dim == 2


def test_parse_errors():
    with pytest.raises(AlgebraError):
        load_algebra("field p=4\nvertices 1")
    with pytest.raises(AlgebraError):
        load_algebra("field p=17\nvertices 1")
    with pytest.raises(AlgebraError):
        load_algebra("field p=2\nvertices 1 2\narrow a: 1 -> 3")
    with pytest.raises(AlgebraError):
        load_algebra("field p=2\nvertices 1 2\nfrobnicate 7")
    # ambiguous header lines: a spaced or underscored number, a second line
    with pytest.raises(AlgebraError, match="line 1: bad field line 'p=1 1'"):
        load_algebra("field p=1 1\nvertices 1")
    with pytest.raises(AlgebraError, match="line 1: bad field line"):
        load_algebra("field p=1_1\nvertices 1")
    with pytest.raises(AlgebraError, match="line 2: second 'field' line"):
        load_algebra("field p=2\nfield p=3\nvertices 1")
    with pytest.raises(AlgebraError, match="line 3: second 'vertices' line"):
        load_algebra("field p=2\nvertices 1\nvertices 1 2")
    assert load_algebra("field p = 3\nvertices 1").p == 3
    # relation terms must be parallel
    with pytest.raises(AlgebraError):
        load_algebra(
            "field p=2\nvertices 1 2 3\narrow a: 1 -> 2\narrow b: 2 -> 3\n"
            "arrow c: 1 -> 1\nrelation a.b + c.c"
        )
    # non-composable path
    with pytest.raises(AlgebraError):
        load_algebra("field p=2\nvertices 1 2\narrow a: 1 -> 2\nrelation a.a")
    # relation paths need length >= 2
    with pytest.raises(AlgebraError):
        load_algebra("field p=2\nvertices 1\narrow x: 1 -> 1\nrelation x")
    # infinite dimensional: a free loop, a free 2-cycle, a free loop beside
    # a relation elsewhere, a 2-cycle that a relation touches only on its
    # way out, a loop a1 whose powers hold no whole term, though a1.a1 lies
    # in one, and a loop whose one relation x.x + x.x is 0 over F_2 (all
    # refused at once), and k[x, y]/(x^3 - y^2), where no term-free path of
    # two arrows extends (refused at the cap), each within 1 s
    for text in (
        "field p=2\nvertices 1\narrow x: 1 -> 1",
        "field p=2\nvertices 1 2\narrow a: 1 -> 2\narrow b: 2 -> 1",
        "field p=2\nvertices v0 v1 v2\narrow a0: v1 -> v1\narrow a1: v0 -> v0\n"
        "relation a0.a0",
        "field p=2\nvertices 1 2 3\narrow a: 1 -> 2\narrow b: 2 -> 1\n"
        "arrow c: 2 -> 3\nrelation a.c",
        "field p=5\nvertices v0 v1\narrow a1: v0 -> v0\narrow a2: v1 -> v1\n"
        "arrow a0: v1 -> v0\nrelation a0.a1.a1 + a0.a1\nrelation 2*a2.a2 + a2.a2.a2\n"
        "relation 2*a2.a2.a2",
        "field p=2\nvertices 1\narrow x: 1 -> 1\nrelation x.x + x.x",
        "field p=2\nvertices 1\narrow x: 1 -> 1\narrow y: 1 -> 1\n"
        "relation x.y - y.x\nrelation x.x.x - y.y",
    ):
        start = time.perf_counter()
        with pytest.raises(AlgebraError, match="path window exceeds 10000 paths"):
            load_algebra(text)
        assert time.perf_counter() - start < 1


def test_square_path_basis(square):
    # four trivial paths, four arrows, one surviving length-2 path
    assert square.dim == 9
    names = sorted(
        tuple(square.arrows[k].name for k in arrs) for _, arrs in square.basis
    )
    assert ("a", "c") in names
    assert ("b", "d") not in names
    a = square.basis_index[(0, (1,))]  # arrow b
    d = square.basis_index[(2, (3,))]  # arrow d
    prod = square.mult({a: 1}, {d: 1})
    ac = square.basis_index[(0, (0, 2))]
    assert prod == {ac: 1}


def test_inhomogeneous_relation_basis():
    A = load_algebra("field p=3\nvertices 1\narrow x: 1 -> 1\nrelation x.x + x.x.x")
    assert A.dim == 3
    x = A.basis_index[(0, (0,))]
    xx = A.basis_index[(0, (0, 0))]
    assert A.mult({xx: 1}, {x: 1}) == {xx: 2}


def test_ideal_rows_arrive_reduced_mod_p():
    # 2*x.x + 2*x.x nets x.x over F_3: each row holds the net coefficient of
    # each term, reduced, in a fresh dict, and the algebra is that of
    # x.x + x.x.x
    A = load_algebra("field p=3\nvertices 1\narrow x: 1 -> 1\nrelation 2*x.x + 2*x.x + x.x.x")
    B = load_algebra("field p=3\nvertices 1\narrow x: 1 -> 1\nrelation x.x + x.x.x")
    assert A.basis == B.basis and A.dim == 3
    units = range(A.dim)
    assert [A.mult_basis(i, j) for i in units for j in units] == [
        B.mult_basis(i, j) for i in units for j in units
    ]
    rows = list(_PathWindow(A, 4)._ideal_rows(A, 4))
    assert rows == list(_PathWindow(B, 4)._ideal_rows(B, 4))
    assert rows and all(0 < c < A.p for row in rows for c in row.values())
    assert len(set(map(id, rows))) == len(rows)


def test_path_matrix_is_the_product_of_the_arrow_matrices(square, kronecker):
    # every basis path on every item, zero dimensions included, against the
    # product of its arrow matrices started from the identity
    for A, bound in ((square, (1, 1, 1, 1)), (kronecker, (2, 2))):
        cat = Catalogue(A, bound)
        for idx in range(len(cat)):
            X = cat.rep(idx)
            for src, arrs in A.basis:
                m = [[int(i == j) for j in range(X.dims[src])] for i in range(X.dims[src])]
                for ai in arrs:
                    m = [
                        [sum(x * m[k][c] for k, x in enumerate(row)) % A.p for c in range(X.dims[src])]
                        for row in X.mats[ai]
                    ]
                assert X.path_matrix((src, arrs)) == tuple(map(tuple, m))


@pytest.mark.parametrize("p", [2, 3])
def test_relations_of_mixed_lengths_load(p):
    # y.y.y = x.x, so x^k leads an ideal row only in windows longer than k:
    # every window has a standard power of x at its top
    A = load_algebra(
        "field p=%d\nvertices 1\narrow x: 1 -> 1\narrow y: 1 -> 1\n"
        "relation x.x - y.y.y\nrelation x.y\nrelation y.x" % p
    )
    assert A.dim == 5
    assert A.basis == ((0, ()), (0, (0,)), (0, (1,)), (0, (0, 0)), (0, (1, 1)))
    x, y = ({A.basis_index[(0, (a,))]: 1} for a in (0, 1))
    assert A.mult(A.mult(y, y), y) == A.mult(x, x) == {A.basis_index[(0, (0, 0))]: 1}
    assert_presents(A)


def test_a_window_basis_on_which_a_relation_survives_is_refused():
    # the window of the longest relation (L = 5) has an empty layer and a
    # 9-path candidate basis, on which some relation does not act as 0; a
    # longer window finds the 5-dimensional algebra
    A = load_algebra(
        "field p=2\nvertices 1\narrow x: 1 -> 1\narrow y: 1 -> 1\n"
        "relation y.x.y.x\nrelation x.y.y.y.y + y.x.y.x + x.x.y.x\n"
        "relation x.x + y.y\nrelation y.y.x.y + x.y"
    )
    assert len(_PathWindow(A, 5).basis) == 9
    assert A.basis == ((0, ()), (0, (0,)), (0, (1,)), (0, (0, 0)), (0, (1, 0)))
    assert_presents(A)


def test_a_window_basis_holds_every_prefix_of_its_paths():
    # in the window of length 6, a1.a1.a1.a1.a2 and a2.a0.a1.a2 lead no row
    # while a prefix of each leads one; with them the span of the standard
    # paths is 13-dimensional, every relation acts on it as 0, and yet the
    # arrows do not generate it
    A = load_algebra(
        "field p=3\nvertices v0 v1\narrow a0: v0 -> v1\narrow a1: v1 -> v1\narrow a2: v1 -> v0\n"
        "relation a0.a1 + 2*a0.a2.a0 + 2*a0.a1.a1\n"
        "relation 2*a2.a0 + 2*a1.a1.a1 + 2*a1.a2.a0\n"
        "relation a0.a1 + a0.a2.a0 + 2*a0.a1.a1"
    )
    assert A.dim == 11
    assert max(len(arrs) for _, arrs in A.basis) == 3
    assert_presents(A)


def assert_presents(A):
    """Each basis path is the product of its arrows through mult, each
    relation is 0 that way, and mult is associative on basis triples."""

    def product(arrs):
        return functools.reduce(A.mult, ({A.basis_index[(A.arrows[a].source, (a,))]: 1} for a in arrs))

    for k, (_, arrs) in enumerate(A.basis):
        if arrs:
            assert product(arrs) == {k: 1}
    for rel in A.relations:
        total = {}
        for coeff, (_, arrs) in rel:
            for k, c in product(arrs).items():
                total[k] = (total.get(k, 0) + coeff * c) % A.p
        assert not any(total.values())
    units = [{i: 1} for i in range(A.dim)]
    for u in units:
        for v in units:
            for w in units:
                assert A.mult(A.mult(u, v), w) == A.mult(u, A.mult(v, w))


def test_loop_multiplication(loop):
    x = loop.basis_index[(0, (0,))]
    assert loop.mult({x: 1}, {x: 1}) == {}
    e = loop.basis_index[(0, ())]
    assert loop.mult({e: 1}, {x: 1}) == {x: 1}


def test_projectives(a2, kronecker, loop, square):
    assert projective_module(a2, 0).dims == (1, 1)
    assert projective_module(a2, 1).dims == (0, 1)
    P1 = projective_module(kronecker, 0)
    assert P1.dims == (1, 2)
    assert P1.mats[0] == ((1,), (0,))
    assert P1.mats[1] == ((0,), (1,))
    assert projective_module(loop, 0).dims == (2,)
    assert projective_module(square, 0).dims == (1, 1, 1, 1)


def test_injectives(a2, kronecker, loop):
    assert injective_module(a2, 0).dims == (1, 0)
    I2 = injective_module(a2, 1)
    assert I2.dims == (1, 1)
    Ik = injective_module(kronecker, 1)
    assert Ik.dims == (2, 1)
    assert Ik.mats[0] == ((1, 0),)
    assert Ik.mats[1] == ((0, 1),)
    # the square-zero loop algebra is self-injective
    Il = injective_module(loop, 0)
    assert Il.dims == (2,)
    assert len(hom_space(Il, projective_module(loop, 0))) == 2


def test_relation_validation(loop, square):
    with pytest.raises(AlgebraError):
        Representation(loop, (1,), (((1,),),))
    Representation(loop, (1,), (((0,),),))
    # square: a.c = b.d must hold
    mats_bad = [((1,),), ((1,),), ((1,),), ((0,),)]
    with pytest.raises(AlgebraError):
        Representation(square, (1, 1, 1, 1), mats_bad)
    mats_ok = [((1,),), ((1,),), ((1,),), ((1,),)]
    Representation(square, (1, 1, 1, 1), mats_ok)


def test_hom_dimensions_a2(a2):
    P1 = projective_module(a2, 0)
    S1 = simple_module(a2, 0)
    S2 = simple_module(a2, 1)
    assert len(hom_space(P1, S2)) == 0
    assert len(hom_space(P1, S1)) == 1
    assert len(hom_space(S2, P1)) == 1
    assert len(hom_space(P1, P1)) == 1
    assert len(hom_space(S1, S2)) == 0


def test_hom_projective_counts_dims(square, kronecker):
    for A in (square, kronecker):
        mods = [projective_module(A, i) for i in range(A.n)]
        mods += [injective_module(A, i) for i in range(A.n)]
        mods += [simple_module(A, i) for i in range(A.n)]
        for i in range(A.n):
            P = projective_module(A, i)
            I = injective_module(A, i)
            for M in mods:
                assert len(hom_space(P, M)) == M.dims[i]
                assert len(hom_space(M, I)) == M.dims[i]


def test_hom_projective_projective_counts_paths(square):
    # Hom(P(i), P(j)) is the span of basis paths j -> i
    for i in range(square.n):
        for j in range(square.n):
            expect = len(square.paths[j][i])
            Pi = projective_module(square, i)
            Pj = projective_module(square, j)
            assert len(hom_space(Pi, Pj)) == expect


def test_sub_quotient_kernel_image(a2):
    P1 = projective_module(a2, 0)
    socle = ((), ((1,),))
    assert arrow_stable(P1, socle)
    assert quotient_module(P1, socle).dims == (1, 0)
    assert submodule_rep(P1, socle).dims == (0, 1)
    bad = (((1,),), ())
    assert not arrow_stable(P1, bad)
    with pytest.raises(AlgebraError):
        quotient_module(P1, bad)
    # an explicit raise, so the check survives python -O
    with pytest.raises(AlgebraError):
        submodule_rep(P1, bad)
    S2 = simple_module(a2, 1)
    (f,) = hom_space(S2, P1)
    assert kernel_submodule(f, S2, P1) == ((), ())
    assert image_submodule(f, S2, P1) == ((), ((1,),))
    # a module with a zero vertex space has the empty matrix there
    (g,) = hom_space(S2, S2)
    assert g[0] == ()
    assert image_submodule(g, S2, S2) == ((), ((1,),))
    assert kernel_submodule(g, S2, S2) == ((), ())


def test_direct_sum(a2):
    S1 = simple_module(a2, 0)
    P1 = projective_module(a2, 0)
    D = direct_sum(S1, P1)
    assert D.dims == (2, 1)
    assert len(hom_space(projective_module(a2, 0), D)) == 2
    Z = zero_module(a2)
    assert direct_sum(Z, S1).dims == S1.dims


def test_euler_pairing(a2, kronecker):
    # the pairing of stability.quadruple: theta scaled to integers by a
    # positive factor, dotted with each nonzero dimension vector
    assert _integer_weight(a2, (Fraction(1), Fraction(-1))) == [1, -1]
    assert _pairings([1, -1], [(1, 1), (0, 0), (0, 2)]) == [0, -2]
    assert _pairings(_integer_weight(a2, (2, -1)), [(1, 1)]) == [1]
    w = _integer_weight(kronecker, (Fraction(1, 2), Fraction(-3, 2)))
    assert w == [1, -3] and _pairings(w, [(2, 1)]) == [-1]
    with pytest.raises(AlgebraError):
        _integer_weight(a2, (1, 2, 3))


class _Owner:
    def __init__(self):
        self.calls = []

    @memo
    def square(self, x):
        self.calls.append(x)
        if x < 0:
            raise ValueError(x)
        return x * x

    @memo
    def cube(self, x):
        return x**3


def test_memo_caches_per_owner_and_argument_tuple():
    a, b = _Owner(), _Owner()
    assert a.square(3) == a.square(3) == 9
    assert a.square(4) == 16
    assert a.calls == [3, 4]
    # two functions with the same arguments keep separate tables
    assert a.cube(3) == 27
    # two owners never share an entry
    assert b.square(3) == 9
    assert b.calls == [3]


def test_memo_does_not_cache_a_raising_call():
    a = _Owner()
    for _ in range(2):
        with pytest.raises(ValueError):
            a.square(-1)
    assert a.calls == [-1, -1]


@pytest.mark.parametrize("name", ["a2", "kronecker", "kxk", "loop", "pi_a2", "pi_a3", "square"])
def test_several_vertices_give_the_direct_sum(name, square):
    A = square if name == "square" else bundled(name)
    picks = [(), (0,), tuple(range(A.n)), tuple(reversed(range(A.n))), (A.n - 1, 0, A.n - 1)]
    for vertices in picks:
        for single in (projective_module, injective_module):
            fold = functools.reduce(direct_sum, [single(A, i) for i in vertices], zero_module(A))
            assert single(A, *vertices) == fold, (single.__name__, vertices)


def test_path_map_blocks_and_duals(a2):
    e0 = a2.basis_index[(0, ())]
    arrow = a2.paths[0][1][0]
    # left multiplication by the arrow sends the path 1 -> 1 to the arrow;
    # two target blocks, the cell of the first empty
    src, dst, cells = [a2.paths[1][1]], [a2.paths[0][1]] * 2, [[{}], [{arrow: 1}]]
    assert path_map(a2, src, dst, cells) == ((0,), (1,))
    assert path_map(a2, src, dst, cells, dual=True) == ((0, 1),)
    # right multiplication by the idempotent e0 on the paths starting at 0
    src = [a2.paths[0][0] + a2.paths[0][1]]
    assert path_map(a2, src, src, [[{e0: 1}]], right=True) == ((1, 0), (0, 0))
    # zero-dimensional spaces keep their shapes under transposition
    assert path_map(a2, [a2.paths[0][0]], [()], [[{}]], dual=True) == ((),)
    with pytest.raises(AlgebraError, match="outside its target span"):
        path_map(a2, [a2.paths[0][0]], [a2.paths[0][0]], [[{arrow: 1}]], right=True)


def test_memo_cache_dies_with_its_owner():
    a = _Owner()
    a.square(2)
    ref = weakref.ref(a)
    del a
    gc.collect()
    assert ref() is None


def test_path_table_matches_every_layout():
    for name in ("a2", "kronecker", "kxk", "loop"):
        A = bundled(name)
        for i in range(A.n):
            for j in range(A.n):
                scan = tuple(
                    k for k in range(A.dim) if A.path_source[k] == i and A.path_target[k] == j
                )
                assert A.paths[i][j] == scan
                assert A.paths[i][j] == proj_struct(A, i)[j] == inj_struct(A, j)[i] == scan


@st.composite
def zero_relation_quivers(draw):
    """1-3 vertices, 1-4 arrows (loops allowed), and a random set of
    composable arrow pairs as zero relations."""
    n = draw(st.integers(1, 3))
    vertex = st.integers(0, n - 1)
    arrows = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=4))
    composable = [
        (a, b)
        for a in range(len(arrows))
        for b in range(len(arrows))
        if arrows[a][1] == arrows[b][0]
    ]
    zero = draw(st.sets(st.sampled_from(composable))) if composable else set()
    return n, arrows, zero


@settings(derandomize=True, deadline=None, max_examples=150)
@given(zero_relation_quivers())
def test_zero_relation_algebras_match_the_path_oracle(case):
    n, arrows, zero = case
    text = "field p=2\nvertices %s\n" % " ".join("v%d" % v for v in range(n))
    text += "".join("arrow a%d: v%d -> v%d\n" % (k, s, t) for k, (s, t) in enumerate(arrows))
    text += "".join("relation a%d.a%d\n" % pair for pair in sorted(zero))
    expected = zero_relation_basis(n, arrows, zero)
    if expected is None:
        with pytest.raises(AlgebraError, match="path window exceeds 10000 paths"):
            load_algebra(text)
        return
    A = load_algebra(text)
    assert set(A.basis) == expected and len(A.basis) == len(expected)
    for i, u in enumerate(A.basis):
        for j, v in enumerate(A.basis):
            w = zero_relation_product(arrows, zero, u, v)
            assert A.mult_basis(i, j) == (() if w is None else ((A.basis_index[w], 1),))
