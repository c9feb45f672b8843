from fractions import Fraction

import pytest

from torslab.algebra import direct_sum, load_algebra, projective_module, simple_module
from torslab.catalogue import Catalogue, WindowError
from torslab.silting import enumerate_silting
from torslab.stability import (
    cw_less,
    epsilon_certificate,
    parse_theta,
    quadruple,
)
from torslab.torsion import (
    cocompact_pair_of,
    cocompact_witness,
    compact_witness,
    enumerate_torsion_classes,
    f_of,
    fac_closure,
    fac_single_witness,
    filt_closure,
    functorially_finite,
    hasse_edges,
    indices_of,
    left_perp,
    mask_of,
    right_perp,
    sub_closure,
    sub_single_witness,
    t_of,
    torsion_pair_of,
    widely_generated_witness,
    window_stable,
    Window,
)


@pytest.fixture(scope="module")
def cat_a2(a2):
    return Catalogue(a2, (1, 1))


@pytest.fixture(scope="module")
def idx_a2(a2, cat_a2):
    S1 = cat_a2.find_index(simple_module(a2, 0))
    S2 = cat_a2.find_index(simple_module(a2, 1))
    P1 = cat_a2.find_index(projective_module(a2, 0))
    SS = cat_a2.find_index(direct_sum(simple_module(a2, 0), simple_module(a2, 1)))
    return {"S1": S1, "S2": S2, "P1": P1, "SS": SS, "Z": cat_a2.zero_index()}


@pytest.fixture(scope="module")
def cat_kron(kronecker):
    return Catalogue(kronecker, (1, 1))


@pytest.fixture(scope="module")
def cat_loop(loop):
    return Catalogue(loop, (2,))


def test_fac_and_sub_closures(cat_a2, idx_a2):
    got = fac_closure(cat_a2, (idx_a2["P1"],))
    assert set(indices_of(got)) == {idx_a2["Z"], idx_a2["S1"], idx_a2["P1"]}
    got2 = sub_closure(cat_a2, (idx_a2["P1"],))
    assert set(indices_of(got2)) == {idx_a2["Z"], idx_a2["S2"], idx_a2["P1"]}
    got3 = sub_closure(cat_a2, (idx_a2["S2"],))
    assert set(indices_of(got3)) == {idx_a2["Z"], idx_a2["S2"]}


def test_filt_closure(cat_a2, idx_a2):
    base = mask_of((idx_a2["Z"], idx_a2["S1"], idx_a2["S2"]))
    got = filt_closure(cat_a2, base)
    assert got == mask_of(range(len(cat_a2)))


def test_perps(cat_a2, idx_a2):
    got = right_perp(cat_a2, (idx_a2["S1"],))
    assert set(indices_of(got)) == {idx_a2["Z"], idx_a2["S2"], idx_a2["P1"]}
    got2 = left_perp(cat_a2, (idx_a2["S2"],))
    assert set(indices_of(got2)) == {idx_a2["Z"], idx_a2["S1"], idx_a2["P1"]}


def test_t_of_and_pairs(cat_a2, idx_a2):
    T = t_of(cat_a2, (idx_a2["P1"],))
    assert set(indices_of(T)) == {idx_a2["Z"], idx_a2["S1"], idx_a2["P1"]}
    tmask, fmask = torsion_pair_of(cat_a2, T)
    assert set(indices_of(fmask)) == {idx_a2["Z"], idx_a2["S2"]}
    small = mask_of((idx_a2["Z"], idx_a2["S2"]))
    _, f2 = torsion_pair_of(cat_a2, small)
    assert set(indices_of(f2)) == {idx_a2["Z"], idx_a2["S1"]}
    with pytest.raises(WindowError):
        torsion_pair_of(cat_a2, mask_of((idx_a2["Z"], idx_a2["P1"])))


def test_cocompact_pair(cat_a2, idx_a2):
    tmask, fmask = cocompact_pair_of(cat_a2, idx_a2["S2"])
    assert set(indices_of(tmask)) == {idx_a2["Z"], idx_a2["S1"], idx_a2["P1"]}
    assert set(indices_of(fmask)) == {idx_a2["Z"], idx_a2["S2"]}
    assert f_of(cat_a2, (idx_a2["S2"],)) == fmask


def test_enumerate_counts(cat_a2, cat_kron, cat_loop, kxk):
    assert len(enumerate_torsion_classes(cat_a2)) == 5
    assert len(enumerate_torsion_classes(cat_kron)) == 11
    assert len(enumerate_torsion_classes(cat_loop)) == 2
    assert len(enumerate_torsion_classes(Catalogue(kxk, (1, 1)))) == 4


def test_hasse(cat_a2):
    classes = enumerate_torsion_classes(cat_a2)
    assert len(hasse_edges(classes)) == 5


def test_witnesses_small_window(cat_a2, idx_a2):
    T = mask_of((idx_a2["Z"], idx_a2["S1"], idx_a2["P1"]))
    assert fac_single_witness(cat_a2, T) == idx_a2["P1"]
    assert compact_witness(cat_a2, T) == idx_a2["P1"]
    assert cocompact_witness(cat_a2, T, right_perp(cat_a2, T)) == idx_a2["S2"]
    assert functorially_finite(cat_a2, T) == (idx_a2["P1"], idx_a2["S2"])
    assert widely_generated_witness(cat_a2, T) == (idx_a2["P1"],)
    # the full class has no single Fac generator inside the (1,1) window
    full = mask_of(range(len(cat_a2)))
    assert fac_single_witness(cat_a2, full) is None


def test_witnesses_ample_window(a2):
    cat = Catalogue(a2, (2, 2))
    classes = enumerate_torsion_classes(cat)
    assert len(classes) == 5
    for T in classes:
        assert functorially_finite(cat, T) is not None
        assert compact_witness(cat, T) is not None
        assert cocompact_witness(cat, T, right_perp(cat, T)) is not None


def test_window_stability(a2, kronecker, loop, cat_a2, cat_kron, cat_loop):
    for cat, big, stable, count_big in (
        (cat_a2, Catalogue(a2, (2, 2)), True, 5),
        (cat_kron, Catalogue(kronecker, (2, 2)), False, 21),
        (cat_loop, Catalogue(loop, (3,)), True, 2),
    ):
        r = window_stable(cat, enumerate_torsion_classes(cat), big)
        assert r == {"stable": stable, "count_big": count_big}


def test_window(a2, kronecker, cat_a2):
    w = Window(a2, (1, 1))
    assert w.classes == enumerate_torsion_classes(cat_a2)
    assert w.above.bound == (2, 2)
    assert w.cert == {"stable": True, "count_big": 5}
    assert w.ample
    full = mask_of(range(len(w.cat)))
    wit = w.witnesses(full)
    assert w.witnesses(full) is wit
    # the Fac witness of the full class, P1+S2, leaves the (1,1) window;
    # S1+S2 generates it as a torsion class and 0 cogenerates it
    assert wit["fac"] is None and not wit["ff"]
    assert wit["bicompact"]
    assert w.cat.dims_of(wit["compact"]) == (1, 1)
    assert not w.cat.is_indec(wit["compact"])
    assert wit["cocompact"] == w.cat.zero_index()
    assert not Window(kronecker, (1, 1)).ample


# Dynkin quivers: torsion classes = two-term silting complexes = the
# Coxeter-Catalan number (Ingalls-Thomas, Compositio 145 (2009);
# Adachi-Iyama-Reiten, Compositio 150 (2014)); each bound holds every root
DYNKIN = {
    "A3-linear": ("1 2 3", ("1 -> 2", "2 -> 3"), (1, 1, 1), 14),
    "A3-sink": ("1 2 3", ("1 -> 2", "3 -> 2"), (1, 1, 1), 14),
    "A3-source": ("1 2 3", ("2 -> 1", "2 -> 3"), (1, 1, 1), 14),
    "A4-linear": ("1 2 3 4", ("1 -> 2", "2 -> 3", "3 -> 4"), (1, 1, 1, 1), 42),
    "D4-subspace": ("1 2 3 4", ("2 -> 1", "3 -> 1", "4 -> 1"), (2, 1, 1, 1), 50),
}


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("name", sorted(DYNKIN))
def test_dynkin_closed_forms(name, p):
    vertices, arrows, bound, want = DYNKIN[name]
    lines = ["field p=%d" % p, "vertices " + vertices]
    lines += ["arrow a%d: %s" % (k, a) for k, a in enumerate(arrows)]
    A = load_algebra("\n".join(lines) + "\n")
    classes = enumerate_torsion_classes(Catalogue(A, bound))
    graph = enumerate_silting(A, 12)
    assert graph["complete"]
    assert len(classes) == len(graph["vertices"]) == want


def test_quadruple_a2(cat_a2, idx_a2):
    th = parse_theta("1,-1", 2)
    q = quadruple(cat_a2, th)
    assert set(indices_of(q.T)) == {idx_a2["Z"], idx_a2["S1"]}
    assert set(indices_of(q.Tbar)) == {idx_a2["Z"], idx_a2["S1"], idx_a2["P1"]}
    assert set(indices_of(q.F)) == {idx_a2["Z"], idx_a2["S2"]}
    assert set(indices_of(q.Fbar)) == {idx_a2["Z"], idx_a2["S2"], idx_a2["P1"]}


def test_quadruple_kronecker_strict_vs_weak(cat_kron):
    th = parse_theta("1,-1", 2)
    q = quadruple(cat_kron, th)
    # the three one-parameter bricks are weakly but not strictly positive
    assert q.T != q.Tbar
    bricks = [i for i in cat_kron.bricks() if cat_kron.dims_of(i) == (1, 1)]
    for b in bricks:
        assert not (q.T >> b) & 1
        assert (q.Tbar >> b) & 1


def test_tf_equivalence_and_cw(cat_a2):
    one = Fraction(1)
    # scaling never changes the four classes
    assert quadruple(cat_a2, (one, -one)) == quadruple(cat_a2, (2 * one, -2 * one))
    # same chamber interior
    assert quadruple(cat_a2, (one, -2 * one)) == quadruple(cat_a2, (2 * one, -3 * one))
    # wall point vs chamber interior
    assert quadruple(cat_a2, (one, -one)) != quadruple(cat_a2, (one, -2 * one))
    assert quadruple(cat_a2, (one, -one)) != quadruple(cat_a2, (one, one))
    assert cw_less((0, -1), (1, 1))
    assert not cw_less((0, 2), (1, 1))


def test_epsilon_certificate(cat_a2, idx_a2):
    th = parse_theta("1,-1", 2)
    eps = epsilon_certificate(cat_a2, th, idx_a2["S1"])
    assert eps == 1
    with pytest.raises(ValueError):
        epsilon_certificate(cat_a2, th, idx_a2["S2"])
    # scaling invariance
    eps2 = epsilon_certificate(cat_a2, tuple(3 * t for t in th), idx_a2["S1"])
    assert eps2 == 3 * eps
