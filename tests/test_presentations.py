import re
from collections import Counter
from decimal import Decimal
from itertools import product

import pytest

import oracles
from oracles import simple_module
from conftest import bundled
from torslab import presentations
from torslab.catalogue import BudgetError, Catalogue
from torslab.presentations import (
    PresentationError,
    fei_union_check,
    map_from_coeffs,
    presentation_dim,
    presentation_pair,
    presentation_space,
    tbar_of_map,
)
from torslab.reports import TBAR_SWEEP_COST, _tbar_map_search
from torslab.silting import TwoTermComplex, _layout, cohomology
from torslab.stability import quadruple
from torslab.torsion import enumerate_torsion_classes


@pytest.fixture(scope="module")
def cat_a2(a2):
    return Catalogue(a2, (2, 2))


@pytest.fixture(scope="module")
def cat_kron(kronecker):
    return Catalogue(kronecker, (2, 2))


def test_presentation_pair(a2, kronecker):
    assert presentation_pair(kronecker, (1, -1)) == ((1,), (0,))
    assert presentation_pair(a2, (2, -1)) == ((1,), (0, 0))
    assert presentation_pair(a2, (0, 0)) == ((), ())
    with pytest.raises(PresentationError):
        presentation_pair(a2, ("1/2", 0))


@pytest.mark.parametrize("bad", [1.0, "1", Decimal("1"), None])
def test_weight_entries_must_be_int_or_fraction(a2, cat_a2, bad):
    # Fraction(t) would parse the first three as the integer 1
    named = "weight entry %s " % re.escape(repr(bad))
    with pytest.raises(PresentationError, match=named):
        presentation_pair(a2, (bad, 0))
    with pytest.raises(PresentationError, match=named):
        presentation_dim(a2, (bad, 0))
    with pytest.raises(PresentationError, match=named):
        fei_union_check(cat_a2, (bad, 0), 1)


def test_presentation_space_dims(a2, kronecker):
    assert presentation_space(kronecker, (1, -1))["dim"] == 2
    assert presentation_space(a2, (1, -1))["dim"] == 1
    assert presentation_space(a2, (1, 0))["dim"] == 0
    assert presentation_space(a2, (0, 0))["dim"] == 0
    # no paths from vertex 1 back to vertex 0
    assert presentation_space(a2, (-1, 1))["dim"] == 0


def test_presentation_dim_counts_paths():
    # the dimension from path counts equals the number of slots of the
    # space, and scales with the square of the level
    radii = {"a2": 3, "kronecker": 3, "kxk": 3, "loop": 3, "pi_a2": 3, "pi_a3": 2}
    for name, r in radii.items():
        A = bundled(name)
        for theta in product(range(-r, r + 1), repeat=A.n):
            dim = presentation_dim(A, theta)
            for k in (1, 2):
                scaled = tuple(k * t for t in theta)
                want = presentation_space(A, scaled)["dim"]
                assert presentation_dim(A, scaled) == k * k * dim == want, (name, theta, k)
    with pytest.raises(PresentationError, match="wrong length"):
        presentation_dim(bundled("a2"), (1, -1, 0))


def test_tbar_of_zero_map(cat_a2, cat_kron, a2, kronecker):
    sp = presentation_space(a2, (1, 0))
    full = (1 << len(cat_a2)) - 1
    assert tbar_of_map(cat_a2, map_from_coeffs(a2, sp, ())) == full
    # kernel of the zero map is the whole injective; perp drops everything
    # with support at the second vertex
    spk = presentation_space(kronecker, (1, -1))
    got = tbar_of_map(cat_kron, map_from_coeffs(kronecker, spk, (0, 0)))
    expect = 0
    for i in range(len(cat_kron)):
        if cat_kron.rep(i).dims[1] == 0:
            expect |= 1 << i
    assert got == expect


@pytest.mark.parametrize(
    "name, bound", (("a2", (2, 2)), ("kronecker", (2, 2)), ("pi_a3", (1, 2, 1))), ids=str
)
def test_zero_map_classes_match_rank_form(name, bound, monkeypatch):
    # the zero map of every grid weight, at levels 1 and 2, against the rank
    # form on every item; each vertex set of P1 is decided once
    A = bundled(name)
    cat = Catalogue(A, bound)
    decided = []
    original = presentations.in_perp_of_kernel

    def counted(U, cat, idx):
        decided.append(U.minus)
        return original(U, cat, idx)

    monkeypatch.setattr(presentations, "in_perp_of_kernel", counted)
    vertex_sets = set()
    for theta in product(range(-2, 3), repeat=A.n):
        for level in (1, 2):
            space = presentation_space(A, tuple(level * t for t in theta))
            U = map_from_coeffs(A, space, (0,) * space["dim"])
            assert tbar_of_map(cat, U) == oracles.covered_mask(cat, U), (theta, level)
            vertex_sets.add(tuple(sorted(set(U.minus))))
    assert set(decided) == vertex_sets
    assert len(vertex_sets) == 2**A.n
    indecs = sum(cat.is_indec(i) for i in range(len(cat)))
    assert len(decided) == len(vertex_sets) * indecs


def test_tbar_of_arrow_map(cat_kron, kronecker):
    arrow = kronecker.paths[0][1][0]
    U = TwoTermComplex(kronecker, (1,), (0,), (({arrow: 1},),))
    got = tbar_of_map(cat_kron, U)
    s1 = cat_kron.find_index(simple_module(kronecker, 0))
    assert (got >> s1) & 1


def _swept_spaces(A, cat):
    """The presentation spaces of every weight of a small grid at levels 1
    and 2, and those of P(v)^a -> P(v)^b for a, b <= 2 at each vertex v (no
    weight splits into these, and on `loop` they carry the relation), each
    kept when its sweep fits the semistable suite's cost cap."""
    spaces = [
        presentation_space(A, tuple(level * t for t in theta))
        for theta in product(range(-2, 3), repeat=A.n)
        for level in (1, 2)
    ]
    for v, a, b in product(range(A.n), (1, 2), (1, 2)):
        slots = _layout(A, (v,) * a, (v,) * b)
        spaces.append({"minus": (v,) * a, "zero": (v,) * b, "slots": slots, "dim": len(slots)})
    return [sp for sp in spaces if A.p ** sp["dim"] * len(cat) <= TBAR_SWEEP_COST]


def test_rank_form_matches_kernel_form():
    # the rank form on indecomposables, the perp of the twisted kernel and
    # the rank form on every item agree on every swept map
    windows = (
        ("a2", None, (2, 2)),
        ("kronecker", None, (2, 2)),
        ("kronecker", 3, (2, 2)),
        ("loop", None, (3,)),
        ("kxk", None, (2, 2)),
    )
    for name, p, bound in windows:
        A = bundled(name, p)
        cat = Catalogue(A, bound)
        classes = set()
        for space in _swept_spaces(A, cat):
            for coeffs in product(range(A.p), repeat=space["dim"]):
                U = map_from_coeffs(A, space, coeffs)
                tmask = tbar_of_map(cat, U)
                assert tmask == oracles.left_perp(cat, [cohomology(U)[1]]), (name, U)
                assert tmask == oracles.covered_mask(cat, U), (name, U)
                classes.add(tmask)
        assert len(classes) >= 2, name


def test_fei_union_a2(cat_a2):
    for theta in [(1, -1), (2, -1), (-1, 2)]:
        r = fei_union_check(cat_a2, theta, 2)
        assert r["equality"], theta
        assert r["first_full_level"] == 1
        assert r["uncovered"] == ()
        assert r["cross_checked"] > 0


def test_fei_union_kronecker(cat_kron):
    r = fei_union_check(cat_kron, (1, -1), 3)
    assert r["levels"][2]["total"] == 2**18
    # containment is structural; the equality flag is data
    assert r["equality"]
    assert r["first_full_level"] == 1
    assert r["target_size"] == 20


def test_fei_union_refuses_a_level_too_large_to_sweep(cat_kron, monkeypatch):
    # level 4 of (1, -1) on Kronecker has 2^32 maps, over SWEEP_CAP: the
    # check raises before any level is swept, rather than sampling
    assert presentation_space(cat_kron.algebra, (4, -4))["dim"] == 32

    def refuse(*args):
        raise AssertionError("built a presentation map before the budget check")

    monkeypatch.setattr(presentations, "map_from_coeffs", refuse)
    monkeypatch.setattr(presentations, "tbar_of_map", refuse)
    with pytest.raises(BudgetError, match="level 4"):
        fei_union_check(cat_kron, (1, -1), 4)


def test_membership(cat_a2, cat_kron, a2, kronecker):
    bricks11 = [i for i in cat_kron.bricks() if cat_kron.dims_of(i) == (1, 1)]
    assert len(bricks11) == 3
    q = quadruple(cat_kron, (1, -1))
    for brick in bricks11:
        assert (q.Tbar >> brick) & 1
        assert not (q.T >> brick) & 1
    s1 = cat_a2.find_index(simple_module(a2, 0))
    assert (quadruple(cat_a2, (1, 1)).T >> s1) & 1
    z = cat_a2.zero_index()
    q = quadruple(cat_a2, (3, -2))
    for mask in (q.T, q.Tbar, q.F, q.Fbar):
        assert (mask >> z) & 1


def _search_exit(cat, theta, target, got):
    """How a single-map search ended: refused at the cost cap, hit by the
    zero map, hit by a nonzero map at some level, or missed everywhere."""
    if not got["searched"]:
        return "refused"
    if got["level"] is None:
        return "missed"
    negative = tuple(i for i, t in enumerate(theta) if t < 0)
    if presentations._zero_map_class(cat, negative) == target:
        return "zero map"
    return "level %d" % got["level"]


def test_tbar_map_search_matches_full_sweep_oracle():
    # every census class as target over every weight of five windows, then
    # the chambers workload's weak classes: the zero map is read before any
    # map is built and the cap is taken from path counts, with the same
    # outcome as building every space and sweeping it from the zero map on
    windows = (
        ("a2", (2, 2), 2),
        ("kronecker", (2, 2), 2),
        ("loop", (2,), 3),
        ("pi_a2", (1, 1), 1),
        ("kxk", (1, 1), 1),
    )
    exits = Counter()
    for name, bound, r in windows:
        cat = Catalogue(bundled(name), bound)
        for theta in product(range(-r, r + 1), repeat=len(bound)):
            for target in enumerate_torsion_classes(cat):
                got = _tbar_map_search(cat, theta, target)
                assert got == oracles.tbar_map_search(cat, theta, target), (name, theta)
                exits[_search_exit(cat, theta, target, got)] += 1
    assert exits == {"zero map": 74, "level 1": 13, "missed": 591, "refused": 76}
    cat = Catalogue(bundled("a2"), (2, 2))
    exits = Counter()
    for theta in product(range(-12, 13), repeat=2):
        target = quadruple(cat, theta).Tbar
        got = _tbar_map_search(cat, theta, target)
        assert got == oracles.tbar_map_search(cat, theta, target), theta
        exits[_search_exit(cat, theta, target, got)] += 1
    assert exits == {"zero map": 491, "level 1": 13, "refused": 121}
