"""The closures and submodule lattices against the item-level oracles, and
the work they may do."""

import itertools
import random
import sys

import pytest

import oracles
from conftest import bundled
from torslab import presentations, torsion
from torslab.algebra import direct_sum
from torslab.catalogue import Catalogue
from torslab.presentations import map_from_coeffs, presentation_space, tbar_of_map
from torslab.silting import cohomology, direct_sum_complex, enumerate_silting
from torslab.stability import quadruple
from torslab.torsion import enumerate_torsion_classes, filt_closure, indices_of, witnesses

CLOSURES = ("fac_closure", "sub_closure", "left_perp", "right_perp")

# (bundled name, field, bound)
WINDOWS = (
    ("a2", None, (2, 2)),
    ("kronecker", None, (2, 2)),
    ("kronecker", 3, (1, 2)),
    ("loop", None, (2,)),
    ("kxk", None, (1, 1)),
)


@pytest.fixture(scope="module", params=WINDOWS, ids=lambda w: "%s-p%s-%s" % w)
def window(request):
    name, p, bound = request.param
    A = bundled(name, p)
    return A, Catalogue(A, bound)


def _agree(cat, gens):
    want = {name: getattr(oracles, name)(cat, gens) for name in CLOSURES}
    for name in CLOSURES:
        assert getattr(torsion, name)(cat, gens) == want[name], (name, gens)
    # the torsion and torsion-free closures are double perps; their
    # reference is the filtration DP over the oracle's Fac and Sub
    assert torsion.t_of(cat, gens) == oracles.filt_closure(cat, want["fac_closure"]), gens
    assert oracles.f_of(cat, gens) == oracles.filt_closure(cat, want["sub_closure"]), gens


def test_closures_match_oracle_on_masks(window):
    # random masks are rarely closed under sums or summands; the torsion
    # classes and their perps are
    _, cat = window
    rng = random.Random(20261018)
    full = (1 << len(cat)) - 1
    masks = [0, full] + [rng.randrange(full + 1) for _ in range(12)]
    masks += [rng.randrange(full + 1) & rng.randrange(full + 1) for _ in range(6)]
    for tmask in enumerate_torsion_classes(cat):
        masks += [tmask, torsion.right_perp(cat, tmask)]
    for m in masks:
        _agree(cat, m)


# (bundled name, field, bound); pi_a2 and pi_a3 have relations
PERP_WINDOWS = (
    ("a2", None, (2, 2)),
    ("kronecker", 2, (2, 3)),
    ("kronecker", 3, (2, 2)),
    ("loop", None, (3,)),
    ("pi_a2", None, (2, 2)),
    ("pi_a3", None, (1, 1, 1)),
)


@pytest.mark.parametrize("name, p, bound", PERP_WINDOWS, ids=lambda w: str(w))
def test_perps_match_oracle_on_classes_items_and_masks(name, p, bound, monkeypatch):
    # indexed perps are ORs of Hom-support rows over summand masks; an
    # explicit generator beside an indexed one keeps the per-item test
    cat = Catalogue(bundled(name, p), bound)
    # the oracles solve each hom space once per pair of modules here, so that
    # 200 generator sets over 46 items take seconds, not minutes
    homs = {}
    solve = oracles.hom_space

    def hom_once(X, Y):
        if (X, Y) not in homs:
            homs[X, Y] = solve(X, Y)
        return homs[X, Y]

    monkeypatch.setattr(oracles, "hom_space", hom_once)
    rng = random.Random(21)
    full = (1 << len(cat)) - 1
    inputs = enumerate_torsion_classes(cat) + [(i,) for i in range(len(cat))]
    inputs += [rng.randrange(full + 1) for _ in range(30)]
    for gens in inputs:
        _agree(cat, gens)
    i, j, k = (rng.randrange(len(cat)) for _ in range(3))
    _agree(cat, [k, direct_sum(cat.rep(i), cat.rep(j))])


def test_closures_match_oracle_on_explicit_modules(window):
    # the cohomology of walk vertices, which may leave the window, and direct
    # sums of two items, alone and beside an indexed generator
    A, cat = window
    for vert in enumerate_silting(A, 4)["vertices"]:
        h0, hm1 = cohomology(direct_sum_complex(vert["summands"], A))
        _agree(cat, [h0])
        _agree(cat, [hm1])
    rng = random.Random(7)
    for _ in range(6):
        i, j, k = (rng.randrange(len(cat)) for _ in range(3))
        both = direct_sum(cat.rep(i), cat.rep(j))
        _agree(cat, [both])
        _agree(cat, [k, both])


def test_compact_witness_test_matches_filtration_oracle(window):
    # an item i of a class T generates it exactly when i and T have the same
    # right perp, which is what compact_witness tests
    _, cat = window
    for tmask in enumerate_torsion_classes(cat):
        fmask = torsion.right_perp(cat, tmask)
        for i in indices_of(tmask):
            same_perp = torsion.right_perp(cat, (i,)) == fmask
            generates = filt_closure(cat, [oracles.fac_closure(cat, (i,))]) == [tmask]
            assert same_perp == generates, (tmask, i)


def _assert_witnesses_match_scan(cat, tmask):
    fmask = torsion.right_perp(cat, tmask)
    scan = oracles.witness_scan
    assert torsion.fac_single_witness(cat, tmask) == scan(cat, tmask, torsion.fac_closure, tmask)
    assert torsion.sub_single_witness(cat, fmask) == scan(cat, fmask, torsion.sub_closure, fmask)
    assert torsion.compact_witness(cat, tmask, fmask) == scan(cat, tmask, torsion.right_perp, fmask)
    assert torsion.cocompact_witness(cat, tmask, fmask) == scan(cat, fmask, torsion.left_perp, tmask)


# (bundled name, field, bound): every bundled algebra, and Kronecker windows
# over F_2 and F_3
WITNESS_WINDOWS = (
    ("a2", None, (2, 2)),
    ("kronecker", None, (2, 2)),
    ("kxk", None, (1, 1)),
    ("loop", None, (3,)),
    ("pi_a2", None, (1, 1)),
    ("pi_a3", None, (1, 1, 1)),
    ("kronecker", 2, (2, 3)),
    ("kronecker", 3, (2, 2)),
)


@pytest.mark.parametrize("name, p, bound", WITNESS_WINDOWS, ids=lambda w: str(w))
def test_witness_lookups_match_the_scan_on_census_classes(name, p, bound):
    cat = Catalogue(bundled(name, p), bound)
    for tmask in enumerate_torsion_classes(cat):
        _assert_witnesses_match_scan(cat, tmask)


# (bundled name, bound, weight grid)
KING_GRIDS = (
    ("a2", (2, 2), (-4, 4)),
    ("kronecker", (2, 2), (-3, 3)),
    ("pi_a2", (1, 1), (-2, 2)),
)


@pytest.mark.parametrize("name, bound, grid", KING_GRIDS, ids=lambda w: str(w))
def test_witness_lookups_match_the_scan_on_king_classes(name, bound, grid):
    # the strict and weak classes of every weight of the semistable suite's grid
    cat = Catalogue(bundled(name), bound)
    lo, hi = grid
    masks = set()
    for theta in itertools.product(range(lo, hi + 1), repeat=cat.algebra.n):
        quad = quadruple(cat, theta)
        masks.update((quad.T, quad.Tbar))
    for tmask in sorted(masks):
        _assert_witnesses_match_scan(cat, tmask)


@pytest.mark.parametrize(
    "name, bound",
    [
        ("kronecker", (2, 3)),
        ("a2", (3, 3)),
        ("kxk", (1, 1)),
        ("loop", (2,)),
        # algebras with relations: the basis of pi_a3 has paths of length 2
        ("pi_a3", (1, 2, 1)),
        ("pi_a2 p=3", (2, 2)),
    ],
)
def test_submodule_families_match_all_pairs_join(name, bound):
    # the oracle seeds with its own closure, so this checks seeds and joins
    name, _, p = name.partition(" p=")
    cat = Catalogue(bundled(name, p=int(p) if p else None), bound)
    for idx in range(len(cat)):
        assert cat.submodule_families(idx) == oracles.submodule_families(cat, idx)


def test_census_and_witnesses_read_homs_between_indecomposables(monkeypatch, kronecker):
    calls = []
    original = Catalogue.hom_basis

    def counted(cat, i, j):
        calls.append((i, j))
        return original(cat, i, j)

    monkeypatch.setattr(Catalogue, "hom_basis", counted)
    cat = Catalogue(kronecker, (2, 3))
    for tmask in enumerate_torsion_classes(cat):
        witnesses(cat, tmask)
    assert calls
    assert all(cat.is_indec(i) and cat.is_indec(j) for i, j in calls)


def test_tbar_of_map_reads_the_rank_form_once_per_indecomposable(monkeypatch, a2):
    cat = Catalogue(a2, (2, 2))
    # every signature is computed here, so the decompositions' own hom
    # spaces are not counted below
    indecs = [i for i in range(len(cat)) if cat.is_indec(i)]
    U = map_from_coeffs(a2, presentation_space(a2, (1, -1)), (0,))
    homs = []
    original = torsion.hom_space

    def counted(*args):
        homs.append(args)
        return original(*args)

    for modname, module in list(sys.modules.items()):
        if modname.startswith("torslab.") and getattr(module, "hom_space", None) is original:
            monkeypatch.setattr(module, "hom_space", counted)
    ranks = []
    original_rank = presentations.in_perp_of_kernel

    def counted_rank(U, cat, idx):
        ranks.append(idx)
        return original_rank(U, cat, idx)

    monkeypatch.setattr(presentations, "in_perp_of_kernel", counted_rank)
    tmask = tbar_of_map(cat, U)
    assert tmask != 1 << cat.zero_index()
    assert homs == []
    assert 0 < len(ranks) <= len(indecs) < len(cat)
