import decimal
import fractions
import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import SQUARE, bundled
from oracles import simple_module, torsion_pair_of
from torslab.algebra import (
    AlgebraError,
    direct_sum,
    injective_module,
    load_algebra,
    projective_module,
)
from torslab.catalogue import Catalogue, WindowError
from torslab import reports, torsion
from torslab.reports import _semibrick_spans
from torslab.silting import cohomology, direct_sum_complex, enumerate_silting
from torslab.cones import cone_of_subcat, separating_functional
from torslab.stability import classes_in, quadruple
from torslab.torsion import (
    above,
    ample,
    certificate,
    cocompact_witness,
    compact_witness,
    enumerate_torsion_classes,
    fac_closure,
    fac_single_witness,
    filt_closure,
    indices_of,
    left_perp,
    mask_of,
    right_perp,
    sub_closure,
    sub_single_witness,
    t_of,
    window_stable,
    witnesses,
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
    assert filt_closure(cat_a2, [base]) == [mask_of(range(len(cat_a2)))]
    assert filt_closure(cat_a2, []) == []


# the bundled windows, their neighbours, the census window and two more
FILT_WINDOWS = (
    ("a2", None, (1, 1)),
    ("a2", None, (2, 2)),
    ("a2", None, (3, 3)),
    ("kronecker", None, (1, 1)),
    ("kronecker", None, (2, 2)),
    ("kronecker", None, (2, 3)),
    ("kronecker", 3, (2, 2)),
    ("loop", None, (2,)),
    ("loop", None, (3,)),
    ("kxk", None, (1, 1)),
)


@pytest.mark.parametrize("name,p,bound", FILT_WINDOWS)
def test_filt_closure_matches_general_dp(name, p, bound):
    # census classes and Fac closures are closed under quotients and Sub
    # closures under submodules, so filt_closure decides their decomposable
    # items by summands; random masks mostly run the general DP.  One batch
    # call takes them all, mixed, and each mask alone must agree with it
    cat = Catalogue(bundled(name, p), bound)
    rng = random.Random(16)
    n = len(cat)
    gens = [(i,) for i in range(n)] + [tuple(rng.sample(range(n), 3)) for _ in range(10)]
    masks = list(enumerate_torsion_classes(cat))
    masks += [closure(cat, g) for g in gens for closure in (fac_closure, sub_closure)]
    masks += [rng.getrandbits(n) for _ in range(30)]
    want = [oracles.filt_closure(cat, m) for m in masks]
    assert filt_closure(cat, masks) == want
    for m, w in zip(masks, want):
        assert filt_closure(cat, [m]) == [w], m


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
    # the pair cogenerated by S2: its left perp, and the smallest
    # torsion-free class containing it, which is the right perp of that
    tmask = left_perp(cat_a2, (idx_a2["S2"],))
    fmask = oracles.f_of(cat_a2, (idx_a2["S2"],))
    assert set(indices_of(tmask)) == {idx_a2["Z"], idx_a2["S1"], idx_a2["P1"]}
    assert set(indices_of(fmask)) == {idx_a2["Z"], idx_a2["S2"]}
    assert right_perp(cat_a2, tmask) == fmask


def test_enumerate_counts(cat_a2, cat_kron, cat_loop, kxk):
    assert len(enumerate_torsion_classes(cat_a2)) == 5
    assert len(enumerate_torsion_classes(cat_kron)) == 11
    assert len(enumerate_torsion_classes(cat_loop)) == 2
    assert len(enumerate_torsion_classes(Catalogue(kxk, (1, 1)))) == 4


def test_witnesses_small_window(a2, cat_a2, idx_a2):
    T = mask_of((idx_a2["Z"], idx_a2["S1"], idx_a2["P1"]))
    assert fac_single_witness(cat_a2, T) == idx_a2["P1"]
    assert compact_witness(cat_a2, T, right_perp(cat_a2, T)) == idx_a2["P1"]
    assert cocompact_witness(cat_a2, T, right_perp(cat_a2, T)) == idx_a2["S2"]
    wit = witnesses(Catalogue(a2, (1, 1)), T)
    assert (wit["fac"], wit["sub"], wit["ff"]) == (idx_a2["P1"], idx_a2["S2"], True)
    # the smallest semibrick generating the class, as the scan suite finds it
    assert _semibrick_spans(cat_a2, T) == (idx_a2["P1"],)
    # the full class has no single Fac generator inside the (1,1) window
    full = mask_of(range(len(cat_a2)))
    assert fac_single_witness(cat_a2, full) is None


def test_a_witness_outside_the_mask_is_refused(cat_a2, idx_a2):
    # {0, S1, S2} is no class: S1+S2, the first item with its right perp
    # {0}, lies outside it
    mask = mask_of((idx_a2["Z"], idx_a2["S1"], idx_a2["S2"]))
    fmask = right_perp(cat_a2, mask)
    assert fmask == 1 << idx_a2["Z"] == right_perp(cat_a2, (idx_a2["SS"],))
    with pytest.raises(WindowError, match="outside the mask"):
        compact_witness(cat_a2, mask, fmask)


def test_semibrick_lookup_takes_one_perp_per_brick(monkeypatch):
    # Kronecker over F_11 at (1,1): 14 bricks and 4099 semibricks, so closing
    # every semibrick would take thousands of closures
    cat = Catalogue(bundled("kronecker", 11), (1, 1))
    sbs = cat.semibricks()
    assert len(cat.bricks()) == 14 and len(sbs) > 4000
    cases = [(sb, t_of(cat, mask_of(sb))) for sb in (sbs[0], sbs[1], sbs[20], sbs[-1])]
    calls = []
    original = reports.right_perp

    def counted(cat, gens):
        calls.append(gens)
        return original(cat, gens)

    def refuse(*args):
        raise AssertionError("t_of called by the semibrick lookup")

    monkeypatch.setattr(reports, "right_perp", counted)
    monkeypatch.setattr(torsion, "right_perp", counted)
    monkeypatch.setattr(reports, "t_of", refuse)
    for sb, target in cases:
        found = _semibrick_spans(cat, target)
        assert sbs.index(found) <= sbs.index(sb)
        assert original(cat, mask_of(found)) == original(cat, target)
    # one perp per target and at most one per brick
    assert len(calls) <= len(cases) + len(cat.bricks())


# (bundled name or quiver text, field, bound)
CENSUS_WINDOWS = (
    ("kronecker", 3, (2, 2)),
    ("kronecker", 2, (2, 3)),
    ("kronecker", 7, (1, 2)),
    ("loop", None, (3,)),
    ("pi_a3", None, (1, 1, 1)),
    ("a2", None, (3, 3)),
    (SQUARE, None, (1, 1, 1, 1)),
)


def test_census_matches_t_of_per_semibrick(monkeypatch):
    for name, p, bound in CENSUS_WINDOWS:
        A = load_algebra(name) if name == SQUARE else bundled(name, p)
        want = oracles.torsion_classes(Catalogue(A, bound))
        cat = Catalogue(A, bound)
        calls = []
        original = torsion.left_perp

        def counted(cat, gens):
            calls.append(gens)
            return original(cat, gens)

        def refuse(*args):
            raise AssertionError("t_of called by the census")

        with monkeypatch.context() as m:
            m.setattr(torsion, "left_perp", counted)
            m.setattr(torsion, "t_of", refuse)
            got = enumerate_torsion_classes(cat)
        assert got == want, (name, p, bound)
        # one left perp per distinct right perp of a semibrick, which is one
        # per class
        assert len(calls) == len(set(calls)) == len(got)


def test_span_closure_tests_no_summand_of_a_generator(kronecker, monkeypatch):
    # a summand of an indexed generator is a quotient and a submodule of it,
    # so the closures take no rank over it
    cat = Catalogue(kronecker, (2, 2))
    classes = enumerate_torsion_classes(cat)
    tested = []
    original = torsion._full_rank

    def counted(cat, x, blocks):
        tested.append(x)
        return original(cat, x, blocks)

    monkeypatch.setattr(torsion, "_full_rank", counted)
    for m in classes:
        for gens in (m, right_perp(cat, m)):
            own = {s for i in indices_of(gens) for s in cat.signature(i)}
            start = len(tested)
            assert fac_closure(cat, gens) == oracles.fac_closure(cat, gens)
            assert sub_closure(cat, gens) == oracles.sub_closure(cat, gens)
            assert not own & set(tested[start:])
    assert tested


def _census_id(value):
    return "square" if value == SQUARE else str(value)


def _census_window(name, p, bound):
    A = load_algebra(name) if name == SQUARE else bundled(name, p)
    return Catalogue(A, bound)


def _share_oracle_hom_spaces(monkeypatch):
    # the oracle closures take every hom space anew for every mask; within
    # one test the same pair gives the same space, so compute each once
    spaces = {}
    original = oracles.hom_space

    def hom_space(M, N):
        key = (id(M), id(N))
        if key not in spaces:
            spaces[key] = (M, N, original(M, N))
        return spaces[key][2]

    monkeypatch.setattr(oracles, "hom_space", hom_space)


@pytest.mark.parametrize("name,p,bound", CENSUS_WINDOWS, ids=_census_id)
def test_keyed_closures_match_oracle_on_census_windows(name, p, bound, monkeypatch):
    # every Fac and Sub verdict of indexed generators comes from the table
    # keyed by the item and the generators with rows to or from it
    _share_oracle_hom_spaces(monkeypatch)
    cat = _census_window(name, p, bound)
    classes = enumerate_torsion_classes(cat)
    for gens in list(classes) + [(i,) for i in range(len(cat))]:
        assert fac_closure(cat, gens) == oracles.fac_closure(cat, gens), gens
        assert sub_closure(cat, gens) == oracles.sub_closure(cat, gens), gens


@pytest.mark.parametrize("name,p,bound", CENSUS_WINDOWS, ids=_census_id)
def test_batch_filt_closure_matches_oracle_on_census_windows(name, p, bound):
    # all classes in one call, as the census makes it, then the classes with
    # random masks that are closed under neither quotients nor submodules
    cat = _census_window(name, p, bound)
    classes = enumerate_torsion_classes(cat)
    assert filt_closure(cat, classes) == [oracles.filt_closure(cat, m) for m in classes]
    rng = random.Random(36)
    masks = []
    while len(masks) < 20:
        m = rng.getrandbits(len(cat))
        if fac_closure(cat, m) != m and sub_closure(cat, m) != m:
            masks.append(m)
    mixed = masks[:10] + list(classes) + masks[10:]
    assert filt_closure(cat, mixed) == [oracles.filt_closure(cat, m) for m in mixed]


def test_census_rejects_a_non_closed_class(a2, monkeypatch):
    # in A2, P1 is an extension of S1 by S2; the semisimple mask is closed
    # under quotients but not under extensions, and a random mask under none
    base = Catalogue(a2, (2, 2))
    s1 = base.find_index(simple_module(a2, 0))
    s2 = base.find_index(simple_module(a2, 1))
    p1 = base.find_index(projective_module(a2, 0))
    semisimple = fac_closure(base, (s1, s2))
    assert not (semisimple >> p1) & 1
    # the Fac re-check passes it, so only the filtration check can catch it
    assert fac_closure(base, semisimple) == semisimple
    rng = random.Random(36)
    while True:
        rough = rng.getrandbits(len(base))
        if oracles.filt_closure(base, rough) != rough and oracles.fac_closure(base, rough) != rough:
            break
    assert fac_closure(base, rough) != rough
    classes = enumerate_torsion_classes(base)
    for bad in (semisimple, rough):
        got = filt_closure(base, list(classes) + [bad] + list(classes))
        assert got == list(classes) + [oracles.filt_closure(base, bad)] + list(classes)
        assert got[len(classes)] != bad
    for bad in (semisimple, rough):
        cat = Catalogue(a2, (2, 2))
        original = torsion.left_perp
        calls = []

        def tampered(cat, gens):
            calls.append(gens)
            return bad if len(calls) == 1 else original(cat, gens)

        with monkeypatch.context() as m:
            m.setattr(torsion, "left_perp", tampered)
            with pytest.raises(WindowError, match="non-closed class"):
                enumerate_torsion_classes(cat)


@pytest.mark.parametrize("name,p,bound", CENSUS_WINDOWS, ids=_census_id)
def test_cone_of_subcat_matches_oracle_on_census_windows(name, p, bound):
    cat = _census_window(name, p, bound)
    for tmask in enumerate_torsion_classes(cat):
        for mask in (tmask, right_perp(cat, tmask)):
            assert cone_of_subcat(cat, mask) == oracles.class_cone(cat, mask), mask


CLOSURES_AND_PERPS = ("fac_closure", "sub_closure", "left_perp", "right_perp")


def _explicit_generators(cat):
    """Modules that need not lie in the window: the sums of all projectives
    and of all injectives, a sum of both past the bound, and the H^0 and
    twisted kernel of each vertex of the walk to depth 3 and of each of its
    summands."""
    A = cat.algebra
    vertices = range(A.n)
    mods = [projective_module(A, *vertices), injective_module(A, *vertices)]
    past = direct_sum(*mods)
    while cat.in_window(past.dims):
        past = direct_sum(past, mods[0])
    mods.append(past)
    for vert in enumerate_silting(A, 3)["vertices"]:
        for parts in [vert["summands"]] + [[X] for X in vert["summands"]]:
            mods.extend(cohomology(direct_sum_complex(parts, A)))
    return list(dict.fromkeys(mods))


@pytest.mark.parametrize("name,p,bound", CENSUS_WINDOWS, ids=_census_id)
def test_explicit_and_mixed_generators_match_oracle_on_census_windows(name, p, bound, monkeypatch):
    # explicit modules read the same Hom-support rows and span tables as
    # items; lists mixing indices and modules take both at once
    _share_oracle_hom_spaces(monkeypatch)
    cat = _census_window(name, p, bound)
    mods = _explicit_generators(cat)
    rng = random.Random(37)
    lists = [[M] for M in mods] + [mods]
    lists += [[rng.randrange(len(cat)), M, rng.randrange(len(cat))] for M in mods]
    lists.append(list(indices_of(rng.getrandbits(len(cat)))) + mods[:2])
    for gens in lists:
        for kind in CLOSURES_AND_PERPS:
            got = getattr(torsion, kind)(cat, gens)
            assert got == getattr(oracles, kind)(cat, gens), (kind, gens)


def test_closures_and_perps_of_masks_compute_no_signature(kronecker, monkeypatch):
    # once the summand table is built, a mask's summands are read from it
    cat = Catalogue(kronecker, (2, 2))
    classes = enumerate_torsion_classes(cat)
    calls = []
    original = Catalogue.signature

    def counted(self, idx):
        calls.append(idx)
        return original(self, idx)

    monkeypatch.setattr(Catalogue, "signature", counted)
    rng = random.Random(37)
    masks = list(classes) + [rng.getrandbits(len(cat)) for _ in range(20)]
    for m in masks:
        for kind in CLOSURES_AND_PERPS:
            getattr(torsion, kind)(cat, m)
    assert calls == []


# (bundled name, bound)
CLOSURE_WINDOWS = (("a2", (2, 2)), ("kronecker", (2, 3)), ("loop", (3,)), ("pi_a2", (1, 1)))


@pytest.fixture(scope="module", params=CLOSURE_WINDOWS, ids=lambda w: "%s-%s" % w)
def closure_cat(request):
    name, bound = request.param
    return Catalogue(bundled(name), bound)


@pytest.fixture(scope="module", params=CENSUS_WINDOWS, ids=lambda w: _census_id(w[0]) + "-%s-%s" % w[1:])
def census_cat(request):
    return _census_window(*request.param)


def _closure_and_perp_laws(cat, data):
    """Closures are extensive, idempotent and monotone, and perps antitone,
    with perp . perp . perp = perp, on two random masks m <= bigger."""
    full = (1 << len(cat)) - 1
    m = data.draw(st.integers(0, full), label="m")
    bigger = m | data.draw(st.integers(0, full), label="extra")

    def filt(cat, m):
        return filt_closure(cat, [m])[0]

    for close in (fac_closure, sub_closure, filt, t_of):
        c = close(cat, m)
        assert m & ~c == 0, close.__name__
        assert close(cat, c) == c, close.__name__
        assert c & ~close(cat, bigger) == 0, close.__name__
    for perp, other in ((left_perp, right_perp), (right_perp, left_perp)):
        q = perp(cat, m)
        assert perp(cat, bigger) & ~q == 0, perp.__name__
        assert perp(cat, other(cat, q)) == q, perp.__name__


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_closures_are_extensive_idempotent_and_monotone(closure_cat, data):
    _closure_and_perp_laws(closure_cat, data)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_closures_are_monotone_and_perps_antitone_on_census_windows(census_cat, data):
    _closure_and_perp_laws(census_cat, data)


def test_witnesses_ample_window(a2):
    cat = Catalogue(a2, (2, 2))
    assert len(enumerate_torsion_classes(cat)) == 5
    for T in enumerate_torsion_classes(cat):
        wit = witnesses(cat, T)
        assert wit["ff"] and wit["bicompact"]


def test_window_stability(a2, kronecker, loop, cat_a2, cat_kron, cat_loop):
    for cat, big, stable, count_big in (
        (cat_a2, Catalogue(a2, (2, 2)), True, 5),
        (cat_kron, Catalogue(kronecker, (2, 2)), False, 21),
        (cat_loop, Catalogue(loop, (3,)), True, 2),
    ):
        r = window_stable(cat, enumerate_torsion_classes(cat), big)
        assert r == {"stable": stable, "count_big": count_big}


def test_window(a2, kronecker, cat_a2):
    cat = Catalogue(a2, (1, 1))
    assert enumerate_torsion_classes(cat) == enumerate_torsion_classes(cat_a2)
    assert enumerate_torsion_classes(cat) is enumerate_torsion_classes(cat)
    assert above(cat).bound == (2, 2)
    assert certificate(cat) == {"stable": True, "count_big": 5}
    assert ample(cat)
    full = mask_of(range(len(cat)))
    wit = witnesses(cat, full)
    assert witnesses(cat, full) is wit
    # the Fac witness of the full class, P1+S2, leaves the (1,1) window;
    # S1+S2 generates it as a torsion class and 0 cogenerates it
    assert wit["fac"] is None and not wit["ff"]
    assert wit["bicompact"]
    assert cat.dims_of(wit["compact"]) == (1, 1)
    assert not cat.is_indec(wit["compact"])
    assert wit["cocompact"] == cat.zero_index()
    assert not ample(Catalogue(kronecker, (1, 1)))


def _irreducible_counts(p, d):
    """The numbers of monic irreducible polynomials over F_p of degrees 1 to
    d, from Gauss's p^k = sum over e | k of e * (the number of degree e)."""
    out = {}
    for k in range(1, d + 1):
        out[k] = (p**k - sum(e * n for e, n in out.items() if k % e == 0)) // k
    return list(out.values())


def test_kronecker_census_closed_forms():
    """Bricks and torsion classes of the Kronecker algebra in the window (d, d).

    Over F_p the indecomposables of the window are d preprojectives P_n, of
    dimension vector (n, n+1), d preinjectives I_n, of (n+1, n), for
    0 <= n < d, and the regular modules of the homogeneous tubes, one per
    closed point of P^1 over F_p, whose quasi-simple has dimension vector
    (k, k) at a point of degree k (Ringel, LNM 1099, 3.2).  The points are
    the point at infinity and one per monic irreducible polynomial, of its
    degree: N_1 = p + 1, and N_k for k >= 2 is Gauss's count of monic
    irreducible polynomials of degree k.

    The bricks are the preprojectives, the preinjectives and the
    quasi-simples: 2d + sum_{k <= d} N_k.  A torsion class that holds a
    preprojective is add P_0 (P_0 is simple projective) or holds P_m for
    every m >= n with every regular and preinjective module, d classes for
    n < d.  One that holds none is add(I_0, ..., I_{n-1}), d classes for
    n < d, or holds every preinjective and the regular modules of a set of
    tubes; the window tells apart the 2^(sum_{k <= d} N_k) sets of tubes of
    degree at most d.  That is 2^(sum N_k) + 2d + 1 classes.  The window
    (d, d+1) also holds P_d, which adds one class.
    """
    for p, d in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)):
        cat = Catalogue(bundled("kronecker", p), (d, d))
        points = 1 + sum(_irreducible_counts(p, d))
        assert len(cat.bricks()) == 2 * d + points, (p, d)
        assert len(enumerate_torsion_classes(cat)) == 2**points + 2 * d + 1, (p, d)
    cat = Catalogue(bundled("kronecker", 2), (2, 3))
    assert len(enumerate_torsion_classes(cat)) == 2**4 + 2 * 2 + 1 + 1


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


# preprojective algebras of type A_n: torsion classes = two-term silting
# complexes = (n+1)! (Mizuno, Math. Z. 277 (2014)), and 2^(n+1) - n - 2
# bricks (Iyama-Reading-Reiten-Thomas, Compositio 154 (2018)); every brick
# has dimension at most 1 at each vertex
PI_A4 = """
field p=2
vertices 1 2 3 4
arrow a: 1 -> 2
arrow b: 2 -> 1
arrow c: 2 -> 3
arrow d: 3 -> 2
arrow e: 3 -> 4
arrow f: 4 -> 3
relation a.b
relation b.a - c.d
relation d.c - e.f
relation f.e
"""


@pytest.mark.parametrize(
    "name,p,n", [("pi_a2", 2, 2), ("pi_a2", 3, 2), ("pi_a3", 2, 3), ("pi_a3", 3, 3), ("pi_a4", 2, 4)]
)
def test_preprojective_closed_forms(name, p, n):
    A = load_algebra(PI_A4) if name == "pi_a4" else bundled(name, p)
    cat = Catalogue(A, (1,) * n)
    graph = enumerate_silting(A, 12)
    assert graph["complete"]
    assert len(enumerate_torsion_classes(cat)) == len(graph["vertices"]) == math.factorial(n + 1)
    assert len(cat.bricks()) == 2 ** (n + 1) - n - 2


def test_quadruple_a2(cat_a2, idx_a2):
    q = quadruple(cat_a2, (1, -1))
    assert set(indices_of(q.T)) == {idx_a2["Z"], idx_a2["S1"]}
    assert set(indices_of(q.Tbar)) == {idx_a2["Z"], idx_a2["S1"], idx_a2["P1"]}
    assert set(indices_of(q.F)) == {idx_a2["Z"], idx_a2["S2"]}
    assert set(indices_of(q.Fbar)) == {idx_a2["Z"], idx_a2["S2"], idx_a2["P1"]}


def test_quadruple_kronecker_strict_vs_weak(cat_kron):
    q = quadruple(cat_kron, (1, -1))
    # the three one-parameter bricks are weakly but not strictly positive
    assert q.T != q.Tbar
    bricks = [i for i in cat_kron.bricks() if cat_kron.dims_of(i) == (1, 1)]
    for b in bricks:
        assert not (q.T >> b) & 1
        assert (q.Tbar >> b) & 1


def test_weight_entries_must_be_ints_or_fractions(cat_a2):
    # a float has no exact sign on a wall; the error names the entry
    for bad in (0.5, 1.0, "1", decimal.Decimal("0.5"), None):
        with pytest.raises(AlgebraError, match=re.escape(repr(bad))):
            quadruple(cat_a2, (bad, 1))
        with pytest.raises(AlgebraError, match=re.escape(repr(bad))):
            classes_in(cat_a2, (1, bad), 0, 0)
    assert quadruple(cat_a2, (Fraction(1, 2), -1)) == quadruple(cat_a2, (1, -2))


def test_tf_equivalence_and_cw(cat_a2):
    one = Fraction(1)
    # scaling never changes the four classes
    assert quadruple(cat_a2, (one, -one)) == quadruple(cat_a2, (2 * one, -2 * one))
    # same chamber interior
    assert quadruple(cat_a2, (one, -2 * one)) == quadruple(cat_a2, (2 * one, -3 * one))
    # wall point vs chamber interior
    assert quadruple(cat_a2, (one, -one)) != quadruple(cat_a2, (one, -2 * one))
    assert quadruple(cat_a2, (one, -one)) != quadruple(cat_a2, (one, one))
    # monotone in the coordinatewise order: (0, -1) < (1, 1)
    low, high = quadruple(cat_a2, (0, -one)), quadruple(cat_a2, (one, one))
    assert low.T & ~high.T == 0 and high.F & ~low.F == 0


@pytest.mark.parametrize(
    "name,bound", [("a2", (2, 2)), ("kronecker", (2, 2)), ("loop", (2,)), ("kxk", (1, 1))]
)
def test_classes_in_matches_quadruple(name, bound):
    # classes_in tests the indecomposable summands of the members only; the
    # strict classes are closed under sums and summands, so that holds for
    # any pair of masks, not only for the numdis classes and their perps
    cat = Catalogue(bundled(name), bound)
    n = cat.algebra.n
    rng = random.Random(16)
    pairs = [(t, right_perp(cat, t)) for t in enumerate_torsion_classes(cat)]
    pairs += [(1 << i, 0) for i in range(len(cat))] + [(0, 1 << i) for i in range(len(cat))]
    pairs += [(rng.getrandbits(len(cat)), rng.getrandbits(len(cat))) for _ in range(10)]
    verdicts = set()
    for tmask, fmask in pairs:
        thetas = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(10)]
        thetas += [_random_rational_theta(rng, n) for _ in range(10)]
        separator = separating_functional(cone_of_subcat(cat, tmask), cone_of_subcat(cat, fmask))
        if separator is not None:
            thetas += [separator, tuple(Fraction(x, 3) for x in separator)]
        for theta in thetas:
            quad = quadruple(cat, theta)
            want = (tmask & ~quad.T) == 0 and (fmask & ~quad.F) == 0
            assert classes_in(cat, theta, tmask, fmask) == want, (tmask, theta)
            verdicts.add(want)
    assert verdicts == {True, False}


def _random_rational_theta(rng, n):
    return tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))


def _wall_thetas(rng, box, n, count):
    """Weights on walls: theta = r |v|^2 - v <r, v> pairs to 0 with the box
    vector v, for a random integer r, some of them divided by 3."""
    out = []
    for _ in range(count):
        v = rng.choice(box)
        r = [rng.randint(-4, 4) for _ in range(n)]
        vv, rv = sum(x * x for x in v), sum(a * b for a, b in zip(r, v))
        theta = tuple(a * vv - x * rv for a, x in zip(r, v))
        out.append(theta if rng.random() < 0.5 else tuple(Fraction(t, 3) for t in theta))
    return out


@pytest.mark.parametrize(
    "name,p,bound",
    [
        pytest.param("a2", None, (2, 2), id="a2-bound0"),
        pytest.param("kronecker", None, (2, 2), id="kronecker-bound1"),
        pytest.param("loop", None, (3,), id="loop-bound2"),
        pytest.param("kronecker", 3, (2, 2), id="kronecker-p3-(2, 2)"),
        pytest.param("pi_a3", None, (1, 1, 1), id="pi_a3-(1, 1, 1)"),
    ],
)
def test_quadruple_matches_rational_oracle(name, p, bound, monkeypatch):
    # quadruple reads the four masks from a table keyed by the weight's sign
    # vector over the box of dimension vectors; walls, positive multiples and
    # Fractions must find the masks the rational pairing gives
    cat = Catalogue(bundled(name, p), bound)
    n = cat.algebra.n
    rng = random.Random(8)
    box = [v for v in itertools.product(*(range(b + 1) for b in bound)) if any(v)]
    thetas = [(0,) * n, (Fraction(0),) * n, (1, -1, 1)[:n]]
    thetas += [(Fraction(1, 3), Fraction(-1, 2), Fraction(2, 5))[:n]]
    thetas += [_random_rational_theta(rng, n) for _ in range(150)]
    thetas += [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(50)]
    thetas += _wall_thetas(rng, box, n, 50)
    thetas += [tuple(k * t for t in theta) for theta in thetas[4:34] for k in (2, Fraction(5, 7))]
    want = []
    for theta in thetas:
        try:
            want.append(oracles.quadruple(cat, theta))
        except ValueError as exc:
            want.append(str(exc))
    quadruple(cat, thetas[0])

    def no_fraction(cls, *args, **kwargs):
        raise AssertionError("Fraction constructed inside quadruple")

    # every operand exists before the patch, so only quadruple can construct one
    monkeypatch.setattr(fractions.Fraction, "__new__", no_fraction)
    for theta, expected in zip(thetas, want):
        try:
            got = quadruple(cat, theta)
        except ValueError as exc:
            got = str(exc)
        assert got == expected, theta
    with pytest.raises(AlgebraError):
        quadruple(cat, (1,) * (n + 1))
