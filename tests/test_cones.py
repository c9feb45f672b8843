import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import bundled
from oracles import cone_contains, simple_module, torsion_pair_of
from torslab import cones
from torslab.catalogue import Catalogue
from torslab.cones import (
    ConeError,
    RationalCone,
    cone_of_subcat,
    dd_intersection_nontrivial,
    dd_rays,
    difference_cone,
    dual_description,
    intersect_trivially,
    is_strongly_convex,
    numerically_disjoint,
    primitive_vector,
    separating_functional,
    solve_program,
)
from torslab.torsion import (
    enumerate_torsion_classes,
    fac_closure,
    mask_of,
    right_perp,
    t_of,
)


def C(*gens):
    dim = len(gens[0]) if gens else 2
    return RationalCone.from_vectors(dim, gens)


def test_primitive_vector():
    assert primitive_vector((Fraction(2, 3), Fraction(-4, 3))) == (1, -2)
    assert primitive_vector((0, 0)) == (0, 0)
    assert primitive_vector((-2, -4)) == (-1, -2)


def test_cone_normalization():
    cone = RationalCone.from_vectors(2, [(1, 1), (2, 2), (0, 0)])
    assert cone.generators == ((1, 1),)
    cone = RationalCone.from_vectors(2, [(0, 2), (3, 0), (0, 0), (1, 0), (0, 1)])
    assert cone.generators == ((0, 1), (1, 0))
    assert RationalCone.from_vectors(2, []).is_zero()
    with pytest.raises(ConeError):
        RationalCone.from_vectors(2, [(1, 0, 0)])


def test_solver_basic():
    # x + y = 2, x - y = 0, minimize x -> x = y = 1
    res = solve_program([[1, 1], [1, -1]], [2, 0], [1, 0])
    assert res["status"] == "optimal" and res["x"] == (1, 1)
    # infeasible with a checkable Farkas vector
    res = solve_program([[1, 1], [1, 1]], [1, 2])
    assert res["status"] == "infeasible"
    y = res["farkas"]
    assert y[0] + y[1] <= 0 and y[0] + 2 * y[1] > 0


def _farkas_holds(rows, rhs, y):
    """y.A_j <= 0 on every column and y.b > 0: no x >= 0 solves A x = b."""
    ncols = len(rows[0]) if rows else 0
    cols_ok = all(sum(yi * row[j] for yi, row in zip(y, rows)) <= 0 for j in range(ncols))
    return cols_ok and sum(yi * b for yi, b in zip(y, rhs)) > 0


def _entry(rng, rational):
    if rng.random() < 0.35:
        return 0
    if rational:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 5))
    return rng.randint(-3, 3)


def _random_program(rng):
    """Small equality-form programs: degenerate (zero rhs), redundant rows
    (a sum or multiple of other rows), rational entries, often infeasible
    or unbounded once a cost is given."""
    m, n = rng.randint(1, 4), rng.randint(1, 6)
    rational = rng.random() < 0.3
    rows = [[_entry(rng, rational) for _ in range(n)] for _ in range(m)]
    rhs = [_entry(rng, rational) for _ in range(m)]
    if rng.random() < 0.3:
        i, k = rng.randrange(m), rng.randrange(m)
        f = rng.choice((1, 2, -1, Fraction(1, 2)))
        rows.append([a + f * b for a, b in zip(rows[i], rows[k])])
        rhs.append(rhs[i] + f * rhs[k])
    cost = None
    if rng.random() < 0.5:
        cost = [_entry(rng, rational) for _ in range(n)]
    return rows, rhs, cost


def _outcome(solver, rows, rhs, cost):
    try:
        return solver(rows, rhs, cost)
    except ConeError as exc:
        return ("ConeError", str(exc))


def test_solve_program_matches_rational_oracle():
    rng = random.Random(20261018)
    kinds = set()
    for _ in range(3000):
        rows, rhs, cost = _random_program(rng)
        got = _outcome(solve_program, rows, rhs, cost)
        assert got == _outcome(oracles.solve_program, rows, rhs, cost), (rows, rhs, cost)
        if isinstance(got, tuple):
            kinds.add("unbounded")
            continue
        kinds.add(got["status"])
        if got["status"] == "infeasible":
            assert _farkas_holds(rows, rhs, got["farkas"]), (rows, rhs)
        else:
            x = got["x"]
            assert all(v >= 0 for v in x)
            assert all(sum(a * v for a, v in zip(row, x)) == b for row, b in zip(rows, rhs))
    assert kinds == {"optimal", "infeasible", "unbounded"}


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def test_lexicographic_program_matches_pinned_oracle():
    # feasible programs boxed by x_j + s_j = 2, with 2 or 3 objectives of small
    # entries, so optimal faces are often wider than a vertex
    rng = random.Random(20261019)
    wider = 0
    for _ in range(400):
        m, n = rng.randint(1, 3), rng.randint(2, 5)
        rational = rng.random() < 0.3
        point = [rng.randint(0, 2) for _ in range(n)]
        point += [2 - v for v in point]
        rows = [[_entry(rng, rational) for _ in range(n)] + [0] * n for _ in range(m)]
        rows += [[int(k == j or k == n + j) for k in range(2 * n)] for j in range(n)]
        rhs = [_dot(row, point) for row in rows]

        def objective():
            if rng.random() < 0.8:
                return [rng.choice((-1, 0, 0, 1)) for _ in range(2 * n)]
            return [_entry(rng, rational) for _ in range(2 * n)]

        objectives = [objective() for _ in range(rng.randint(2, 3))]
        got = solve_program(rows, rhs, *objectives)
        assert got["status"] == "optimal"
        x = got["x"]
        assert all(v >= 0 for v in x)
        assert all(_dot(row, x) == b for row, b in zip(rows, rhs))
        pinned_rows, pinned_rhs = list(rows), list(rhs)
        for k, obj in enumerate(objectives):
            best = oracles.solve_program(pinned_rows, pinned_rhs, obj)["value"]
            assert _dot(obj, x) == best, (rows, rhs, objectives, k)
            pinned_rows.append(obj)
            pinned_rhs.append(best)
        assert got["value"] == _dot(objectives[0], x)
        single = solve_program(rows, rhs, objectives[0])["x"]
        wider += _dot(objectives[1], single) != _dot(objectives[1], x)
    # the later objectives moved the answer on many programs
    assert wider > 40


def test_dd_rays_matches_rational_oracle():
    rng = random.Random(20261019)
    for _ in range(600):
        dim = rng.randint(1, 5)
        rational = rng.random() < 0.2

        def vec():
            return tuple(_entry(rng, rational) for _ in range(dim))

        ineqs = [vec() for _ in range(rng.randint(0, 5))]
        if ineqs and rng.random() < 0.3:
            # a repeated or positively scaled inequality
            f = rng.choice((1, 2, 3, Fraction(1, 2)))
            ineqs.insert(rng.randrange(len(ineqs) + 1), tuple(f * x for x in rng.choice(ineqs)))
        eqs = [vec() for _ in range(rng.randint(0, 2))]
        assert dd_rays(ineqs, eqs, dim) == oracles.dd_rays(ineqs, eqs, dim), (ineqs, eqs)


def test_intersect_trivially():
    ok, cert = intersect_trivially(C((1, 0)), C((0, 1)))
    assert ok and cert[0] == "farkas"
    ok, cert = intersect_trivially(C((1, 1)), C((2, 2)))
    assert not ok and cert == ("common", (1, 1))
    ok, _ = intersect_trivially(C((1, 1), (0, 1)), C((1, 0)))
    assert ok
    # a cone with a line still separates from a ray off the line
    ok, _ = intersect_trivially(C((1, 0), (-1, 0)), C((0, 1)))
    assert ok
    ok, cert = intersect_trivially(C((1, 0), (-1, 0)), C((1, 1), (1, -1)))
    assert not ok
    assert cert[0] == "common" and any(cert[1])


def test_strong_convexity():
    assert is_strongly_convex(C((1, 0), (0, 1)))
    assert not is_strongly_convex(C((1, 0), (-1, 0)))
    assert is_strongly_convex(RationalCone.from_vectors(2, []))
    # positive dependence without an antipodal generator pair
    assert not is_strongly_convex(C((1, 1), (-1, 0), (0, -1)))


def test_separating_functional():
    # pinned regression value; any theta with signs (+,+,-) is contractually valid
    theta = separating_functional(C((1, 1), (0, 1)), C((1, 0)))
    assert theta == (-1, 3)
    assert separating_functional(C((1, 1), (0, 1)), C((1, 0))) == theta
    assert separating_functional(C((1, 0)), C((0, 1))) == (1, -1)
    assert separating_functional(C((1, 0)), C((1, 0))) is None
    assert separating_functional(C((1, 0), (0, 1)), C((1, 1))) is None


def test_separator_needs_no_wide_program_without_a_separator(monkeypatch):
    def refuse(*args):
        raise AssertionError("max-min program built for inseparable cones")

    monkeypatch.setattr(cones, "_separator_program", refuse)
    # the cones share the class vector (1, 1)
    assert separating_functional(C((1, 1), (0, 1)), C((1, 1))) is None
    assert separating_functional(C((1, 0), (0, 1)), C((1, 1), (2, 1))) is None


def _separator_outcome(separator, ct, cf):
    try:
        return separator(ct, cf)
    except ConeError as exc:
        return ("ConeError", str(exc))


def test_separating_functional_matches_pinned_oracle_on_random_cones():
    rng = random.Random(20261020)
    kinds = set()
    for _ in range(300):
        dims = [rng.randint(2, 4)] * 2
        if rng.random() < 0.03:
            dims[1] = dims[0] % 4 + 1
        ct, cf = (
            RationalCone.from_vectors(
                d, [[rng.randint(-3, 3) for _ in range(d)] for _ in range(rng.randint(0, 5))]
            )
            for d in dims
        )
        got = _separator_outcome(separating_functional, ct, cf)
        assert got == _separator_outcome(oracles.separating_functional_pinned, ct, cf), (ct, cf)
        kinds.add("none" if got is None else got[0] if isinstance(got[0], str) else "theta")
    assert kinds == {"none", "theta", "ConeError"}


@pytest.mark.parametrize(
    "name, p, bound",
    (
        ("kronecker", None, (2, 3)),
        ("kronecker", 3, (2, 2)),
        ("a2", None, (3, 3)),
        ("pi_a3", None, (1, 2, 1)),
    ),
)
def test_separating_functional_matches_pinned_oracle_on_class_cones(name, p, bound):
    cat = Catalogue(bundled(name, p), bound)
    pairs = {
        (cone_of_subcat(cat, t), cone_of_subcat(cat, right_perp(cat, t)))
        for t in enumerate_torsion_classes(cat)
    }
    for ct, cf in pairs:
        assert separating_functional(ct, cf) == oracles.separating_functional_pinned(ct, cf)


def test_cone_contains():
    cone = C((1, 0), (0, 1))
    assert cone_contains(cone, (1, 1))
    assert cone_contains(cone, (0, 0))
    assert not cone_contains(cone, (-1, 0))
    zero = RationalCone.from_vectors(2, [])
    assert cone_contains(zero, (0, 0))
    assert not cone_contains(zero, (1, 0))


def test_dual_description():
    lin, rays = dual_description(C((1, 0), (0, 1)))
    assert lin == () and rays == ((0, 1), (1, 0))
    lin, rays = dual_description(C((2, 1), (1, 2)))
    assert lin == () and rays == ((-1, 2), (2, -1))
    lin, rays = dual_description(C((1, 1)))
    assert lin == ((1, -1),)
    assert len(rays) == 1 and rays[0][0] + rays[0][1] > 0


def test_dd_agrees_with_lp():
    pairs = [
        (C((1, 0)), C((0, 1))),
        (C((1, 1)), C((2, 2))),
        (C((1, 1), (0, 1)), C((1, 0))),
        (C((1, 0), (-1, 0)), C((0, 1))),
        (C((1, 0), (-1, 0)), C((1, 1), (1, -1))),
        (C((1, 2), (2, 1)), C((3, 1))),
        (C((1, 0, 0), (0, 1, 0)), C((0, 0, 1))),
        (C((1, 0, 0), (0, 1, 0), (0, 0, 1)), C((1, 1, 1))),
    ]
    for c1, c2 in pairs:
        lp_trivial = intersect_trivially(c1, c2)[0]
        hit, witness = dd_intersection_nontrivial(c1, c2)
        assert lp_trivial == (not hit)
        if hit:
            assert any(witness)
            assert cone_contains(c1, witness) and cone_contains(c2, witness)


@pytest.fixture(scope="module")
def cat_a2(a2):
    return Catalogue(a2, (1, 1))


@pytest.fixture(scope="module")
def cat_kron(kronecker):
    return Catalogue(kronecker, (1, 1))


def test_cone_of_subcat(a2, cat_a2):
    from torslab.algebra import projective_module

    s1 = cat_a2.find_index(simple_module(a2, 0))
    p1 = cat_a2.find_index(projective_module(a2, 0))
    cone = cone_of_subcat(cat_a2, mask_of((cat_a2.zero_index(), s1)))
    assert cone.generators == ((1, 0),)
    cone = cone_of_subcat(cat_a2, fac_closure(cat_a2, (p1,)))
    assert cone.generators == ((1, 0), (1, 1))
    assert cone_of_subcat(cat_a2, mask_of((cat_a2.zero_index(),))).is_zero()


def test_numerically_disjoint(a2, cat_a2):
    s1 = cat_a2.find_index(simple_module(a2, 0))
    s2 = cat_a2.find_index(simple_module(a2, 1))
    ok, cert = numerically_disjoint(
        cone_of_subcat(cat_a2, t_of(cat_a2, (s1,))),
        cone_of_subcat(cat_a2, oracles.f_of(cat_a2, (s2,))),
    )
    assert ok and cert[0] == "separator" and cert[1] == (1, -1)
    full = cone_of_subcat(cat_a2, mask_of(range(len(cat_a2))))
    ok, cert = numerically_disjoint(full, full)
    assert not ok and cert[0] == "common"
    assert cone_contains(full, cert[1])
    zero_only = cone_of_subcat(cat_a2, mask_of((cat_a2.zero_index(),)))
    ok, _ = numerically_disjoint(zero_only, full)
    assert ok


def _four_way(cat, tmask, fmask):
    return _four_way_cones(cone_of_subcat(cat, tmask), cone_of_subcat(cat, fmask))


def _four_way_cones(ct, cf):
    lp = intersect_trivially(ct, cf)[0]
    dd = not dd_intersection_nontrivial(ct, cf)[0]
    sc = is_strongly_convex(difference_cone(ct, cf))
    sep = separating_functional(ct, cf) is not None
    return lp, dd, sc, sep


@st.composite
def _cone_pairs(draw):
    dim = draw(st.integers(2, 4))
    vecs = st.lists(st.tuples(*[st.integers(-3, 3)] * dim), min_size=1, max_size=4)
    return RationalCone.from_vectors(dim, draw(vecs)), RationalCone.from_vectors(dim, draw(vecs))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_cone_pairs())
def test_four_legs_agree_on_random_cones(pair):
    ct, cf = pair
    lp, dd, sc, sep = _four_way_cones(ct, cf)
    # meeting only at 0 is one question, a pointed difference cone another
    assert lp == dd
    assert sc == sep
    # they coincide when both cones are pointed, as class cones are
    if is_strongly_convex(ct) and is_strongly_convex(cf):
        assert lp == sc
    theta = separating_functional(ct, cf)
    if theta is not None:
        assert all(sum(a * b for a, b in zip(theta, g)) > 0 for g in ct.generators)
        assert all(sum(a * b for a, b in zip(theta, h)) < 0 for h in cf.generators)


def test_four_way_equivalence(cat_a2, cat_kron):
    seen = set()
    for cat in (cat_a2, cat_kron):
        for tmask in enumerate_torsion_classes(cat):
            tmask, fmask = torsion_pair_of(cat, tmask)
            legs = _four_way(cat, tmask, fmask)
            assert len(set(legs)) == 1, (tmask, fmask, legs)
            seen.add(legs[0])
    # both outcomes occur across the sample
    assert seen == {True, False}


def _nonneg_int_combo(target, vecs):
    vecs = [v for v in vecs if any(v)]

    def rec(t, i):
        if not any(t):
            return True
        if i == len(vecs):
            return False
        v = vecs[i]
        kmax = min(tc // vc for tc, vc in zip(t, v) if vc)
        for k in range(kmax, -1, -1):
            nxt = tuple(tc - k * vc for tc, vc in zip(t, v))
            if all(x >= 0 for x in nxt) and rec(nxt, i + 1):
                return True
        return False

    return rec(tuple(target), 0)


def test_compact_classes_polyhedral_over_quotients(a2, kronecker):
    # every generator of the cone of t_of({M}) decomposes as a nonnegative
    # integer combination of quotient dimension vectors of M
    from torslab.algebra import projective_module

    cat = Catalogue(a2, (2, 2))
    p1 = cat.find_index(projective_module(a2, 0))
    cases = [(cat, p1)]
    ck = Catalogue(kronecker, (1, 1))
    for idx in range(len(ck)):
        if ck.dims_of(idx) == (1, 1) and ck.is_brick(idx):
            cases.append((ck, idx))
    for cat_i, m in cases:
        cone = cone_of_subcat(cat_i, t_of(cat_i, (m,)))
        quots = [v for v in cat_i.quotient_dimvectors(m) if any(v)]
        for g in cone.generators:
            assert _nonneg_int_combo(g, quots), (m, g)
