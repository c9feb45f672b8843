import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from torslab import catalogue
from torslab.algebra import (
    Representation,
    direct_sum,
    hom_space,
    load_algebra,
    projective_module,
    quotient_module,
    submodule_rep,
)
from torslab.catalogue import BudgetError, Catalogue, WindowError
from torslab.linalg import inverse, mat_mul, rank
from torslab.torsion import enumerate_torsion_classes

import oracles
from conftest import SQUARE, bundled
from oracles import is_isomorphic_rep, simple_module


def raw_class_count(A, bound):
    """Enumerate every matrix tuple and dedup by pairwise isomorphism."""
    reps = []
    for dims in itertools.product(*(range(b + 1) for b in bound)):
        cells = [(a, dims[a.target], dims[a.source]) for a in A.arrows]
        spaces = [
            list(itertools.product(range(A.p), repeat=dt * ds)) for _, dt, ds in cells
        ]
        for choice in itertools.product(*spaces):
            mats = []
            for (a, dt, ds), flat in zip(cells, choice):
                mats.append(tuple(tuple(flat[r * ds : (r + 1) * ds]) for r in range(dt)))
            try:
                rep = Representation(A, dims, mats, check=True)
            except Exception:
                continue
            if not any(is_isomorphic_rep(rep, other) for other in reps if other.dims == dims):
                reps.append(rep)
    return len(reps)


@pytest.fixture(scope="module")
def cat_a2(a2):
    return Catalogue(a2, (1, 1))


@pytest.fixture(scope="module")
def cat_a2_big(a2):
    return Catalogue(a2, (2, 2))


@pytest.fixture(scope="module")
def cat_kron(kronecker):
    return Catalogue(kronecker, (1, 1))


@pytest.fixture(scope="module")
def cat_kron_big(kronecker):
    return Catalogue(kronecker, (2, 2))


@pytest.fixture(scope="module")
def cat_loop(loop):
    return Catalogue(loop, (2,))


def test_counts(cat_a2, cat_a2_big, cat_kron, cat_kron_big, cat_loop, kxk):
    assert len(cat_a2) == 5
    assert len(cat_a2_big) == 14
    assert len(cat_kron) == 7
    assert len(cat_kron_big) == 35
    assert len(cat_loop) == 4
    assert len(Catalogue(kxk, (1, 1))) == 4


def test_exhaustiveness_against_raw_sweep(a2, kronecker, loop, cat_a2, cat_kron, cat_loop):
    assert raw_class_count(a2, (1, 1)) == len(cat_a2)
    assert raw_class_count(kronecker, (1, 1)) == len(cat_kron)
    assert raw_class_count(loop, (2,)) == len(cat_loop)
    assert raw_class_count(a2, (2, 2)) == 14


def test_zero_first_and_ordering(cat_kron):
    assert cat_kron.zero_index() == 0
    assert cat_kron.dims_of(0) == (0, 0)
    fps = cat_kron.fingerprints
    assert fps == tuple(sorted(fps))


def test_find_index_permutation_invariance(a2, cat_a2):
    S1 = simple_module(a2, 0)
    S2 = simple_module(a2, 1)
    i = cat_a2.find_index(direct_sum(S1, S2))
    j = cat_a2.find_index(direct_sum(S2, S1))
    assert i == j
    with pytest.raises(WindowError):
        cat_a2.find_index(direct_sum(S1, S1))


def test_find_index_after_base_change(kronecker, cat_kron_big):
    # B_F4 carried by a conjugated pair of matrices
    C = ((0, 1), (1, 1))  # companion matrix of x^2 + x + 1
    M = Representation(kronecker, (2, 2), (((1, 0), (0, 1)), C))
    g = ((1, 1), (0, 1))
    # conjugate both matrices by g on the target side only: g*M_a
    M2 = Representation(
        kronecker,
        (2, 2),
        (
            tuple(tuple(sum(g[r][k] * M.mats[0][k][c] for k in range(2)) % 2 for c in range(2)) for r in range(2)),
            tuple(tuple(sum(g[r][k] * M.mats[1][k][c] for k in range(2)) % 2 for c in range(2)) for r in range(2)),
        ),
    )
    assert cat_kron_big.find_index(M) == cat_kron_big.find_index(M2)


def base_change(rep, gs):
    """The representation g_t M_a g_s^-1 for invertible g_v at each vertex."""
    A = rep.algebra
    mats = []
    for a, m in zip(A.arrows, rep.mats):
        dt, ds = rep.dims[a.target], rep.dims[a.source]
        if dt and ds:
            m = mat_mul(mat_mul(gs[a.target], m, A.p, inner=dt), inverse(gs[a.source], A.p), A.p, inner=ds)
        mats.append(m)
    return Representation(A, rep.dims, mats, check=False)


def random_gl(rng, d, p):
    while True:
        g = tuple(tuple(rng.randrange(p) for _ in range(d)) for _ in range(d))
        if d == 0 or inverse(g, p) is not None:
            return g


def test_find_index_runs_no_isomorphism_test(a2, monkeypatch):
    cat = Catalogue(a2, (2, 2))
    M = direct_sum(projective_module(a2, 0), simple_module(a2, 1))
    want = [j for j in range(len(cat)) if is_isomorphic_rep(M, cat.rep(j))]

    def refuse(*args, **kwargs):
        raise AssertionError("find_index ran a hom sweep")

    # the isomorphism test is the oracle's: the catalogue has none to run
    monkeypatch.setattr(catalogue, "hom_space", refuse)
    assert [cat.find_index(M)] == want


@pytest.mark.parametrize("p", (2, 3))
def test_find_index_inverts_base_change(p):
    cat = Catalogue(bundled("kronecker", p=p), (2, 2))
    rng = random.Random(p)
    for j in range(len(cat)):
        M = cat.rep(j)
        gs = [random_gl(rng, d, p) for d in M.dims]
        assert cat.find_index(base_change(M, gs)) == j


def test_find_index_rejects_relation_violation(loop, cat_loop):
    # x.x = 1 on F_2^2, while the loop algebra asks x.x = 0
    M = Representation(loop, (2,), (((0, 1), (1, 0)),), check=False)
    with pytest.raises(WindowError):
        cat_loop.find_index(M)


_CATALOGUES = {}


@st.composite
def windowed_reps(draw):
    """(catalogue, rep, base-changed rep) on a random acyclic quiver with 2
    or 3 vertices and 1 to 3 arrows over F_2 or F_3, every dimension vector
    of the window holding at most 4096 codes."""
    p = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(2, 3))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    arrows = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3))
    bound = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    while p ** sum(bound[s] * bound[t] for s, t in arrows) > 4096:
        bound[bound.index(max(bound))] -= 1
    key = (p, n, tuple(arrows), tuple(bound))
    cat = _CATALOGUES.get(key)
    if cat is None:
        lines = ["field p=%d" % p, "vertices " + " ".join(str(v + 1) for v in range(n))]
        lines += ["arrow a%d: %d -> %d" % (k, s + 1, t + 1) for k, (s, t) in enumerate(arrows)]
        cat = _CATALOGUES[key] = Catalogue(load_algebra("\n".join(lines) + "\n"), bound)
    dims = tuple(draw(st.integers(0, b)) for b in bound)
    entries = st.integers(0, p - 1)
    mats = [
        [[draw(entries) for _ in range(dims[s])] for _ in range(dims[t])]
        for s, t in arrows
    ]
    rep = Representation(cat.algebra, dims, mats)
    gs = [
        draw(
            st.tuples(*[st.tuples(*[entries] * d)] * d).filter(
                lambda g: not g or inverse(g, p) is not None
            )
        )
        for d in dims
    ]
    return cat, rep, base_change(rep, gs)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(windowed_reps())
def test_find_index_is_an_isomorphism_invariant(case):
    cat, rep, moved = case
    idx = cat.find_index(rep)
    assert cat.find_index(moved) == idx
    assert is_isomorphic_rep(rep, cat.rep(idx))


def test_signatures(a2, cat_a2_big):
    P1 = projective_module(a2, 0)
    i = cat_a2_big.find_index(direct_sum(P1, P1))
    sig = cat_a2_big.signature(i)
    assert len(sig) == 2 and sig[0] == sig[1]
    assert cat_a2_big.is_indec(cat_a2_big.find_index(P1))
    assert not cat_a2_big.is_indec(i)


def test_bricks(cat_a2, cat_loop, cat_kron, cat_kron_big):
    assert len(cat_a2.bricks()) == 3
    assert len(cat_loop.bricks()) == 1
    assert len(cat_kron.bricks()) == 5
    # the eight bricks inside the (2,2) window, including the End = F_4 one
    assert len(cat_kron_big.bricks()) == 8
    indecs = [i for i in range(len(cat_kron_big)) if cat_kron_big.is_indec(i)]
    assert len(indecs) == 11


# (bundled name or quiver text, field, bound)
BRICK_WINDOWS = (
    ("kronecker", 5, (2, 2)),
    ("kronecker", 3, (2, 2)),
    ("kronecker", 7, (1, 2)),
    ("loop", None, (3,)),
    ("pi_a2", None, (2, 2)),
    ("pi_a3", None, (1, 1, 1)),
    ("a2", None, (3, 3)),
    (SQUARE, None, (1, 1, 1, 1)),
)


def test_transition_tables_match_matrix_products():
    # every generator of GL(dt) and GL(ds) on the dt x ds blocks, dims (1..3)^2
    # at p = 2, 3, 5: as the base change at the target (rows), at the source
    # (columns) and at both (a loop); at p = 5 the diagonal scalar is not its
    # own inverse.  The 5^9 codes of (3,3) at p = 5 are left out (seconds of
    # table building), and blocks of more than 729 codes are compared with the
    # matrix products on every 13th code; every table must be a permutation.
    for p in (2, 3, 5):
        for dt, ds in itertools.product((1, 2, 3), repeat=2):
            size = p ** (dt * ds)
            if size > 20_000:
                continue
            codes = range(size) if size <= 729 else range(0, size, 13)
            cases = [(g, None) for g in catalogue._gl_generators(dt, p)]
            cases += [(None, inverse(g, p)) for g in catalogue._gl_generators(ds, p)]
            if dt == ds:
                cases += [(g, inverse(g, p)) for g in catalogue._gl_generators(dt, p)]
            for g, h in cases:
                tab = catalogue._transition_table(p, dt, ds, g, h)
                assert sorted(tab) == list(range(size))
                want = oracles.transition_images(p, dt, ds, g, h, codes)
                assert [tab[c] for c in codes] == want, (p, dt, ds, g, h)


# (bundled name or SQUARE, field, bound): relation-free quivers at p = 2, 3
# and 5, a vertex with no arrow, and algebras with relations
SWEEP_WINDOWS = (
    ("kronecker", 2, (2, 3)),
    ("kronecker", 3, (2, 2)),
    ("kronecker", 5, (1, 2)),
    ("a2", 5, (2, 2)),
    ("kxk", 3, (2, 2)),
    ("loop", 2, (3,)),
    ("loop", 3, (3,)),
    ("pi_a2", 2, (2, 2)),
    ("pi_a3", 3, (1, 1, 1)),
    (SQUARE, 3, (1, 1, 1, 1)),
)


@pytest.mark.parametrize(
    "name, p, bound", SWEEP_WINDOWS, ids=lambda x: "square" if x == SQUARE else None
)
def test_orbit_sweep_matches_per_code_oracle(name, p, bound):
    A = load_algebra(name) if name == SQUARE else bundled(name, p)
    cat = Catalogue(A, bound)
    firsts = []
    for dims in catalogue._all_dims(bound):
        orbit, codes = oracles.sweep_orbits(A, dims)
        assert cat._orbit_of[dims] == orbit, dims
        firsts.extend((dims, c) for c in codes)
    assert cat.fingerprints == tuple(sorted(firsts))


def test_bricks_match_end_sweep_oracle():
    for name, p, bound in BRICK_WINDOWS:
        A = load_algebra(name) if name == SQUARE else bundled(name, p)
        cat = Catalogue(A, bound)
        want = tuple(i for i in range(len(cat)) if oracles.is_brick(cat, i))
        assert cat.bricks() == want, (name, p, bound)
        if (name, p) == ("kronecker", 5):
            # 20 bricks among 26 indecomposables; the (2,2) bricks of
            # irreducible quadratics have End = F_25
            assert len(want) == 20
            assert sum(cat.is_indec(i) for i in range(len(cat))) == 26
            assert any(cat.hom_dim(i, i) == 2 for i in want)


# (bundled name, field, bound): Kronecker F_5 has End = F_25 bricks; loop,
# Π(A2) and Π(A3) have relations, and kxk has no arrow
SIGNATURE_WINDOWS = (
    ("kronecker", 2, (3, 3)),
    ("kronecker", 3, (2, 2)),
    ("kronecker", 5, (2, 2)),
    ("a2", None, (3, 3)),
    ("pi_a3", 2, (1, 2, 1)),
    ("pi_a3", 3, (1, 1, 1)),
    ("loop", 2, (4,)),
    ("loop", 3, (3,)),
    ("kxk", None, (3, 3)),
    ("pi_a2", 3, (2, 2)),
)


def oracle_signature(cat, i):
    return tuple(sorted(cat.find_index(part) for part in oracles.decompose_rep(cat.rep(i))))


@pytest.mark.parametrize("name, p, bound", SIGNATURE_WINDOWS)
def test_signatures_match_explicit_decomposition_oracle(name, p, bound):
    cat = Catalogue(bundled(name, p), bound)
    for i in range(len(cat)):
        assert cat.signature(i) == oracle_signature(cat, i), i


def test_signature_splits_by_combinations_when_no_basis_element_does(monkeypatch):
    # each End basis is replaced by a random invertible recombination of it
    # (seeded by its dimension); on Kronecker F_3 at (2,2) that leaves five
    # decomposable items with no basis element of proper Fitting power, so
    # only the sweep over combinations splits them
    k3 = bundled("kronecker", p=3)
    plain = Catalogue(k3, (2, 2))
    want = [plain.signature(i) for i in range(len(plain))]

    def scrambled(M, N):
        basis = hom_space(M, N)
        if len(basis) < 2:
            return basis
        p = M.algebra.p
        rng = random.Random(len(basis))
        while True:
            T = [[rng.randrange(p) for _ in basis] for _ in basis]
            if inverse(T, p) is not None:
                return [catalogue._combine(basis, row, p) for row in T]

    def splits(phi, M):
        p, total = M.algebra.p, M.total_dim()
        for _ in range(total.bit_length()):
            phi = tuple(mat_mul(m, m, p, inner=len(m)) for m in phi)
        return 0 < sum(rank(m, p) for m in phi) < total

    monkeypatch.setattr(catalogue, "hom_space", scrambled)
    cat = Catalogue(k3, (2, 2))
    assert [cat.signature(i) for i in range(len(cat))] == want
    reps = [cat.rep(i) for i in range(len(cat))]
    basis_blind = [
        i
        for i, M in enumerate(reps)
        if len(want[i]) > 1 and not any(splits(e, M) for e in scrambled(M, M))
    ]
    assert len(basis_blind) == 5


def test_signature_refuses_one_item_past_the_sweep_cap():
    # Kronecker F_3 at (2,3): only the semisimple S1^2 + S2^3 (both maps
    # zero) has p^dim End = 3^13 > SWEEP_CAP; every other item splits as the
    # explicit decomposition does
    cat = Catalogue(bundled("kronecker", p=3), (2, 3))
    assert len(cat) == 82
    raised = []
    for i in range(len(cat)):
        try:
            sig = cat.signature(i)
        except BudgetError as err:
            raised.append((i, str(err)))
            continue
        assert sig == oracle_signature(cat, i), i
    assert raised == [(53, "endomorphism sweep too large: 3^13")]
    M = cat.rep(53)
    assert M.dims == (2, 3)
    assert all(not any(any(row) for row in m) for m in M.mats)


def test_is_brick_sweeps_no_endomorphisms(kronecker, monkeypatch):
    cat = Catalogue(kronecker, (2, 2))
    for i in range(len(cat)):
        cat.signature(i)

    def refuse(*args):
        raise AssertionError("is_brick swept an endomorphism space")

    monkeypatch.setattr(catalogue, "_combine", refuse)
    monkeypatch.setattr(catalogue, "inverse", refuse)
    monkeypatch.setattr(Catalogue, "hom_basis", refuse)
    assert len(cat.bricks()) == 8


def test_negative_bound_is_a_window_error(a2):
    with pytest.raises(WindowError):
        Catalogue(a2, (-1, 2))


def test_bound_of_wrong_length_is_a_window_error(a2):
    # malformed input, not a window too large for the budget
    for bound in ((2,), (2, 2, 2), ()):
        with pytest.raises(WindowError, match="bound length"):
            Catalogue(a2, bound)


def test_f4_brick_has_no_middle_submodule(cat_kron_big):
    f4 = None
    for i in cat_kron_big.bricks():
        if cat_kron_big.dims_of(i) == (2, 2):
            f4 = i
    assert f4 is not None
    assert cat_kron_big.submodule_dimvectors(f4) == (
        (0, 0),
        (0, 1),
        (0, 2),
        (1, 2),
        (2, 2),
    )


def test_semibricks(cat_a2, cat_kron):
    sbs = cat_a2.semibricks()
    assert len(sbs) == 5
    assert max(len(s) for s in sbs) == 2
    sbk = cat_kron.semibricks()
    assert len(sbk) == 11
    assert max(len(s) for s in sbk) == 3  # the p + 1 = 3 one-dimensional bricks
    # Kronecker at (1,1) over larger fields: the p + 1 orthogonal bricks of
    # dimension (1,1) give 2^(p+1) semibricks, the two simples three more,
    # and each semibrick generates its own torsion class
    for p in (7, 11):
        cat = Catalogue(bundled("kronecker", p=p), (1, 1))
        sbs = cat.semibricks()
        assert len(sbs) == 2 ** (p + 1) + 3
        assert max(len(s) for s in sbs) == p + 1
        assert len(enumerate_torsion_classes(cat)) == 2 ** (p + 1) + 3


def test_submodules_and_subquots(a2, cat_a2):
    P1 = projective_module(a2, 0)
    i = cat_a2.find_index(P1)
    fams = cat_a2.submodule_families(i)
    assert len(fams) == 3
    s1 = cat_a2.find_index(simple_module(a2, 0))
    s2 = cat_a2.find_index(simple_module(a2, 1))
    assert set(cat_a2.subquot_pairs(i)) == {(0, i), (s2, s1)}


# (bundled name or quiver text, field, bound)
SUBQUOT_WINDOWS = (
    ("a2", None, (2, 2)),
    ("kronecker", 2, (2, 3)),
    ("kronecker", 3, (2, 2)),
    ("loop", None, (3,)),
    ("pi_a3", 2, (1, 1, 1)),
    ("pi_a3", 3, (1, 1, 1)),
    (SQUARE, None, (1, 1, 1, 1)),
)


@pytest.mark.parametrize(
    "name,p,bound", SUBQUOT_WINDOWS, ids=lambda x: "square" if x == SQUARE else None
)
def test_sub_and_quotient_match_projection_oracle(name, p, bound):
    A = load_algebra(name) if name == SQUARE else bundled(name, p)
    cat = Catalogue(A, bound)
    families = 0
    for idx in range(len(cat)):
        M = cat.rep(idx)
        for fam in cat.submodule_families(idx):
            if tuple(map(len, fam)) == M.dims:
                continue
            families += 1
            S, incl, Q, proj = oracles.sub_and_quotient(M, fam)
            assert submodule_rep(M, fam) == S and quotient_module(M, fam) == Q
            oracles.assert_module_map(incl, S, M)
            oracles.assert_module_map(proj, M, Q)
            assert all(s + q == d for s, q, d in zip(S.dims, Q.dims, M.dims))
    assert families > len(cat)


def test_budget_guards(kronecker, monkeypatch):
    with pytest.raises(BudgetError):
        Catalogue(kronecker, (4, 4))
    k3 = bundled("kronecker", p=3)
    with pytest.raises(BudgetError):
        Catalogue(k3, (3, 3))

    # the cap is checked for every dimension vector before any sweep starts
    def no_sweep(self, dims, cells):
        raise AssertionError("swept %r before the budget check" % (dims,))

    monkeypatch.setattr(Catalogue, "_sweep_dims", no_sweep)
    with pytest.raises(BudgetError) as err:
        Catalogue(k3, (3, 3))
    assert str(err.value) == "orbit sweep too large at dims (3, 3): 3^18 codes"


def test_absurd_bound_is_refused_at_once():
    # 13 ** (2 * 10**8) is never computed: the digit count alone refuses it
    k13 = bundled("kronecker", p=13)
    t0 = time.perf_counter()
    with pytest.raises(BudgetError) as err:
        Catalogue(k13, (10**4, 10**4))
    assert time.perf_counter() - t0 < 1.0
    assert str(err.value) == "orbit sweep too large at dims (10000, 10000): 13^200000000 codes"


def test_relation_check_lets_unexpected_errors_through(a2, monkeypatch):
    def broken(self):
        raise RuntimeError("bug in the relation check")

    monkeypatch.setattr(Representation, "_validate", broken)
    with pytest.raises(RuntimeError):
        Catalogue(a2, (1, 1))
