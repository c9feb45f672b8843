import random
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import bundled
from torslab import linalg, silting
from torslab.linalg import (
    identity,
    in_row_space,
    inv_mod,
    inverse,
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    residual,
    row_space,
    rref,
    unimodular_inverse,
    zeros,
)
from torslab.silting import enumerate_silting


def test_inv_mod():
    for p in (2, 3, 5, 7, 11, 13):
        for a in range(1, p):
            assert (a * inv_mod(a, p)) % p == 1


def test_rref_pivots():
    a = ((2, 4, 0), (1, 2, 1))
    red, piv = rref(a, 5)
    assert piv == (0, 2)
    assert red == ((1, 2, 0), (0, 0, 1))


def test_nullspace_dims():
    p = 3
    a = ((1, 2, 0), (0, 0, 1))
    ns = nullspace(a, 3, p)
    assert len(ns) == 1
    for v in ns:
        assert mat_vec(a, v, p) == (0,) * len(a)


def test_nullspace_empty_matrix():
    ns = nullspace((), 4, 7)
    assert len(ns) == 4


def test_solve_and_inverse():
    p = 7
    a = ((1, 2), (3, 4))
    ai = inverse(a, p)
    assert ai is not None
    assert mat_mul(a, ai, p) == identity(2)


def test_singular_inverse():
    assert inverse(((1, 2), (2, 4)), 5) is None


def test_random_rank_nullity():
    rng = random.Random(11)
    for _ in range(40):
        p = rng.choice((2, 3, 5))
        r, c = rng.randint(0, 4), rng.randint(0, 4)
        a = tuple(tuple(rng.randrange(p) for _ in range(c)) for _ in range(r))
        assert rank(a, p) + len(nullspace(a, c, p)) == c


def test_row_space_membership():
    p = 2
    basis = row_space(((1, 1, 0), (0, 1, 1)), p)
    assert in_row_space((1, 0, 1), basis, p)
    assert not in_row_space((1, 0, 0), basis, p)


def test_residual_vanishes_on_pivots():
    p = 3
    basis = row_space(((1, 2, 0, 1), (0, 0, 1, 2)), p)
    pivots = [row.index(1) for row in basis]
    rng = random.Random(5)
    for _ in range(30):
        v = tuple(rng.randrange(p) for _ in range(4))
        r = residual(v, basis, p)
        assert all(r[c] == 0 for c in pivots)
        # v - r is the combination of the basis rows with v's pivot entries
        back = tuple(
            (sum(v[pc] * row[j] for row, pc in zip(basis, pivots)) + r[j]) % p
            for j in range(4)
        )
        assert back == v
        assert in_row_space(v, basis, p) == (not any(r))
    assert residual((4, 5), (), p) == (1, 2)


def test_mat_vec_matches_mat_mul():
    rng = random.Random(7)
    for _ in range(30):
        p = rng.choice((2, 3, 5))
        r, c = rng.randint(0, 4), rng.randint(1, 4)
        a = tuple(tuple(rng.randrange(p) for _ in range(c)) for _ in range(r))
        v = tuple(rng.randrange(p) for _ in range(c))
        col = mat_mul(a, tuple((x,) for x in v), p, inner=c)
        assert mat_vec(a, v, p) == tuple(row[0] for row in col)


def test_rref_q():
    red, piv = oracles.rref_q(((2, 4, 1), (1, 2, 3), (3, 6, 4)))
    assert piv == (0, 2)
    assert red == ((1, 2, 0), (0, 0, 1))
    assert all(isinstance(x, Fraction) for row in red for x in row)
    red, piv = oracles.rref_q(((2, 1), (Fraction(1, 2), 0)))
    assert piv == (0, 1) and red == ((1, 0), (0, 1))
    assert oracles.rref_q(()) == ((), ())
    assert oracles.rref_q(((0, 0),)) == ((), ())


def test_unimodular_inverse():
    assert unimodular_inverse(((2, 1), (1, 1))) == ((1, -1), (-1, 2))
    # det -1, and a zero on the diagonal that needs a row swap
    assert unimodular_inverse(((0, 1), (1, 0))) == ((0, 1), (1, 0))
    assert unimodular_inverse(((1, 1, 0), (0, 1, 0), (2, 0, -1))) == (
        (1, -1, 0),
        (0, 1, 0),
        (2, -2, -1),
    )
    assert unimodular_inverse(()) == ()
    # det 2, det -2 and singular
    assert unimodular_inverse(((2, 0), (0, 1))) is None
    assert unimodular_inverse(((1, 3), (1, 1))) is None
    assert unimodular_inverse(((1, 2), (2, 4))) is None
    assert unimodular_inverse(((0, 0), (1, 1))) is None


def _unimodular(rng, n):
    """A random matrix of determinant +-1: row operations on the identity."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(0, 6)):
        i, k = rng.sample(range(n), 2) if n > 1 else (0, 0)
        op = rng.randrange(3)
        if op == 0 and i != k:
            f = rng.randint(-2, 2)
            a[i] = [x + f * y for x, y in zip(a[i], a[k])]
        elif op == 1:
            a[i], a[k] = a[k], a[i]
        else:
            a[i] = [-x for x in a[i]]
    return a


def test_unimodular_inverse_matches_rational_oracle():
    rng = random.Random(20261020)
    kinds = set()
    for _ in range(1000):
        n = rng.randint(1, 4)
        if rng.random() < 0.5:
            a = _unimodular(rng, n)
        else:
            a = [[rng.randint(-3, 3) if rng.random() < 0.7 else 0 for _ in range(n)]
                 for _ in range(n)]
        aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
        red, piv = oracles.rref_q(aug)
        inv = tuple(row[n:] for row in red)
        if piv[:n] != tuple(range(n)):
            want, kind = None, "singular"
        elif any(x.denominator != 1 for row in inv for x in row):
            want, kind = None, "det not +-1"
        else:
            want, kind = inv, "inverted"
        assert unimodular_inverse(a) == want, a
        kinds.add(kind)
    assert kinds == {"singular", "det not +-1", "inverted"}


def test_stack_helpers():
    assert zeros(0, 3) == ()


def test_mat_mul_degenerate():
    p = 5
    assert mat_mul((), ((1,),), p) == ()
    a = ((0,) * 0,)  # 1 x 0
    assert mat_mul(a, (), p, inner=0) == ((),) or mat_mul(a, (), p, inner=0) == ((),)
    out = mat_mul(((1, 2),), ((3,), (4,)), p)
    assert out == ((1,),)


def _random_matrix(rng, p):
    r, c = rng.randint(0, 12), rng.randint(0, 12)
    density = rng.random()
    return tuple(
        tuple(rng.randint(-2 * p, 2 * p) if rng.random() < density else 0 for _ in range(c))
        for _ in range(r)
    ), c


def _chain_matrix(rng, p):
    """Sparse rows shaped like the Hom-complex differentials of the walk:
    1-2 nonzeros each, 20-40 columns, nullity 0-3.  Each column but the free
    ones leads one row, whose second entry lies to its right; scaled copies
    of a few rows follow, and the rows are shuffled.  Entries stay
    unreduced."""
    units = [x for x in range(-2 * p, 2 * p + 1) if x % p]
    c = rng.randint(20, 40)
    free = set(rng.sample(range(c), rng.randint(0, 3)))
    rows = []
    for j in range(c):
        if j not in free:
            row = {j: rng.choice(units)}
            if j + 1 < c and rng.random() < 0.7:
                row[rng.randrange(j + 1, c)] = rng.choice(units)
            rows.append(row)
    for row in rng.sample(rows, min(len(rows), rng.randint(0, 5))):
        f = rng.choice(units)
        rows.append({j: x * f for j, x in row.items()})
    rng.shuffle(rows)
    return rows, c, len(free)


def _wide_matrix(rng, p):
    """Dict rows over up to 60 columns whose nullity exceeds their rank, like
    the path-window and hom-space kernels: at most a third as many rows as
    columns, 1-4 entries each, some a scaled copy of an earlier row.  Entries
    stay unreduced, so some are multiples of p."""
    c = rng.randint(1, 60)
    rows = []
    for _ in range(rng.randint(0, c // 3)):
        if rows and rng.random() < 0.2:
            f = rng.randint(1, 2 * p)
            rows.append({j: x * f for j, x in rng.choice(rows).items()})
        else:
            cols = rng.sample(range(c), rng.randint(1, min(4, c)))
            rows.append({j: rng.randint(-2 * p, 2 * p) for j in cols})
    return rows, c


def test_sparse_kernel_matches_dense_oracle():
    rng = random.Random(20)
    for _ in range(300):
        p = rng.choice((2, 3, 5))
        rows, c, nullity = _chain_matrix(rng, p)
        dense = tuple(tuple(row.get(j, 0) for j in range(c)) for row in rows)
        kernel = oracles.nullspace(dense, c, p)
        assert len(kernel) == nullity
        assert nullspace(rows, c, p) == nullspace(dense, c, p) == kernel
        assert rref(rows, p, c) == oracles.dense_rref(dense, p)
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7))
        rows, c = _wide_matrix(rng, p)
        dense = tuple(tuple(row.get(j, 0) for j in range(c)) for row in rows)
        kernel = oracles.nullspace(dense, c, p)
        assert len(kernel) > c - len(kernel)
        assert nullspace(rows, c, p) == nullspace(iter(rows), c, p) == kernel
    for _ in range(3000):
        p = rng.choice((2, 3, 5, 7, 13))
        a, c = _random_matrix(rng, p)
        red, piv = oracles.dense_rref(a, p)
        assert rref(a, p) == (red, piv)
        assert rref((row for row in a), p) == (red, piv)
        assert rank(a, p) == rank((row for row in a), p) == len(red)
        assert row_space(a, p) == red
        kernel = oracles.nullspace(a, c, p)
        assert nullspace(a, c, p) == kernel
        # the same matrix as sparse dict rows with its column count; entries
        # stay unreduced, so multiples of p must drop out
        sparse = tuple({j: x for j, x in enumerate(row) if x} for row in a)
        assert rref(sparse, p, c) == rref(iter(sparse), p, c) == (red, piv)
        assert nullspace(sparse, c, p) == kernel
        # rank takes dense rows only
        if sparse:
            with pytest.raises(ValueError):
                rank(sparse, p)
        n = len(a)
        sq = tuple(row[:n] + (0,) * (n - len(row[:n])) for row in a)
        ired, ipiv = oracles.dense_rref(
            [row + tuple(int(i == j) for j in range(n)) for i, row in enumerate(sq)], p
        )
        if ipiv[:n] == tuple(range(n)):
            assert inverse(sq, p) == tuple(row[n:] for row in ired[:n])
        else:
            assert inverse(sq, p) is None


_PRIMES = st.sampled_from((2, 3, 5, 7, 13))


@st.composite
def _matrices(draw):
    p = draw(_PRIMES)
    c = draw(st.integers(0, 8))
    rows = draw(st.lists(st.lists(st.integers(-20, 20), min_size=c, max_size=c), max_size=8))
    return p, tuple(map(tuple, rows))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_matrices())
def test_rref_invariants(case):
    p, a = case
    red, piv = rref(a, p)
    assert len(red) == len(piv)
    assert list(piv) == sorted(set(piv))
    for i, (row, c) in enumerate(zip(red, piv)):
        assert row[c] == 1
        assert all(0 <= x < p for x in row)
        assert all(other[c] == 0 for k, other in enumerate(red) if k != i)
    for v in a:
        combo = [sum(v[c] * row[j] for row, c in zip(red, piv)) for j in range(len(v))]
        assert all((x - y) % p == 0 for x, y in zip(v, combo))


@pytest.mark.parametrize("p", (2, 3))
def test_kernels_of_the_walk_differentials(monkeypatch, p):
    # every Hom-complex differential the Kronecker walk meets at depth 8
    seen = []

    def recorded(rows, ncols, q):
        # the rows arrive reduced mod q; nullspace reduces them in place, so
        # the kernel is checked against copies taken first
        assert all(0 < x < q for row in rows for x in row.values())
        copies = [dict(row) for row in rows]
        basis = nullspace(rows, ncols, q)
        seen.append((copies, ncols, basis))
        return basis

    monkeypatch.setattr(silting, "nullspace", recorded)
    enumerate_silting(bundled("kronecker", p=p), 8)
    assert seen
    for rows, ncols, basis in seen:
        piv = oracles.dense_rref([[row.get(j, 0) for j in range(ncols)] for row in rows], p)[1]
        free = [j for j in range(ncols) if j not in piv]
        assert len(piv) + len(basis) == ncols
        for fc, v in zip(free, basis):
            assert all(sum(x * v[j] for j, x in row.items()) % p == 0 for row in rows)
            assert [v[j] for j in free] == [int(j == fc) for j in free]


def test_nullspace_makes_no_rref_call(monkeypatch):
    # kernel vectors are solved from the echelon rows: no back-substitution
    calls = []

    def counted(original):
        def call(*args):
            calls.append(original.__name__)
            return original(*args)

        return call

    for name in ("rref", "reduced_rows"):
        monkeypatch.setattr(linalg, name, counted(getattr(linalg, name)))
    assert nullspace(((1, 2, 0), (0, 0, 1)), 3, 3) == ((1, 1, 0),)
    assert nullspace(({0: 1, 1: 2}, {2: 4}), 3, 3) == ((1, 1, 0),)
    assert not calls


def test_echelon_takes_dict_rows_as_its_own():
    # no copy: each dict row is reduced mod p, eliminated and scaled in place,
    # and a row that leads a pivot is returned as it
    rows = [{0: 4, 2: 3}, {0: 2, 1: 5}, {1: 6}]
    pivots, ncols = linalg._echelon(rows, 3, 3)
    assert ncols == 3 and pivots == {0: {0: 1}, 1: {1: 1}}
    assert pivots[0] is rows[0] and pivots[1] is rows[1]
    assert rows[2] == {}


def _rows_that_raise():
    raise AssertionError("read past full rank")
    yield


def test_full_rank_stops_reading_rows():
    for p in (2, 3, 5):
        assert rref(chain(identity(3), _rows_that_raise()), p) == (identity(3), (0, 1, 2))
        assert rank(chain(identity(3), _rows_that_raise()), p) == 3
    assert rank(chain(((0, 2), (1, 1)), _rows_that_raise()), 3) == 2
