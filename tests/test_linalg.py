import random
from fractions import Fraction

from torslab.linalg import (
    hstack,
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
    rref_q,
    solve,
    vec_matmul,
    vstack,
    zeros,
)


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
        assert vec_matmul(v, mat_transpose_rows(a), p) == (0,) * len(a)


def mat_transpose_rows(a):
    return tuple(zip(*a))


def test_nullspace_empty_matrix():
    ns = nullspace((), 4, 7)
    assert len(ns) == 4


def test_solve_and_inverse():
    p = 7
    a = ((1, 2), (3, 4))
    b = (5, 6)
    x = solve(a, b, p)
    assert x is not None
    assert tuple(sum(a[i][j] * x[j] for j in range(2)) % p for i in range(2)) == b
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
    red, piv = rref_q(((2, 4, 1), (1, 2, 3), (3, 6, 4)))
    assert piv == (0, 2)
    assert red == ((1, 2, 0), (0, 0, 1))
    assert all(isinstance(x, Fraction) for row in red for x in row)
    red, piv = rref_q(((2, 1), (Fraction(1, 2), 0)))
    assert piv == (0, 1) and red == ((1, 0), (0, 1))
    assert rref_q(()) == ((), ())
    assert rref_q(((0, 0),)) == ((), ())


def test_stack_helpers():
    a = ((1, 2), (3, 4))
    b = ((5,), (6,))
    assert hstack((a, b), 2) == ((1, 2, 5), (3, 4, 6))
    assert vstack((a, ((0, 0),))) == ((1, 2), (3, 4), (0, 0))
    assert hstack((), 0) == ()
    assert zeros(0, 3) == ()


def test_mat_mul_degenerate():
    p = 5
    assert mat_mul((), ((1,),), p) == ()
    a = ((0,) * 0,)  # 1 x 0
    assert mat_mul(a, (), p, inner=0) == ((),) or mat_mul(a, (), p, inner=0) == ((),)
    out = mat_mul(((1, 2),), ((3,), (4,)), p)
    assert out == ((1,),)
