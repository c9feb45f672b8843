"""Exact linear algebra: the F_p kernels and the one rational elimination.

Over F_p, matrices are tuples of tuples of ints in range(p), rows first.  An
r x c matrix with r == 0 is the empty tuple, so the column count must be
carried by the caller whenever it matters (nullspace, stacking).  A basis
"in RREF" is the row tuple returned by ``rref`` or ``row_space``: each row
starts with a 1 in its pivot column, which is 0 in every other row, so the
coordinates of a vector of the row space are its entries at the pivots.
All routines are pure and allocation-light; p stays small (2..13) so Fermat
inversion is fine.

Over Q, ``rref_q`` is the only Gaussian elimination in Fraction arithmetic.
It serves the rank tests of double description and of silting g-vectors
and the exact solves of the rigidity test; the simplex in ``cones`` keeps
its own tableau pivoting.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

Mat = tuple  # tuple of row tuples


def inv_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError("not invertible mod %d" % p)
    return pow(a, p - 2, p)


def zeros(r: int, c: int) -> Mat:
    row = (0,) * c
    return tuple(row for _ in range(r))


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Mat, b: Mat, p: int, inner: int | None = None) -> Mat:
    """a @ b mod p.  inner = shared dimension, needed when a has no rows
    or b has no rows (then the shape of b is unrecoverable)."""
    if not a:
        return ()
    if inner is None:
        inner = len(a[0])
    if inner == 0 or not b:
        # result is len(a) x (cols of b); cols of b unknown when b empty,
        # but inner == 0 forces the zero map and b == () gives 0 columns
        c = len(b[0]) if b else 0
        return zeros(len(a), c)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % p for col in bt) for row in a
    )


def mat_vec(m: Mat, v: Sequence[int], p: int) -> tuple:
    """Matrix times column vector, the vector given as a flat sequence."""
    return tuple(sum(map(mul, row, v)) % p for row in m)


def vec_matmul(v: Sequence[int], a: Mat, p: int) -> tuple:
    """Row vector times matrix."""
    if not a:
        return ()
    cols = len(a[0])
    return tuple(sum(v[i] * a[i][j] for i in range(len(v))) % p for j in range(cols))


def rref(rows: Iterable[Sequence[int]], p: int) -> tuple[Mat, tuple]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices)."""
    work = [list(r) for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(work)):
            if work[i][c] % p:
                pr = i
                break
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = inv_mod(work[r][c], p)
        work[r] = [(x * inv) % p for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] % p:
                f = work[i][c] % p
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def rank(a: Mat, p: int) -> int:
    return len(rref(a, p)[0])


def nullspace(a: Mat, ncols: int, p: int) -> Mat:
    """Basis of the right kernel of a (rows = basis vectors of length ncols)."""
    red, pivots = rref(a, p) if a else ((), ())
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-red[i][fc]) % p
        basis.append(tuple(v))
    return tuple(basis)


def solve(a: Mat, b: Sequence[int], p: int) -> tuple | None:
    """One solution x of a x = b, or None.  b is a column given as a flat tuple."""
    if not a:
        return () if not any(b) else None
    ncols = len(a[0])
    aug = [list(row) + [bv % p] for row, bv in zip(a, b)]
    red, pivots = rref(aug, p)
    x = [0] * ncols
    for i, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = red[i][ncols]
    return tuple(x)


def inverse(a: Mat, p: int) -> Mat | None:
    n = len(a)
    if n == 0:
        return ()
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(a)]
    red, pivots = rref(aug, p)
    if list(pivots[:n]) != list(range(n)) or len(pivots) < n:
        return None
    return tuple(tuple(red[i][n:]) for i in range(n))


def row_space(a: Mat, p: int) -> Mat:
    """Canonical basis (RREF rows) of the row space."""
    return rref(a, p)[0]


def residual(v: Sequence[int], basis: Mat, p: int) -> tuple:
    """v reduced mod p against the rows of a basis in RREF.

    The result vanishes at every pivot column, and it is zero exactly when v
    lies in the row space."""
    w = [x % p for x in v]
    for row in basis:
        f = w[row.index(1)]
        if f:
            w = [(x - f * y) % p for x, y in zip(w, row)]
    return tuple(w)


def in_row_space(v: Sequence[int], basis: Mat, p: int) -> bool:
    """basis must be in RREF."""
    return not any(residual(v, basis, p))


def hstack(mats: Sequence[Mat], nrows: int) -> Mat:
    """Concatenate blocks left to right; every block has nrows rows."""
    if nrows == 0:
        return ()
    out = []
    for i in range(nrows):
        row: list = []
        for m in mats:
            row.extend(m[i])
        out.append(tuple(row))
    return tuple(out)


def vstack(mats: Sequence[Mat]) -> Mat:
    out = []
    for m in mats:
        out.extend(m)
    return tuple(out)


def rref_q(rows: Iterable[Sequence]) -> tuple[Mat, tuple]:
    """Reduced row echelon form over Q; returns (nonzero rows, pivot column
    indices), the rows as tuples of Fractions."""
    work = [[Fraction(x) for x in r] for r in rows]
    if not work:
        return (), ()
    pivots = []
    r = 0
    for c in range(len(work[0])):
        pr = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        pv = work[r][c]
        work[r] = [x / pv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)
