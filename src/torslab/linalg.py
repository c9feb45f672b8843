"""Exact linear algebra: the F_p kernels and the one rational elimination.

Over F_p, matrices are tuples of tuples of ints in range(p), rows first.  An
r x c matrix with r == 0 is the empty tuple, so the column count must be
carried by the caller whenever it matters (nullspace).  A basis
"in RREF" is the row tuple returned by ``rref`` or ``row_space``: each row
starts with a 1 in its pivot column, which is 0 in every other row, so the
coordinates of a vector of the row space are its entries at the pivots.
All routines are pure; p stays small (2..13) so Fermat inversion is fine.

F_p elimination has one kernel, ``_echelon``.  The matrices it meets are
sparse (about 1% nonzero for the silting rank tests), so it keeps each row
as a dict of its nonzero entries and a row operation touches only those.
It stops reading rows once the pivots fill every column.  ``nullspace``
solves each kernel vector from the echelon rows by one triangular solve per
free column, so it back-substitutes nothing.  ``reduced_rows`` adds one
sparse back-substitution and returns the reduced rows as dicts; ``rref``
makes them dense, and the path window of ``algebra`` reads entries from
them.  ``rank`` counts the echelon rows.  A caller that already holds
sparse rows may pass them to ``reduced_rows``, ``rref`` or ``nullspace`` as
{column: value} dicts with the column count; the silting Hom-complex
differential and the ideal rows of a path window are built that way, fresh
and already reduced mod p.  Such rows are handed over, not copied: the
kernel reduces them in place and keeps them as its echelon rows, so the
caller must not read them afterwards.  ``rank`` takes dense rows only.
The rows ``rref`` and ``nullspace`` return are dense tuples.

Over Q, ``bareiss_pivot`` is the only elimination step: one fraction-free
(Bareiss, Math. Comp. 22 (1968)) pivot of an integer tableau, whose every
division is exact.  The simplex in ``cones`` pivots with it, and
``unimodular_inverse`` runs it over [a | I] to invert the g-vector matrices
of the silting layer.  No Fraction enters this module.
"""

from __future__ import annotations

from bisect import bisect
from collections.abc import Iterable, Sequence
from itertools import compress
from operator import mul

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


def _subtract(d: dict, f: int, row: dict, p: int) -> None:
    """d -= f * row mod p, in place, for rows stored as {column: nonzero}.

    f and every value of row are nonzero mod the prime p, so an entry can
    only become 0 where d already had one."""
    for j, y in row.items():
        x = (d.get(j, 0) - f * y) % p
        if x:
            d[j] = x
        else:
            del d[j]


def _echelon(rows: Iterable, p: int, ncols: int | None = None) -> tuple[dict, int]:
    """Row echelon form by sparse elimination: ({pivot column: row}, ncols).

    Rows are dense sequences, or {column: value} dicts when ncols is given.
    Each row is kept as a dict {column: value} of its nonzero entries mod p.
    A dict row handed in becomes the kernel's own: it is reduced mod p,
    eliminated and scaled in place, and may be returned as a pivot row, so
    the caller must not read it afterwards, nor hand in one dict twice.
    A new row is reduced at its lowest column against the pivot rows found
    so far until that column has no pivot; it is then scaled so that its
    pivot entry is 1.  Entries of a row at later pivot columns stay, so the
    rows are in echelon form but not reduced.  Reading stops as soon as the
    pivots fill every column."""
    pivots: dict = {}
    for row in rows:
        if isinstance(row, dict):
            if ncols is None:
                raise ValueError("dict rows need the column count")
            d = row
            for c in [c for c, x in d.items() if not 0 < x < p]:
                if d[c] % p:
                    d[c] %= p
                else:
                    del d[c]
        else:
            if ncols is None:
                ncols = len(row)
            d = {c: y for c in compress(range(len(row)), row) if (y := row[c] % p)}
        while d:
            c = min(d)
            prow = pivots.get(c)
            if prow is None:
                if d[c] != 1:
                    inv = inv_mod(d[c], p)
                    for j in d:
                        d[j] = d[j] * inv % p
                pivots[c] = d
                break
            _subtract(d, d[c], prow, p)
        if len(pivots) == ncols:
            break
    return pivots, ncols or 0


def reduced_rows(rows: Iterable, p: int, ncols: int | None = None) -> tuple[dict, int]:
    """Reduced row echelon form, sparse: ({pivot column: row}, ncols), each
    row a dict {column: nonzero value} with 1 at its pivot column.

    Back-substitution on the rows of ``_echelon``: afterwards each pivot
    column is 0 in every row but its own.  The rows are cleared from the
    last pivot up, so a row subtracted is already reduced and brings in no
    pivot column.  ncols is needed only for dict rows, whose columns may be
    any ints: the pivot of a row is its lowest column."""
    pivots, ncols = _echelon(rows, p, ncols)
    for c in sorted(pivots, reverse=True):
        d = pivots[c]
        for j in [j for j in d if j != c and j in pivots]:
            _subtract(d, d[j], pivots[j], p)
    return pivots, ncols


def rref(rows: Iterable, p: int, ncols: int | None = None) -> tuple[Mat, tuple]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices).
    ncols is needed only for dict rows (see ``_echelon``)."""
    pivots, ncols = reduced_rows(rows, p, ncols)
    order = sorted(pivots)
    out = []
    for c in order:
        row = [0] * ncols
        for j, x in pivots[c].items():
            row[j] = x
        out.append(tuple(row))
    return tuple(out), tuple(order)


def rank(a: Iterable, p: int) -> int:
    """Rank of the dense rows of a, read no further than full column rank."""
    return len(_echelon(a, p)[0])


def nullspace(a: Iterable, ncols: int, p: int) -> Mat:
    """Basis of the right kernel of a (rows = basis vectors of length ncols,
    dense or as dicts, see ``_echelon``): one vector per free column, 1 there
    and 0 at the other free columns.

    Each vector is solved from the echelon rows, without back-substitution:
    a row with pivot pc holds entries at pc and later columns only, so going
    down the pivots below the free column in descending order, v[pc] is
    minus the row's sum over the entries of v already set.  Pivots above the
    free column give 0."""
    pivots, _ = _echelon(a, p, ncols)
    order = sorted(pivots)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for pc in reversed(order[: bisect(order, fc)]):
            s = 0
            for j, x in pivots[pc].items():
                s += x * v[j]
            v[pc] = -s % p
        basis.append(tuple(v))
    return tuple(basis)


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


def bareiss_pivot(tab: list, r: int, c: int, det: int) -> int:
    """One fraction-free pivot of the integer rows of tab on entry (r, c), in
    place; returns the new determinant tab[r][c].

    tab / det is the rational tableau before the pivot.  Every other row
    becomes (row * tab[r][c] - row[c] * tab[r]) / det, and the division is
    exact, so tab / tab[r][c] is the rational tableau after it."""
    row_r, piv = tab[r], tab[r][c]
    for i, row in enumerate(tab):
        if i != r:
            f = row[c]
            tab[i] = [(a * piv - f * b) // det for a, b in zip(row, row_r)]
    return piv


def unimodular_inverse(a: Sequence[Sequence[int]]) -> Mat | None:
    """Integer inverse of the square integer matrix a, or None unless
    det a = +-1.

    Pivots [a | I] on the diagonal, Bareiss style; afterwards the left block
    is det * I, so the right block divided by det is the inverse."""
    n = len(a)
    tab = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    det = 1
    for c in range(n):
        r = next((i for i in range(c, n) if tab[i][c]), None)
        if r is None:
            return None
        tab[c], tab[r] = tab[r], tab[c]
        det = bareiss_pivot(tab, c, c, det)
    if abs(det) != 1:
        return None
    return tuple(tuple(x * det for x in row[n:]) for row in tab)
