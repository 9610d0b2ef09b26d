"""Small exact linear algebra helpers over Z, Q and Z/n."""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def det_int(rows: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def clear_row(entries: list[int], cols: list) -> tuple[int, list]:
    """Euclid's algorithm on a row by unimodular column operations.

    ``entries[c]`` is the row's entry in column ``cols[c]``; each operation
    (subtract q times column p from column c) is applied to the entries and
    to the columns alike.  Returns the one entry left nonzero, their gcd up
    to sign (0 when every entry vanishes), and the new columns with that
    entry's column first: the row is zero in every other column.
    """
    entries = list(entries)
    cols = [list(col) for col in cols]
    while True:
        live = [c for c, v in enumerate(entries) if v]
        if not live:
            return 0, cols
        p = min(live, key=lambda c: abs(entries[c]))
        if len(live) == 1:
            break
        for c in live:
            if c != p:
                q = entries[c] // entries[p]
                entries[c] -= q * entries[p]
                cols[c] = [a - q * b for a, b in zip(cols[c], cols[p])]
    cols[0], cols[p] = cols[p], cols[0]
    return entries[p], cols


def minors_gcd(rows: list[tuple[int, ...]], ncols: int) -> int:
    """gcd of all maximal (len(rows) x len(rows)) minors of a short wide matrix.

    Returns 0 when every minor vanishes.  Any completion of the rows to a
    square integer matrix has determinant divisible by this gcd, which makes
    it a cheap unimodularity prune during row-by-row search.

    Unimodular column operations keep the gcd of the maximal minors, so
    clearing each row in turn (:func:`clear_row`) on the columns not yet
    used brings the rows to lower-triangular form [L | 0], whose only
    nonzero maximal minor is det L: the gcd is the product of the diagonal,
    or 0 once a row has nothing left to the right of the columns already
    used (short rank).  The last row need not be cleared: its diagonal
    entry would be the gcd of its entries in the unused columns.
    """
    if not rows:
        return 1
    cols = [[row[c] for row in rows] for c in range(ncols)]
    g = 1
    for i in range(len(rows) - 1):
        entry, cols[i:] = clear_row([col[i] for col in cols[i:]], cols[i:])
        if not entry:
            return 0
        g *= abs(entry)
    return g * gcd(*(col[-1] for col in cols[len(rows) - 1:]))


def solve_mod(matrix: list[list[int]], rhs: list[int], n: int) -> list[int]:
    """Solve ``matrix @ x = rhs`` over Z/n for an invertible square matrix."""
    size = len(matrix)
    a = [[matrix[i][j] % n for j in range(size)] + [rhs[i] % n] for i in range(size)]
    for col in range(size):
        pivot = None
        for i in range(col, size):
            if a[i][col] != 0 and gcd(a[i][col], n) == 1:
                pivot = i
                break
        if pivot is None:
            raise ValueError("matrix is not invertible modulo %d" % n)
        a[col], a[pivot] = a[pivot], a[col]
        inv = pow(a[col][col], -1, n)
        a[col] = [(v * inv) % n for v in a[col]]
        for i in range(size):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [(a[i][j] - f * a[col][j]) % n for j in range(size + 1)]
    return [a[i][size] for i in range(size)]


def rank_exact(rows: list[list]) -> int:
    """Rank of a matrix with int or Fraction entries, by exact elimination."""
    a = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    ncols = len(a[0]) if a else 0
    row = 0
    for col in range(ncols):
        pivot = None
        for i in range(row, len(a)):
            if a[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        inv = 1 / a[row][col]
        a[row] = [v * inv for v in a[row]]
        for i in range(len(a)):
            if i != row and a[i][col] != 0:
                f = a[i][col]
                a[i] = [a[i][j] - f * a[row][j] for j in range(ncols)]
        row += 1
        rank += 1
    return rank
