"""Small exact linear algebra helpers over Z and Z/2."""

from __future__ import annotations

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
    """gcd of the maximal minors of a one-row matrix, its first ``ncols``
    entries; 0 when every one vanishes.

    Any completion of the row to a square integer matrix has determinant
    divisible by this gcd, which makes it a cheap unimodularity prune.  The
    isomorphism search prunes with a single row: it carries a unimodular
    column transform that clears the rows fixed so far (:func:`clear_row`),
    and the gcd of the maximal minors of the whole prefix is that of the
    candidate row's free entries after the transform.
    """
    (row,) = rows
    return gcd(*row[:ncols])


def solve_mod(rows: list[int], rhs: list[int]) -> list[int]:
    """Solve ``matrix @ x = rhs`` over Z/2 for an invertible square matrix.

    Row i of the matrix comes packed into the int ``rows[i]``: bit j is its
    entry in column j.  Only the parity of ``rhs[i]`` counts.  Gauss-Jordan
    elimination clears a column from every other row with one XOR per row,
    the right-hand side riding along as bit ``len(rows)``.  Returns x as a
    list of 0 and 1; raises ``ValueError`` when the matrix is singular.
    """
    size = len(rows)
    a = [r | (b & 1) << size for r, b in zip(rows, rhs)]
    for col in range(size):
        bit = 1 << col
        for i in range(col, size):
            if a[i] & bit:
                break
        else:
            raise ValueError("matrix is not invertible modulo 2")
        pivot = a[i]
        a[i] = a[col]
        a = [r ^ pivot if r & bit else r for r in a]
        a[col] = pivot
    return [r >> size for r in a]

