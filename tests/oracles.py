"""Independent oracles for the test suite.

The sympy route expands each relation from the stage's rows and reduces
polynomials modulo the relations with a Groebner-basis division algorithm,
sharing no code with the package's stage table or rewriting engine.  The
randomized reducer exercises arbitrary reduction orders to check
confluence.  The brute-force scan evaluates the scan
expression in the ring once per coefficient vector, sharing no code with
the package's polynomial expansion; a shifted expression less its value
at z = l is evaluated there too, where the package reads that value along
its walk.  The reference Taylor shift forms every depressed piece of a
stage relation, D_0 included, with class arithmetic, where the package
forms D_1..D_(n-1) on raw term dicts and implies D_0.  The brute-force minors gcd computes
every maximal minor by its own determinant, where the package reduces
columns.  The brute-force isomorphism search splits each relation's terms
by the exponent of y_i, where the package reads the pieces from the Chern
classes of the stage table; it tries every row the brute-force scan
admits, both signs of row 1 included, and recomputes the minors gcd of the
whole prefix for each, where the package searches row 1 up to sign and
carries a column transform down the tree.  The brute-force Wu solve takes
one full Steenrod square per basis monomial and one ring product per
pairing entry, in every degree, and eliminates over Z/n on lists of
residues, where the package reads both sides of each pairing row from the
top-degree functional and eliminates over Z/2 on rows packed into ints.
The root-by-root tangent classes multiply the class by 1 + x, respectively
1 + x^2, once per Chern root x = y_i + u, with the roots u built from the
tower's rows, where the package reads each stage's factor from the Chern
classes of its stage table; the sympy tangent classes expand the same
products symbolically and reduce them by the Groebner basis.  The exact
rank eliminates over Q on fractions; the package has no rank routine.
The full residue count walks every residue per coordinate, where the
package walks half of them when 4 divides the modulus; it shares the
package's walk, which the brute-force count checks on its own.  The
expanded map check sends every term of each relation through the matrix,
where the package multiplies the stage's root factors.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd

import sympy as sp

from bottcoh import build_ring, steenrod_square
from bottcoh.linalg import det_int
from bottcoh.ring import CohomologyClass, image_of_terms
from bottcoh.search import _scan


def sympy_ring_data(tower):
    m = tower.height
    ys = sp.symbols(f"y1:{m + 1}")
    rels = []
    for i, stage in enumerate(tower.stages):
        y = ys[i]
        f = y
        for row in stage.summand_exponents:
            f = f * (y + sum(a * ys[j] for j, a in enumerate(row)))
        rels.append(sp.expand(f))
    # leading terms y_i^{n_i+1} are pairwise coprime in lex order with
    # y_m > ... > y_1, so the relations are already a Groebner basis
    gens = tuple(reversed(ys))
    basis = sp.groebner(rels, *gens, order="lex")
    return ys, gens, basis


def sympy_relation(tower, i) -> dict:
    """y_i prod_rows (y_i + row . y) of stage i (1-based), expanded by
    sympy, as {exponents: coeff}."""
    ys = sp.symbols(f"y1:{tower.height + 1}")
    f = ys[i - 1]
    for row in tower.stages[i - 1].summand_exponents:
        f *= ys[i - 1] + sum(a * y for a, y in zip(row, ys))
    poly = sp.Poly(sp.expand(f), *ys)
    return {tuple(int(k) for k in mono): int(c) for mono, c in poly.terms() if c}


def _sympy_terms(expr, ys) -> dict:
    poly = sp.Poly(expr, *ys)
    return {tuple(int(k) for k in mono): int(c) for mono, c in poly.terms() if c}


def sympy_tangent_classes(tower):
    """Term dicts of the total Chern and Pontrjagin classes: the products of
    1 + x and of 1 + x^2 over every Chern root x = y_i + row . y (the
    trivial row included), expanded by sympy and reduced modulo the
    relations."""
    ys, _, basis = sympy_ring_data(tower)
    chern = pontrjagin = sp.Integer(1)
    for i, stage in enumerate(tower.stages):
        for row in ((),) + stage.summand_exponents:
            x = ys[i] + sum(a * y for a, y in zip(row, ys))
            chern *= 1 + x
            pontrjagin *= 1 + x**2
    return tuple(
        _sympy_terms(basis.reduce(sp.expand(f))[1], ys) for f in (chern, pontrjagin)
    )


def sympy_normal_form(tower, terms) -> dict:
    """Reduce {exponents: coeff} modulo the relations; returns the same shape."""
    ys, _, basis = sympy_ring_data(tower)
    expr = sp.Integer(0)
    for e, c in terms.items():
        mono = sp.Integer(c)
        for y, k in zip(ys, e):
            mono *= y**k
        expr += mono
    return _sympy_terms(basis.reduce(sp.expand(expr))[1], ys)


def class_terms(cls) -> dict:
    return {e: int(c) for e, c in cls.items()}


def random_order_reduce(ring, terms, rng) -> dict:
    """Normal form computed with a random reduction strategy.

    Shares the ring's relation table but picks the monomial and the
    overflowing variable at random instead of always reducing the largest
    index, which is exactly what confluence promises not to matter.
    """
    work = [(tuple(e), c) for e, c in terms.items()]
    out: dict = {}
    dims = ring.dims
    while work:
        pos = rng.randrange(len(work))
        e, c = work.pop(pos)
        over = [i for i in range(len(dims)) if e[i] > dims[i]]
        if not over:
            out[e] = out.get(e, 0) + c
            if out[e] == 0:
                del out[e]
            continue
        i = rng.choice(over)
        for q in range(1, dims[i] + 1):
            cq = ring.chern[i][q - 1]
            for g, cg in cq.items():
                ee = list(e)
                ee[i] -= q
                for j in range(i):
                    ee[j] += g[j]
                work.append((tuple(ee), -c * cg))
    return out


def brute_force_scan(ring, pieces, tmax, values, shift=None) -> list:
    """All nonzero b in values^m, in lexicographic order, with
    sum_t pieces[t] * (sum_j z_j y_j)^t == 0, by Horner's rule in the ring,
    where z = b; or, for ``shift`` = (s, l), z_j = s * b_j + l_j and the
    expression less its value at z = l, sum_t pieces[t] * (h^t - L^t) for
    h and L the linear classes of z and l."""
    zero = ring.zero()
    piece_list = [pieces.get(t, zero) for t in range(tmax + 1)]
    scale, lift = shift or (1, (0,) * ring.height)

    def horner(h):
        acc = piece_list[tmax]
        for t in range(tmax - 1, -1, -1):
            acc = acc * h + piece_list[t]
        return acc

    offset = horner(ring.linear_class(lift))
    out = []
    for vec in product(values, repeat=ring.height):
        if not any(vec):
            continue
        h = ring.linear_class([scale * b + l for b, l in zip(vec, lift)])
        if (horner(h) - offset).is_zero():
            out.append(vec)
    return out


def brute_force_square_zero_count(tower, modulus) -> int:
    """Number of nonzero residue vectors b in (Z/modulus)^m whose class
    sum_j b_j y_j squares to zero over Z/modulus, one ring square each."""
    ring = build_ring(tower, modulus)
    count = 0
    for vec in product(range(modulus), repeat=ring.height):
        if not any(vec):
            continue
        h = ring.linear_class(vec)
        if (h * h).is_zero():
            count += 1
    return count


def full_residue_square_zero_count(ring, modulus) -> int:
    """Number of nonzero residue vectors b in (Z/modulus)^m with
    h_b^2 == 0 over Z/modulus, from the residue walk of the ring over Z
    over every residue range(modulus) per coordinate."""
    return sum(1 for _ in _scan(ring, {2: ring.one()}, range(modulus), modulus))


def expanded_relation_failure(source, target, matrix):
    """The first stage i (1-based) whose relation, every term of
    ``source.relation_terms(i)`` mapped by y'_j -> sum_k matrix[j][k] y_k,
    has a nonzero image in ``target``; None when every relation maps to
    zero."""
    images = [target.linear_class(row) for row in matrix]
    for i in range(1, source.height + 1):
        if not image_of_terms(target, images, source.relation_terms(i)).is_zero():
            return i
    return None


def brute_force_minors_gcd(rows, ncols) -> int:
    """gcd of all C(ncols, len(rows)) maximal minors, one Bareiss
    determinant each; 0 when every minor vanishes, 1 for no rows."""
    r = len(rows)
    if r == 0:
        return 1
    g = 0
    for cols in combinations(range(ncols), r):
        g = gcd(g, abs(det_int([[row[c] for c in cols] for row in rows])))
    return g


def relation_split(source, target, rows, i) -> dict:
    """Stage pieces of row i read off the relation itself: the terms of
    ``source.relation_terms(i)`` grouped by their exponent t of y_i, with
    y_i^t dropped, each group mapped into the target by the earlier
    ``rows``.  An exponent that occurs in no term has no key."""
    split: dict[int, dict] = {}
    for e, c in source.relation_terms(i).items():
        rest = list(e)
        rest[i - 1] = 0
        split.setdefault(e[i - 1], {})[tuple(rest)] = c
    images = [target.linear_class(row) for row in rows]
    return {t: image_of_terms(target, images, part) for t, part in split.items()}


def taylor_shift_stage_relation(target, stage, rows) -> dict:
    """Every depressed piece D_r, D_0 included, of the relation of a source
    stage record (``search._stage_record``) under earlier ``rows``: the full
    Taylor shift by -c_1 of the coefficients (n+1)^q c_q, formed in the
    ring, with D_n = 0 dropped.  A reference for the constant that the
    shifted walk implies, which the package never forms."""
    top, c1, reads, higher = stage
    lift = [0] * target.height
    for j, c in c1:
        for k, v in enumerate(rows[j]):
            lift[k] += c * v
    image = target.linear_class(lift)
    w = [target.zero()] * (top + 1)  # w[t]: the coefficient of ((n+1) x)^t
    w[top], w[top - 1] = target.one(), top * image
    images = {j: target.linear_class(rows[j]) for j in reads}
    for q, cq in enumerate(higher, start=2):
        w[top - q] = image_of_terms(target, images, cq)
    for i in range(top):
        for j in range(top - 1, i - 1, -1):
            w[j] = w[j] - image * w[j + 1]
    assert w[top - 1].is_zero()
    return {t: p for t, p in enumerate(w) if t != top - 1 and not p.is_zero()}


def brute_force_iso_search(ring, ring_prime, bound):
    """The first matrix with entries in [-bound, bound], rows in
    lexicographic order, of a row-by-row search for a graded ring
    isomorphism H*(ring') -> H*(ring): row i runs over
    ``brute_force_scan`` of its ``relation_split``, positive and negative leading
    entries alike, and a prefix is kept when ``brute_force_minors_gcd`` of
    all its rows is 1.  Returns the matrix, or None."""
    target, source = ring, ring_prime
    if sorted(source.dims) != sorted(target.dims):
        return None
    m = source.height
    values = range(-bound, bound + 1)

    def dfs(rows):
        if len(rows) == m:
            return tuple(rows)
        pieces = relation_split(source, target, rows, len(rows) + 1)
        for row in brute_force_scan(target, pieces, max(pieces), values):
            if brute_force_minors_gcd(rows + [row], m) == 1:
                found = dfs(rows + [row])
                if found is not None:
                    return found
        return None

    return dfs([])


def gauss_solve_mod(matrix, rhs, n):
    """Solve ``matrix @ x = rhs`` over Z/n for an invertible square matrix
    of int entries, by Gauss-Jordan elimination on lists with a unit pivot
    in every column.  Raises ``ValueError`` when no unit pivot is left."""
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


def brute_force_wu_classes(tower):
    """Total Wu class over Z/2, solved in every degree d from
    integrate(v_d . x) = integrate(Sq(x)) over the basis x of degree
    top - d, with a ring product per pairing entry, a full Steenrod
    square per basis monomial and elimination on lists of residues."""
    ring = build_ring(tower, 2)
    top = ring.top_degree
    v = ring.one()
    for d in range(1, top + 1):
        comp = ring.basis(d)
        rows = []
        rhs = []
        for e in ring.basis(top - d):
            x = CohomologyClass(ring, {e: 1})
            rhs.append(int(ring.integrate(steenrod_square(x))))
            rows.append(
                [int(ring.integrate(CohomologyClass(ring, {g: 1}) * x)) for g in comp]
            )
        sol = gauss_solve_mod(rows, rhs, 2)
        v = v + CohomologyClass(ring, {g: s for g, s in zip(comp, sol) if s})
    return v


def root_by_root_tangent_classes(ring):
    """Total Chern and Pontrjagin classes of the tower of a ring, over its
    coefficients, multiplied out one Chern root at a time: the class times 1 + x, and
    times 1 + x * x, for every stage i and every root x = y_i + u, where u
    runs over zero and the linear classes of the stage's rows."""
    one = ring.one()
    chern = pontrjagin = one
    for y, stage in zip(ring.gens(), ring.tower.stages):
        pad = (0,) * (ring.height - stage.columns)
        for row in ((0,) * stage.columns,) + stage.summand_exponents:
            x = y + ring.linear_class(tuple(row) + pad)
            chern = chern * (one + x)
            pontrjagin = pontrjagin * (one + x * x)
    return chern, pontrjagin


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
