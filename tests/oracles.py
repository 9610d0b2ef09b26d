"""Independent oracles for the test suite.

The sympy route reduces polynomials modulo the tower relations with a
Groebner-basis division algorithm, sharing no code with the package's
rewriting engine.  The randomized reducer exercises arbitrary reduction
orders to check confluence.  The brute-force scan evaluates the scan
expression in the ring once per coefficient vector, sharing no code with
the package's polynomial expansion.  The brute-force minors gcd computes
every maximal minor by its own determinant, where the package reduces
columns.  The brute-force isomorphism search tries every row the
brute-force scan admits, both signs of row 1 included, and recomputes the
minors gcd of the whole prefix for each, where the package searches row 1
up to sign and carries a column transform down the tree.  The brute-force
Wu solve takes one full Steenrod square per basis monomial and one ring
product per pairing entry, in every degree, where the package reads both
sides from the top-degree functional.
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd

import sympy as sp

from bottcoh import GF2, ModularDomain, build_ring, steenrod_square
from bottcoh.linalg import det_int, solve_mod
from bottcoh.ring import CohomologyClass
from bottcoh.search import _stage_pieces


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


def sympy_normal_form(tower, terms) -> dict:
    """Reduce {exponents: coeff} modulo the relations; returns the same shape."""
    ys, _, basis = sympy_ring_data(tower)
    expr = sp.Integer(0)
    for e, c in terms.items():
        mono = sp.Integer(c)
        for y, k in zip(ys, e):
            mono *= y**k
        expr += mono
    remainder = basis.reduce(sp.expand(expr))[1]
    poly = sp.Poly(remainder, *ys)
    out = {}
    for mono, coeff in poly.terms():
        if coeff:
            out[tuple(int(k) for k in mono)] = int(coeff)
    return out


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


def brute_force_scan(ring, pieces, tmax, values) -> list:
    """All nonzero b in values^m, in lexicographic order, with
    sum_t pieces[t] * (sum_j b_j y_j)^t == 0, by Horner's rule in the ring."""
    zero = ring.zero()
    piece_list = [pieces.get(t, zero) for t in range(tmax + 1)]
    out = []
    for vec in product(values, repeat=ring.height):
        if not any(vec):
            continue
        h = ring.linear_class(vec)
        acc = piece_list[tmax]
        for t in range(tmax - 1, -1, -1):
            acc = acc * h + piece_list[t]
        if acc.is_zero():
            out.append(vec)
    return out


def brute_force_square_zero_count(tower, modulus) -> int:
    """Number of nonzero residue vectors b in (Z/modulus)^m whose class
    sum_j b_j y_j squares to zero over Z/modulus, one ring square each."""
    ring = build_ring(tower, ModularDomain(modulus))
    count = 0
    for vec in product(range(modulus), repeat=ring.height):
        if not any(vec):
            continue
        h = ring.linear_class(vec)
        if (h * h).is_zero():
            count += 1
    return count


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


def brute_force_iso_search(ring, ring_prime, bound):
    """The first matrix with entries in [-bound, bound], rows in
    lexicographic order, of a row-by-row search for a graded ring
    isomorphism H*(ring') -> H*(ring): row i runs over
    ``brute_force_scan`` of its stage pieces, positive and negative leading
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
        pieces = _stage_pieces(source, target, rows, len(rows) + 1)
        for row in brute_force_scan(target, pieces, max(pieces), values):
            if brute_force_minors_gcd(rows + [row], m) == 1:
                found = dfs(rows + [row])
                if found is not None:
                    return found
        return None

    return dfs([])


def brute_force_wu_classes(tower):
    """Total Wu class over Z/2, solved in every degree d from
    integrate(v_d . x) = integrate(Sq(x)) over the basis x of degree
    top - d, with a ring product per pairing entry and a full Steenrod
    square per basis monomial."""
    ring = build_ring(tower, GF2)
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
        sol = solve_mod(rows, rhs, 2)
        v = v + CohomologyClass(ring, {g: s for g, s in zip(comp, sol) if s})
    return v
