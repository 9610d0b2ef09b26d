"""Bounded enumeration over degree-2 classes.

One scan primitive ("find all coefficient vectors b in a box where a fixed
polynomial expression in the class sum b_j y_j vanishes") serves every
enumeration over Z, Q and Z/n: the square-zero search used by the
rational-product criterion, the residue-box square-zero counts of the
3-stage invariant battery, and the row-by-row search for unimodular
matrices inducing graded ring isomorphisms.  Results are deterministic:
candidates are enumerated in lexicographic order and the first complete
witness is returned, which makes it the lexicographically smallest one.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial, lcm

from .errors import DomainMismatchError, SearchBoundError
from .linalg import det_int, minors_gcd
from .ring import (
    BottRing,
    CohomologyClass,
    IsoWitness,
    image_of_terms,
    verify_map,
)


def _expand(ring: BottRing, pieces: dict, tmax: int) -> list[dict]:
    """Expand sum_t pieces[t] * (sum_j b_j y_j)^t into polynomials in b.

    By the multinomial theorem the coefficient of b^alpha on the basis
    monomial mu is multinomial(alpha) * [pieces[|alpha|] * y^alpha]_mu, so
    one ring multiplication per exponent vector alpha gives everything.
    Returns the polynomials {alpha: coefficient} that are not identically
    zero, with integer coefficients: reduced mod n over Z/n, and over Q
    each one scaled by the lcm of its denominators (which keeps its zeros).
    """
    m = ring.height
    mod = ring._mod
    one = ring.domain.one
    polys: dict = {}
    for t in range(min(tmax, ring.top_degree) + 1):
        piece = pieces.get(t)
        if piece is None or piece.is_zero():
            continue
        for idx in combinations_with_replacement(range(m), t):
            alpha = [0] * m
            for j in idx:
                alpha[j] += 1
            alpha = tuple(alpha)
            mult = factorial(t)
            for a in alpha:
                mult //= factorial(a)
            for mu, c in ring._raw_mul(piece._c, {alpha: one}).items():
                polys.setdefault(mu, {})[alpha] = mult * c
    out = []
    for poly in polys.values():
        if isinstance(one, Fraction):
            scale = lcm(*(c.denominator for c in poly.values()))
            poly = {a: int(c * scale) for a, c in poly.items()}
        elif mod is not None:
            poly = {a: c % mod for a, c in poly.items()}
        poly = {a: c for a, c in poly.items() if c}
        if poly:
            out.append(poly)
    return out


def _scan(ring: BottRing, pieces: dict, tmax: int, values):
    """All nonzero b in values^m, in lexicographic order, with
    sum_t pieces[t] * (sum_j b_j y_j)^t == 0, found by evaluating the
    expanded polynomials of :func:`_expand` over the box.

    ``values`` lists the coefficients tried per coordinate, in order: a
    bounded search passes range(-bound, bound + 1), a count over Z/n passes
    the residues range(n)."""
    m = ring.height
    mod = ring._mod
    polys = _expand(ring, pieces, tmax)
    if not polys:
        return [vec for vec in product(values, repeat=m) if any(vec)]
    powers = {v: [v**k for k in range(tmax + 1)] for v in values}
    # each polynomial as (exponents of b_1..b_{m-1}, exponent of b_m, coeff)
    split = [[(a[:-1], a[-1], c) for a, c in poly.items()] for poly in polys]
    out = []
    for prefix in product(values, repeat=m - 1):
        # substitute the prefix: one univariate polynomial in b_m per basis
        # monomial; a nonzero constant rules out every b_m for this prefix
        pw = [powers[v] for v in prefix]
        univariate = []
        for terms in split:
            coeffs = [0] * (tmax + 1)
            for head, k, c in terms:
                for p, e in zip(pw, head):
                    c *= p[e]
                coeffs[k] += c
            if mod is not None:
                coeffs = [c % mod for c in coeffs]
            while coeffs and not coeffs[-1]:
                coeffs.pop()
            if len(coeffs) == 1:
                break
            if coeffs:
                univariate.append(coeffs)
        else:
            for v in values:
                pv = powers[v]
                for coeffs in univariate:
                    val = sum(c * p for c, p in zip(coeffs, pv))
                    if (val if mod is None else val % mod):
                        break
                else:
                    vec = prefix + (v,)
                    if any(vec):
                        out.append(vec)
    return out


def _check_bound(bound) -> range:
    """Reject a negative or non-integer search bound; otherwise return the
    per-coordinate values of the box [-bound, bound]."""
    if not isinstance(bound, int) or bound < 0:
        raise SearchBoundError(
            f"coefficient bound must be a nonnegative integer, got {bound!r}"
        )
    return range(-bound, bound + 1)


def square_zero_elements(ring: BottRing, k: int, bound: int) -> list[CohomologyClass]:
    """All classes sum(b_j y_j), not all b_j zero, |b_j| <= bound, whose k-th
    power vanishes, in lexicographic order over the coefficient vectors."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("power must be a positive integer")
    values = _check_bound(bound)
    vectors = _scan(ring, {k: ring.one()}, k, values)
    return [ring.linear_class(v) for v in vectors]


def _stage_pieces(source: BottRing, target: BottRing, rows, i: int) -> dict:
    """Scan pieces for row i of an iso_search matrix whose earlier rows are
    ``rows``: the source relation f_i split by the exponent t of the i-th
    primed generator, each cofactor mapped into the target.  The cofactors
    only involve generators < i, whose rows are fixed."""
    split: dict[int, dict] = {}
    for e, c in source.relation_terms(i).items():
        t = e[i - 1]
        rest = list(e)
        rest[i - 1] = 0
        split.setdefault(t, {})[tuple(rest)] = c
    return {t: image_of_terms(target, rows, part) for t, part in split.items()}


def iso_search(ring: BottRing, ring_prime: BottRing, bound: int) -> IsoWitness | None:
    """Search integer matrices with entries in [-bound, bound] for a graded
    ring isomorphism H*(ring') -> H*(ring).

    Row i of a candidate matrix expresses the image of the i-th primed
    generator in the unprimed basis.  Matrices are tried in lexicographic
    order (row 1 varies slowest); rows are filtered stage by stage, which is
    possible because the i-th relation only involves the first i generators.
    A gcd-of-minors prune discards prefixes that cannot complete to a
    unimodular matrix.  Returns the first verified witness, or None.
    """
    values = _check_bound(bound)
    target, source = ring, ring_prime
    if source.domain != target.domain:
        raise DomainMismatchError("rings must share a coefficient domain")
    if source.height != target.height:
        return None
    if sorted(source.dims) != sorted(target.dims):
        return None
    m = source.height
    rows: list[tuple[int, ...]] = []
    found = None

    def dfs() -> bool:
        nonlocal found
        depth = len(rows)
        if depth == m:
            if abs(det_int([list(r) for r in rows])) == 1:
                found = tuple(rows)
                return True
            return False
        pieces = _stage_pieces(source, target, rows, depth + 1)
        candidates = _scan(target, pieces, max(pieces), values)
        for row in candidates:
            rows.append(row)
            if minors_gcd(rows, m) == 1 and dfs():
                return True
            rows.pop()
        return False

    if not dfs():
        return None
    rm = verify_map(source, target, found)
    if rm is None:  # cannot happen: every stage image was checked
        raise AssertionError("stage-verified matrix failed full verification")
    return IsoWitness(rm)
