"""Bounded enumeration over degree-2 classes.

One scan primitive ("generate, in lexicographic order, the coefficient
vectors b in a box where a fixed polynomial expression in the class sum
b_j y_j vanishes") serves every enumeration over Z, Q and Z/n: the
square-zero search used by the rational-product criterion, the residue-box
square-zero counts of the 3-stage invariant battery, and the row-by-row
search for unimodular matrices inducing graded ring isomorphisms.

The expression is one polynomial in b per basis monomial, linear in the
pieces.  The scan structure (which polynomials can occur, their supports,
their integer weights and the walk over them) is compiled once per ring and
piece shape and kept on the ring; it holds no modulus.  Each call fills it
with the pieces' coefficients as integers and then walks the box
depth-first, one coordinate at a time, reducing by the modulus of the walk:
the ring's own over Z/n, or any n for a residue scan of a ring over Z.  The
relations are monic with integer coefficients, so the normal form over Z/n
is the normal form over Z reduced mod n, and a residue scan of the integer
ring finds what a scan of the Z/n ring finds.  Fixing b_j
substitutes it into the polynomials once for all the vectors that share
the prefix b_1..b_j (shared substitution), and a polynomial that involves
no coordinate after b_j is then a constant: a nonzero one rejects the
whole prefix at once (early rejection).  In a Bott tower the coefficient
of y_l y_k in h^2 involves b_k and lower coordinates only, so most
prefixes die well before the last coordinate.

The isomorphism search fixes the rows of a matrix depth-first; the DFS is
a recursive generator, taken at its first item.  A row's candidates are
lazily walked streams, one per stage image: the scan's pieces are the
Chern classes c_q of the stage table mapped by the rows fixed so far, and
the c_q read only the rows of the generators they involve, so DFS nodes
whose prefixes agree on those rows pull from one walk, which advances only
as far as some node takes it.  It searches row 1 up to sign: every
relation is homogeneous and the box is symmetric, so -M is a witness
whenever M is, and only rows 1 whose first nonzero entry is negative are
tried.  Its unimodularity prune carries a column transform down the tree
that clears the rows fixed so far, so each candidate row costs the gcd of
its m - depth free entries instead of a reduction of the whole prefix.

Results are deterministic: candidates are enumerated in lexicographic order
and the first complete witness is returned, which makes it the
lexicographically smallest one.
"""

from __future__ import annotations

from copy import copy
from fractions import Fraction
from itertools import combinations_with_replacement, tee
from math import factorial, lcm
from operator import mul

from .errors import DomainMismatchError, SearchBoundError
from .linalg import clear_row, minors_gcd
from .ring import (
    BottRing,
    CohomologyClass,
    IsoWitness,
    image_of_terms,
    verify_map,
)


def _compile(ring: BottRing, shape):
    """Scan structure shared by every call whose pieces have this shape.

    ``shape`` lists, per exponent t, the degrees that pieces[t] occupies.
    By the multinomial theorem the coefficient of b^alpha on the basis
    monomial mu is the sum over beta of

        pieces[|alpha|][beta] * multinomial(alpha) * NF(y^(beta + alpha))[mu],

    linear in the pieces.  Taking every basis monomial beta of those
    degrees gives each polynomial's possible support, and so a plan that
    every piece of the shape can be filled into.

    Returns ``(zeros, table, levels, width)``: ``zeros`` lists the
    monomials mu whose polynomial is only the constant pieces[0][mu];
    ``table[t, beta]`` lists the (root slot, weight) pairs that
    pieces[t][beta] adds to; ``levels`` and ``width`` are the walk of
    :func:`_plan`.  A weight is the integer multinomial(alpha) *
    NF(y^(beta + alpha))[mu], never reduced, so the plan serves a walk
    modulo any n (a weight that vanishes mod n only keeps a term that adds
    zero).  Nothing in the plan depends on the largest exponent of a call.
    """
    m = ring.height
    polys: dict = {}  # mu -> alpha -> [(t, beta, weight)]
    for t, degrees in shape:
        betas = [beta for d in degrees for beta in ring.basis(d)]
        for idx in combinations_with_replacement(range(m), t):
            alpha = [0] * m
            for j in idx:
                alpha[j] += 1
            alpha = tuple(alpha)
            mult = factorial(t)
            for a in alpha:
                mult //= factorial(a)
            for beta in betas:
                e = tuple(x + y for x, y in zip(alpha, beta))
                for mu, c in ring._monomial_nf(e).items():
                    polys.setdefault(mu, {}).setdefault(alpha, []).append(
                        (t, beta, mult * c))
    zeros = [mu for mu, poly in polys.items() if not any(map(any, poly))]
    polys = [poly for poly in polys.values() if any(map(any, poly))]
    slots, levels, width = _plan(polys, m)
    table: dict = {}
    for poly, slot in zip(polys, slots):
        for alpha, entries in poly.items():
            for t, beta, w in entries:
                table.setdefault((t, beta), []).append((slot[alpha], w))
    return zeros, table, levels, width


def _plan(polys, m: int):
    """Static plan of the walk over b_1..b_m for polynomials given by their
    supports (each an iterable of exponent vectors alpha).

    Entering level j (b_j is the next coordinate, 0-based), a polynomial
    still in play is held as one coefficient per distinct tail alpha[j:] of
    its exponent vectors: a slot.  Fixing b_j = v sends the slot of tail
    (k,) + s to the child's slot of s, times v^k.  A polynomial is settled
    at the level of the last coordinate it involves: fixing that coordinate
    leaves a constant.  Every polynomial must involve some coordinate.

    Returns the slot map, per polynomial {alpha: root slot}, the levels,
    per level ``(checks, spread, width)``, and the root's number of slots.
    ``checks`` holds, per polynomial settled there, the (slot, k) pairs
    whose sum of coeff * v^k is its constant; ``spread`` holds the (slot,
    child slot, k) multiply-adds that give the child's coefficients of the
    rest; ``width`` is the child's number of slots.
    """
    last = [max(j for a in poly for j, e in enumerate(a) if e) for poly in polys]
    terms = [(p, a) for p, poly in enumerate(polys) for a in poly]
    # built from the last level down, a slot is (k, its child slot) or, at
    # the settling level, (k, -1 - p): small keys, no tuple slicing
    slot = [-1 - p for p, _ in terms]
    levels = []
    width = 0
    for j in range(m - 1, -1, -1):
        index: dict = {}
        for t, (p, a) in enumerate(terms):
            if last[p] >= j:
                slot[t] = index.setdefault((a[j], slot[t]), len(index))
        checks: dict = {}
        spread = []
        for (k, child), s in index.items():
            if child < 0:
                checks.setdefault(child, []).append((s, k))
            else:
                spread.append((s, child, k))
        levels.append((list(checks.values()), spread, width))
        width = len(index)
    levels.reverse()
    slots: list[dict] = [{} for _ in polys]
    for (p, a), s in zip(terms, slot):
        slots[p][a] = s
    return slots, levels, width


def _scan(ring: BottRing, pieces: dict, tmax: int, values, mod=None):
    """Generate every nonzero b in values^m, in lexicographic order, with
    sum_t pieces[t] * (sum_j b_j y_j)^t == 0 (mod ``mod``).

    ``values`` lists the coefficients tried per coordinate, in order: a
    bounded search passes range(-bound, bound + 1), a count over Z/n passes
    the residues range(n).  ``mod`` is the modulus of the walk and defaults
    to the ring's own (none over Z and Q).  A ring over Z scanned with
    ``mod=n`` gives what the same scan of its ring over Z/n gives.

    The scan structure is compiled once per ring and piece shape (see
    :func:`_compile`) and kept on the ring, whatever the modulus; each call
    fills the root's coefficients from the pieces, as integers (reduced mod
    n in a walk mod n; over Q all scaled by one common denominator, which
    keeps every polynomial's zeros), and walks the polynomials depth-first
    over the coordinates, with an explicit stack, in the order of
    ``values`` at each level.  A node is a prefix b_1..b_j with the
    coefficients of the polynomials still in play after substituting it
    (see :func:`_plan`); each child costs one multiply-add per slot.  A
    polynomial settled by the child's coordinate must vanish (mod n in a
    walk mod n), else the child and its whole subtree are skipped; once
    settled it is dropped.  At the last coordinate every remaining
    polynomial is univariate and settles, so a leaf is a solution exactly
    when all of them vanish.  The walk is lazy: it advances only as far as
    its consumer takes vectors.
    """
    m = ring.height
    if mod is None:
        mod = ring._mod
    live = {}
    for t in range(min(tmax, ring.top_degree) + 1):
        piece = pieces.get(t)
        if piece is not None and not piece.is_zero():
            live[t] = piece
    shape = tuple((t, tuple(piece.degrees())) for t, piece in live.items())
    plan = ring._scan_plans.get(shape)
    if plan is None:
        plan = ring._scan_plans[shape] = _compile(ring, shape)
    zeros, table, levels, width = plan
    if zeros:  # polynomials that are the constant pieces[0][mu]
        constant = live[0]._c
        if any(constant.get(mu, 0) % mod if mod else mu in constant
               for mu in zeros):
            return  # a nonzero constant polynomial: no b solves it
    root = [0] * width
    for t, piece in live.items():
        for beta, c in piece.items():
            for s, w in table.get((t, beta), ()):
                root[s] += c * w
    if mod:
        root = [c % mod for c in root]
    elif isinstance(ring.domain.one, Fraction):
        scale = lcm(*(c.denominator for c in root))
        root = [int(c * scale) for c in root]
    powers = [[v**k for k in range(tmax + 1)] for v in values]
    stack = [((), root)]
    while stack:
        prefix, coeffs = stack.pop()
        checks, spread, width = levels[len(prefix)]
        children = []
        for v, pw in zip(values, powers):
            for terms in checks:
                c = 0
                for i, k in terms:
                    c += coeffs[i] * pw[k]
                if (c % mod if mod else c):
                    break
            else:
                vec = prefix + (v,)
                if len(vec) < m:
                    child = [0] * width
                    for i, ci, k in spread:
                        child[ci] += coeffs[i] * pw[k]
                    children.append((vec, child))
                elif any(vec):
                    yield vec
        children.reverse()
        stack += children


def _check_bound(bound) -> range:
    """Reject a negative, non-integer or bool search bound; otherwise
    return the per-coordinate values of the box [-bound, bound]."""
    if isinstance(bound, bool) or not isinstance(bound, int) or bound < 0:
        raise SearchBoundError(
            f"coefficient bound must be a nonnegative integer, got {bound!r}"
        )
    return range(-bound, bound + 1)


def square_zero_elements(ring: BottRing, k: int, bound: int) -> list[CohomologyClass]:
    """All classes sum(b_j y_j), not all b_j zero, |b_j| <= bound, whose k-th
    power vanishes, in lexicographic order over the coefficient vectors."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValueError("power must be a positive integer")
    values = _check_bound(bound)
    vectors = _scan(ring, {k: ring.one()}, k, values)
    return [ring.linear_class(v) for v in vectors]


def _stage_reads(ring: BottRing, i: int) -> tuple:
    """The generators y_j (0-based j < i - 1) that the c_q of stage i
    involve: the earlier rows of a matrix that row i's pieces depend on."""
    return tuple(sorted({j for cq in ring.chern[i - 1] for g in cq
                         for j, e in enumerate(g) if e}))


def _stage_pieces(source: BottRing, target: BottRing, rows, i: int) -> dict:
    """Scan pieces for row i of an iso_search matrix whose earlier rows are
    ``rows``: f_i = sum_q c_q y_i^(n_i+1-q), so piece n_i+1-q is the image
    of c_q, read from the stage table (c_0 = 1).  The c_q only involve
    generators < i, whose rows are fixed, and only the rows of the
    generators they involve are mapped; a zero c_q gives a zero piece."""
    images = {j: target.linear_class(rows[j]) for j in _stage_reads(source, i)}
    top = source.dims[i - 1] + 1
    pieces = {top: target.one()}
    for q, cq in enumerate(source.chern[i - 1], start=1):
        pieces[top - q] = image_of_terms(target, images, cq)
    return pieces


def iso_search(ring: BottRing, ring_prime: BottRing, bound: int) -> IsoWitness | None:
    """Search integer matrices with entries in [-bound, bound] for a graded
    ring isomorphism H*(ring') -> H*(ring).

    Row i of a candidate matrix expresses the image of the i-th primed
    generator in the unprimed basis.  Matrices are tried in lexicographic
    order (row 1 varies slowest); rows are filtered stage by stage, which is
    possible because the i-th relation only involves the first i generators
    (its pieces are the c_q of stage i, see :func:`_stage_pieces`).  The DFS
    is a generator of the stage-verified matrices in this order, taken at
    its first item.

    Row i's candidates are lazily walked streams, one per stage image: the
    pieces depend only on the earlier rows that the c_q of stage i read
    (:func:`_stage_reads`), so within one call every DFS node with the same
    such rows gets an independent cursor over one shared, buffered walk,
    and no walk goes past the last candidate some node has taken.

    Row 1 is searched up to sign.  Each relation is homogeneous, so -M is a
    witness whenever M is, and the box is symmetric; of M and -M the one
    whose row 1 leads with a negative entry comes first, so rows 1 leading
    with a positive entry are skipped.  The first witness is unchanged, and
    an exhaustive search walks half the tree.

    A gcd-of-minors prune discards prefixes that cannot complete to a
    unimodular matrix.  The DFS carries, per prefix of ``depth`` rows, a
    unimodular column transform U with prefix @ U = [L | 0] and |det L| = 1,
    so a candidate row r keeps the gcd of the maximal minors at 1 exactly
    when the free entries of r @ U (columns depth..m-1) have gcd 1: one
    single-row ``minors_gcd`` per candidate.  Descending extends U by
    Euclid's algorithm on the free columns only.  Returns the first
    verified witness, or None.
    """
    values = _check_bound(bound)
    target, source = ring, ring_prime
    if source.domain != target.domain:
        raise DomainMismatchError("rings must share a coefficient domain")
    if sorted(source.dims) != sorted(target.dims):
        return None
    m = source.height
    reads = [_stage_reads(source, i) for i in range(1, m + 1)]
    streams: dict = {}  # stage image -> its candidate rows, walked once

    def candidates(rows):
        depth = len(rows)
        key = (depth,) + tuple(rows[j] for j in reads[depth])
        stream = streams.get(key)
        if stream is None:
            pieces = _stage_pieces(source, target, rows, depth + 1)
            walk = _scan(target, pieces, max(pieces), values)
            stream = streams[key] = tee(walk, 1)[0]
        return copy(stream)  # an independent cursor over the shared walk

    def matrices(rows, cols):
        # cols[j] is column j of U; rows @ U vanishes on cols[depth:]
        depth = len(rows)
        if depth == m:
            # every row kept the minors gcd at 1, and the only maximal
            # minor of the square matrix is its determinant: |det| == 1
            yield rows
            return
        free = cols[depth:]
        for row in candidates(rows):
            if not depth and next(filter(None, row)) > 0:
                continue  # its negative is tried first (sign rule)
            tail = [sum(map(mul, row, col)) for col in free]
            if minors_gcd([tail], m - depth) != 1:
                continue
            yield from matrices(rows + (row,), cols[:depth] + clear_row(tail, free)[1])

    identity = [tuple(int(i == j) for i in range(m)) for j in range(m)]
    found = next(matrices((), identity), None)
    if found is None:
        return None
    rm = verify_map(source, target, found)
    if rm is None:  # cannot happen: every stage image was checked
        raise AssertionError("stage-verified matrix failed full verification")
    return IsoWitness(rm)
