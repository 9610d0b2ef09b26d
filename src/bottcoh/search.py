"""Bounded enumeration over degree-2 classes of rings over Z.

One scan primitive ("generate, in lexicographic order, the coefficient
vectors b in a box where a fixed polynomial expression in the class sum
b_j y_j vanishes") serves every enumeration: the square-zero search used by
the rational-product criterion, the residue-box square-zero counts of the
3-stage invariant battery, and the row-by-row search for unimodular
matrices inducing graded ring isomorphisms.  Only rings over Z are scanned
and searched; a question over Z/n is a walk of the integer ring modulo n,
named by the caller.  The relations are monic with integer coefficients, so
the normal form over Z/n is the normal form over Z reduced mod n, and a
walk mod n of the integer ring finds what a scan of the Z/n ring would
find.  The ring is free over Z, so an integer class vanishes over Q exactly
when it vanishes over Z.

The expression is one polynomial in b per basis monomial, linear in the
pieces.  The scan structure (which polynomials can occur, their supports,
their integer weights and the walk over them) is compiled once per ring and
shape of the pieces of positive exponent and kept on the ring; it holds no
modulus.  Only the weights are the ring's own: the walk reads the supports
alone, so rings whose polynomials have the same supports (a tower and its
sign twists, say) take one immutable walk, shared by support signature from
a bounded module-level cache.  A constant piece takes no slot: its
coefficient on a monomial is where that monomial's polynomial starts at its
settling check.  Each call fills the structure with the pieces' integer
coefficients and then walks the box depth-first, one coordinate at a time,
reducing by the modulus of the walk.  A walk over Z may substitute the
affine coordinates z_j = s b_j + l_j (s > 0) for b_j, and then solves the
expression less the value at z = l of its pieces of positive exponent; it
still yields b, in the same order.
Fixing b_j substitutes it into the polynomials once for all the vectors
that share the prefix b_1..b_j (shared substitution), and a polynomial that
involves no coordinate after b_j is then a constant: a nonzero one rejects
the whole prefix at once (early rejection).  In a Bott tower the
coefficient of y_l y_k in h^2 involves b_k and lower coordinates only, so
most prefixes die well before the last coordinate.  Each level of the plan
lays out a node's coefficients so that the child's slot c is the node's
slot c, a term free of z_j: a child starts as a slice of its parent and
pays a multiply-add only for the terms in which z_j occurs.

The isomorphism search fixes the rows of a matrix depth-first; the DFS is a
recursive generator, taken at its first item.  A row's candidates are
lazily walked streams, one per stage image: row i solves the stage relation
f_i(x) = sum_q c_q x^(n+1-q), the Chern classes c_q of the stage table
mapped by the rows fixed so far, depressed by z = (n+1) x + c_1 so that the
term in z^n vanishes.  The search reads each stage's n + 1, c_1 and c_q
from one record derived when it starts, and builds each depressed relation
from it in one pass (``_stage_relation``).  x = 0 solves every stage
relation, so the depressed sum vanishes at z = c_1 and its constant is
minus the value of the other terms there: no relation forms it, and the
shifted walk reads that value along its own path b = 0.  A CP^1 stage,
z^2 = c_1^2, is then the pieces {2: 1} of row 1, read off c_1 with no ring
arithmetic, so every row of a Bott-tower search walks the one {2: 1} plan
of its target ring.  The c_q
read only the rows of the generators they involve, so DFS nodes whose
prefixes agree on those rows pull from one walk, which advances only as
far as some node takes it.  It searches row 1 up to sign: every relation
is homogeneous and the box is symmetric, so -M is a witness whenever M is,
and only rows 1 whose first nonzero entry is negative are tried: in
lexicographic order they come first, and the search stops at the first row
1 that leads positive.  Its
unimodularity prune carries a column transform down the tree that clears
the rows fixed so far, so each candidate row costs the gcd of its
m - depth free entries instead of a reduction of the whole prefix.

Results are deterministic: candidates are enumerated in lexicographic order
and the first complete witness is returned, which makes it the
lexicographically smallest one.
"""

from __future__ import annotations

from copy import copy
from functools import lru_cache
from itertools import combinations_with_replacement, tee
from math import factorial
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
    """Scan structure shared by every call whose pieces of exponent t >= 1
    have this shape.

    ``shape`` lists, per exponent t >= 1, the degrees that pieces[t]
    occupies.  By the multinomial theorem the coefficient of z^alpha on the
    basis monomial mu is the sum over beta of

        pieces[|alpha|][beta] * multinomial(alpha) * NF(y^(beta + alpha))[mu],

    linear in the pieces.  Taking every basis monomial beta of those
    degrees gives each polynomial's possible support, and so a plan that
    every piece of the shape can be filled into.  The constant piece
    pieces[0] takes no slot: its coefficient on mu is where the polynomial
    of mu starts at its settling check.

    Returns ``(settle, table, levels, width)``: ``settle[mu]`` is the
    (level, check) pair that settles the polynomial of mu, and a monomial
    with no key lies outside every polynomial; ``table[t, beta]`` lists the
    (root slot, weight) pairs that pieces[t][beta] adds to; ``levels`` and
    ``width`` are the walk of :func:`_plan`.  The settling checks and the
    weights are this ring's; the walk is shared by support signature, the
    alphas of each polynomial in order together with m, which is all that
    :func:`_plan` reads, so rings whose polynomials differ only in their
    weights take the same ``levels`` object.  A weight is the integer
    multinomial(alpha) * NF(y^(beta + alpha))[mu], never reduced, so the
    plan serves a walk modulo any n (a weight that vanishes mod n only
    keeps a term that adds zero).  Nothing in the plan depends on the
    largest exponent of a call, on its constant piece or on its shift.
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
    signature = tuple(tuple(poly) for poly in polys.values())
    slots, settle, levels, width = _plan(signature, m)
    table: dict = {}
    for poly, slot in zip(polys.values(), slots):
        for entries, s in zip(poly.values(), slot):
            for t, beta, w in entries:
                table.setdefault((t, beta), []).append((s, w))
    return dict(zip(polys, settle)), table, levels, width


@lru_cache(maxsize=128)
def _plan(polys: tuple, m: int):
    """Static plan of the walk over z_1..z_m for polynomials given by their
    supports (each a tuple of exponent vectors alpha).  Plans are cached by
    these arguments, the support signature and m, and shared between rings,
    so every part of one is a tuple and no caller changes it.

    Entering level j (z_j is the next coordinate, 0-based), a polynomial
    still in play is held as one coefficient per distinct tail alpha[j:] of
    its exponent vectors: a slot.  Fixing z_j = v sends the slot of tail
    (k,) + s to the child's slot of s, times v^k.  A polynomial is settled
    at the level of the last coordinate it involves: fixing that coordinate
    leaves a constant.  Every polynomial must involve some coordinate.

    Slot c below the child's width is the tail (0,) + (the child's slot c),
    so the child's coefficients start as this level's first ``width``
    slots, copied as they are; where no term has that tail the slot is a
    zero slot, which holds 0 at every node.  The slots after them hold the
    tails with k >= 1 and those settled at this level.

    Returns the slot map, per polynomial the root slot of each of its
    alphas in order, the settling check of each polynomial as a pair
    (level, index into that level's ``checks``), the levels, per level
    ``(checks, spread, width)``, and the root's number of slots.  ``checks``
    holds, per polynomial settled there, the pair (terms, start): its value
    is start plus the sum of coeff * v^k over its (slot, k) terms, and the
    start is 0 here, for a call to set from its constant piece and shift;
    ``spread`` holds the (slot, child slot, k) multiply-adds, all of k >= 1,
    that add to the child's copied slots; ``width`` is the child's number
    of slots.
    """
    last = [max(j for a in poly for j, e in enumerate(a) if e) for poly in polys]
    terms = [(p, a) for p, poly in enumerate(polys) for a in poly]
    # built from the last level down, a slot is (k, its child slot) or, at
    # the settling level, (k, -1 - p): small keys, no tuple slicing
    slot = [-1 - p for p, _ in terms]
    settle = [None] * len(polys)
    levels = []
    width = 0
    for j in range(m - 1, -1, -1):
        # slot c < width is (0, c): the child's slot c, carried as it is
        index: dict = {(0, c): c for c in range(width)}
        for t, (p, a) in enumerate(terms):
            if last[p] >= j:
                slot[t] = index.setdefault((a[j], slot[t]), len(index))
        checks: dict = {}
        spread = []
        for (k, child), s in index.items():
            if child < 0:
                checks.setdefault(child, []).append((s, k))
            elif k:
                spread.append((s, child, k))
        for c, child in enumerate(checks):
            settle[-1 - child] = (j, c)
        levels.append((tuple((tuple(pairs), 0) for pairs in checks.values()),
                       tuple(spread), width))
        width = len(index)
    slots: list[list] = [[] for _ in polys]
    for (p, _), s in zip(terms, slot):
        slots[p].append(s)
    return tuple(map(tuple, slots)), tuple(settle), tuple(reversed(levels)), width


def _scan(ring: BottRing, pieces: dict, values, mod=0, shift=None):
    """Generate every nonzero b in values^m, in lexicographic order, with

        pieces[0] + sum_(t>=1) pieces[t] * (h_z^t - h_l^t) == 0 (mod ``mod``)

    in a ring over Z, h_z = sum_j z_j y_j, where z_j = s * b_j + l_j for
    ``shift`` = (s, l) with s > 0, and z = b, l = 0 without one: an
    unshifted walk solves sum_t pieces[t] * h_b^t == 0.

    ``values`` lists the coefficients tried per coordinate, in order: a
    bounded search passes range(-bound, bound + 1), a count over Z/n passes
    the residues range(n).  ``mod`` is the modulus of the walk, 0 for none;
    the caller names it, and a walk mod n gives what the same scan of the
    ring over Z/n would give.  A shifted walk is over Z (``mod`` 0), where
    the isomorphism search uses it for its depressed stage relations (see
    :func:`_stage_relation`): the value at z = l of its pieces t >= 1 is
    minus the constant that each depressed relation leaves out.  z_j is
    increasing in b_j, so the order is kept.  Pieces above the top degree
    add zero.

    The scan structure is compiled once per ring and shape of the pieces
    of exponent t >= 1 (see :func:`_compile`) and kept on the ring,
    whatever the modulus, constant piece or shift, its walk shared by
    support signature with other rings; each call fills the
    root's coefficients from those pieces (reduced mod n in a walk mod n),
    starts each polynomial's settling check at its coefficient in the
    constant piece, less, in a walk with l != 0, the polynomial's value at
    z = l, read along the walk's own path b = 0 in one pass over the
    levels, and walks the polynomials depth-first over the
    coordinates, with an explicit stack, in the order of ``values`` at each
    level.  A nonzero constant on a monomial outside every polynomial ends
    the walk before it starts.  A node is a prefix b_1..b_j with the
    coefficients of the polynomials still in play after substituting
    z_1..z_j (see :func:`_plan`); a child, also on the path b = 0, is the
    slice of the node's first ``width`` slots, the terms free of z_j, plus
    one multiply-add per ``spread`` entry, a term in z_j^k with k >= 1.  A
    polynomial settled by the child's coordinate must vanish (mod
    n in a walk mod n), else the child and its whole subtree are skipped;
    once settled it is dropped.  At the last coordinate every remaining
    polynomial is univariate and settles, so a leaf is a solution exactly
    when all of them vanish.  The walk is lazy: it advances only as far as
    its consumer takes vectors.
    """
    m = ring.height
    live = {t: piece for t, piece in sorted(pieces.items())
            if 0 <= t <= ring.top_degree and not piece.is_zero()}
    constant = live.pop(0, {})
    shape = tuple((t, tuple(piece.degrees())) for t, piece in live.items())
    plan = ring._scan_plans.get(shape)
    if plan is None:
        plan = ring._scan_plans[shape] = _compile(ring, shape)
    settle, table, levels, width = plan
    starts = {}
    for mu, c in constant.items():
        at = settle.get(mu)
        if at is not None:
            starts[at] = c
        elif not mod or c % mod:
            return  # a nonzero constant polynomial: no b solves it
    root = [0] * width
    for t, piece in live.items():
        for beta, c in piece.items():
            for s, w in table.get((t, beta), ()):
                root[s] += c * w
    if mod:
        root = [c % mod for c in root]
    scale, lift = shift or (1, (0,) * m)
    top = max(live, default=0)
    if any(lift):
        # each settling check starts less its polynomial's value at z = l,
        # read along the one path b = 0 in a pass over the levels
        coeffs = root
        for j, ((checks, spread, child_width), l) in enumerate(zip(levels, lift)):
            pw = _powers((0,), scale, l, top)[0]
            for i, (terms, _) in enumerate(checks):
                value = 0
                for s, k in terms:
                    value += coeffs[s] * pw[k]
                if value:
                    starts[j, i] = starts.get((j, i), 0) - value
            child = coeffs[:child_width]
            for s, cs, k in spread:
                child[cs] += coeffs[s] * pw[k]
            coeffs = child
    if starts:
        levels = list(levels)
        for j in {j for j, _ in starts}:
            checks, spread, child_width = levels[j]
            checks = [(terms, starts.get((j, i), 0))
                      for i, (terms, _) in enumerate(checks)]
            levels[j] = checks, spread, child_width
    values = tuple(values)
    powers = [_powers(values, scale, l, top) for l in lift]
    stack = [((), root)]
    while stack:
        prefix, coeffs = stack.pop()
        depth = len(prefix)
        checks, spread, width = levels[depth]
        children = []
        for v, pw in zip(values, powers[depth]):
            for terms, c in checks:
                for i, k in terms:
                    c += coeffs[i] * pw[k]
                if (c % mod if mod else c):
                    break
            else:
                vec = prefix + (v,)
                if len(vec) < m:
                    child = coeffs[:width]
                    for i, ci, k in spread:
                        child[ci] += coeffs[i] * pw[k]
                    children.append((vec, child))
                elif any(vec):
                    yield vec
        children.reverse()
        stack += children


@lru_cache(maxsize=128)
def _powers(values: tuple, scale: int, offset: int, top: int) -> tuple:
    """Per v in ``values``, the powers (scale * v + offset)^k for k <= top.
    A search reuses a few dozen tables; the bound keeps a long search at a
    large bound from holding on to many tables of (2 bound + 1) rows."""
    return tuple(tuple((scale * v + offset)**k for k in range(top + 1))
                 for v in values)


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
    power vanishes, in lexicographic order over the coefficient vectors.
    The ring must be over Z (DomainMismatchError otherwise)."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValueError("power must be a positive integer")
    values = _check_bound(bound)
    if ring.mod:
        raise DomainMismatchError("only rings over Z are searched")
    vectors = _scan(ring, {k: ring.one()}, values)
    return [ring.linear_class(v) for v in vectors]


def _stage_record(ring: BottRing, i: int) -> tuple:
    """The record of stage i that :func:`_stage_relation` reads:
    ``(n + 1, c1, reads, higher)``, c1 the pairs (j, a_j) of
    c_1 = sum_j a_j y_(j+1), reads the generators (0-based j < i - 1) that
    the c_q involve, which are the earlier rows of a matrix that row i's
    relation depends on, and higher the c_q for q >= 2, each times
    (n + 1)^q."""
    chern = ring.chern[i - 1]
    top = ring.dims[i - 1] + 1
    reads = tuple(sorted({j for cq in chern for g in cq for j, e in enumerate(g) if e}))
    higher = tuple({g: c * top**q for g, c in cq.items()}
                   for q, cq in enumerate(chern[1:], start=2))
    return top, tuple((g.index(1), a) for g, a in chern[0].items()), reads, higher


def _stage_relation(target: BottRing, stage: tuple, rows):
    """Depressed pieces and shift of the scan of row i of an iso_search
    matrix whose earlier rows are ``rows``, ``stage`` the record of source
    stage i (:func:`_stage_record`).

    Row i solves f(x) = sum_q c_q x^(n+1-q), c_0 = 1, each c_q mapped
    through the rows of the generators it reads; the image of c_1 is the
    linear class of l = sum_j a_j rows[j].  The substitution
    z = (n+1) x + c_1 gives (n+1)^(n+1) f = sum_r D_r z^r with
    D_(n+1) = 1, D_n = 0 and

        D_r = sum_q (n+1)^q C(n+1-q, r) (-c_1)^(n+1-q-r) c_q,

    computed for 1 <= r < n as the Taylor shift by -c_1 of the coefficients
    (n+1)^q c_q, the images of the record's scaled c_q; its last step,
    which only clears D_n, is skipped.  D_0 is not formed: f = x prod_u
    (x + u) vanishes at x = 0, where z is the image of c_1, so
    D_0 = -sum_(r>=1) D_r c_1^r, the constant that the shifted walk of
    :func:`_scan` implies.  The ring is free over Z, so f vanishes exactly
    where the depressed sum does.  Returns the pieces {r: D_r} (r >= 1) and
    the shift (n + 1, l) of :func:`_scan`, so that z_j = (n+1) b_j + l_j.
    A CP^1 stage is z^2 = c_1^2: the pieces {2: 1}, read off the lift alone
    with no ring arithmetic.
    """
    top, c1, reads, higher = stage
    lift = [0] * target.height
    for j, c in c1:
        for k, v in enumerate(rows[j]):
            lift[k] += c * v
    pieces = {top: target.one()}
    if top > 2:
        image = target.linear_class(lift)._c
        shift = {e: -c for e, c in image.items()}
        # a[t] = (n+1)^(n+1-t) c_(n+1-t), the coefficients in w = (n+1) x,
        # for 1 <= t <= n; a[0] = c_(n+1) = 0 is never read, and a[top] = 1
        # is not stored
        a = [{} for _ in range(top - 1)] + [{e: top * c for e, c in image.items()}]
        images = {j: target.linear_class(rows[j]) for j in reads}
        for q, cq in enumerate(higher, start=2):
            a[top - q] = image_of_terms(target, images, cq)._c
        for i in range(top - 1):
            target._raw_add(a[top - 1], shift)  # shift * a[top]
            for j in range(top - 2, max(i, 1) - 1, -1):  # j = 0 would form D_0
                if a[j + 1]:
                    target._raw_add(a[j], target._raw_mul(shift, a[j + 1]))
        pieces.update((t, CohomologyClass(target, a[t]))
                      for t in range(1, top - 1) if a[t])
    return pieces, (top, tuple(lift))


def iso_search(ring: BottRing, ring_prime: BottRing, bound: int) -> IsoWitness | None:
    """Search integer matrices with entries in [-bound, bound] for a graded
    ring isomorphism H*(ring') -> H*(ring).  Both rings must be over Z
    (DomainMismatchError otherwise).

    Row i of a candidate matrix expresses the image of the i-th primed
    generator in the unprimed basis.  Matrices are tried in lexicographic
    order (row 1 varies slowest); rows are filtered stage by stage, which is
    possible because the i-th relation only involves the first i generators
    (its pieces are the c_q of stage i).  When the search starts it derives
    one record per source stage (:func:`_stage_record`): n + 1, c_1 as
    (generator, coefficient) pairs, the generators the c_q read and the
    c_q for q >= 2.  The DFS is a generator of the stage-verified matrices
    in this order, taken at its first item.

    Every row walks its stage relation depressed by z = (n+1) x + c_1, built
    in one pass from the record and the earlier rows
    (:func:`_stage_relation`), one rule for every fiber dimension: the scan
    runs over z_j = (n+1) b_j + l_j, l the coefficients of the image of
    c_1, and yields b.  The ring is free over Z, so no solution is lost,
    and z is increasing in b, so the order and the first witness are kept.
    x = 0 solves each relation, so the constant of the depressed relation
    is minus the value of its other terms at z = l, which the walk implies
    and no row forms.  A CP^1 row is z^2 = c_1^2: the pieces {2: 1} and no
    constant piece, the plan of row 1, so a search on a Bott tower compiles
    one plan on its target ring and forms no product for its rows.

    Row i's candidates are lazily walked streams, one per stage image: the
    pieces depend only on the earlier rows that the c_q of stage i read
    (the reads of the record), so within one call every DFS node with the
    same such rows gets an independent cursor over one shared, buffered
    walk, and no walk goes past the last candidate some node has taken.

    Row 1 is searched up to sign.  Each relation is homogeneous, so -M is a
    witness whenever M is, and the box is symmetric; of M and -M the one
    whose row 1 leads with a negative entry comes first, so only rows 1
    leading with a negative entry are tried.  Row 1 is walked in
    lexicographic order over a symmetric box, so every row 1 after the
    first that leads positive leads positive too, and the search ends
    there.  The first witness is unchanged, and an exhaustive search walks
    half the tree and stops its row-1 walk at the midpoint.

    A gcd-of-minors prune discards prefixes that cannot complete to a
    unimodular matrix.  The DFS carries, per prefix of ``depth`` rows, a
    unimodular column transform U with prefix @ U = [L | 0] and |det L| = 1,
    so a candidate row r keeps the gcd of the maximal minors at 1 exactly
    when the free entries of r @ U (columns depth..m-1) have gcd 1: one
    single-row ``minors_gcd`` per candidate, the gcd of those entries.
    Descending extends U by Euclid's algorithm on the free columns only.
    Returns the first
    verified witness, or None.
    """
    values = _check_bound(bound)
    target, source = ring, ring_prime
    if target.mod or source.mod:
        raise DomainMismatchError("only rings over Z are searched")
    if sorted(source.dims) != sorted(target.dims):
        return None
    m = source.height
    stages = [_stage_record(source, i) for i in range(1, m + 1)]
    streams: dict = {}  # stage image -> its candidate rows, walked once

    def candidates(rows):
        depth = len(rows)
        # a stage image is fixed by the rows its c_q read, the record's reads
        key = (depth,) + tuple(rows[j] for j in stages[depth][2])
        stream = streams.get(key)
        if stream is None:
            pieces, shift = _stage_relation(target, stages[depth], rows)
            walk = _scan(target, pieces, values, 0, shift)
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
                return  # so does every later row 1; each negative was tried (sign rule)
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
