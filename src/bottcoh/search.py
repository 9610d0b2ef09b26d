"""Bounded enumeration over degree-2 classes of rings over Z.

One scan primitive ("generate, in lexicographic order, the coefficient
vectors b in a box where a fixed polynomial expression in the class sum
b_j y_j vanishes") serves the square-zero search used by the
rational-product criterion and the rows of fiber n >= 2 in the row-by-row
search for unimodular matrices inducing graded ring isomorphisms; a row of
a CP^1 stage, a quadratic, is solved in closed form, and the residue-box
square-zero counts of the 3-stage invariant battery solve the same column
equations modulo n (``_square_zero_residues``) with no plan and no walk.
Only rings over Z are scanned and searched; a question over Z/n is asked
of the integer ring modulo n, which a walk's caller names.  The relations
are monic with integer coefficients, so the normal form over Z/n is the
normal form over Z reduced mod n, and a walk (or a count) mod n of the
integer ring finds what one in the Z/n ring would find.  The ring is free
over Z, so an integer class vanishes over Q exactly when it vanishes over
Z.

The expression is one polynomial in b per basis monomial, linear in the
pieces, which all have a positive exponent: every caller's expression
vanishes at b = 0.  The scan structure (which polynomials can occur, their
supports, their integer weights and the walk over them) is compiled once
per ring and shape of the pieces and kept on the ring; it holds no
modulus.  Only the weights are the ring's own: the walk reads the supports
alone, so rings whose polynomials have the same supports (a tower and its
sign twists, say) take one immutable walk, shared by support signature from
a bounded module-level cache.  Each call fills the structure with the
pieces' integer coefficients and then walks the box depth-first, one
coordinate at a time, reducing by the modulus of the walk.  A walk over Z
may substitute the affine coordinates z_j = s b_j + l_j (s > 0) for b_j,
and then solves the expression less its value at z = l, which starts each
polynomial's check; it still yields b, in the same order.
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
recursive generator, taken at its first item.  Row i solves the stage
relation f_i(x) = sum_q c_q x^(n+1-q), the Chern classes c_q of the stage
table mapped by the rows fixed so far; the search reads each stage's n + 1,
c_1 and c_q from one record derived when it starts.  A CP^1 stage is
x (x + L) = 0 in H^4, L the image of c_1.  In degree 2 the target rewrites
only y_k^2, and only over a CP^1 stage k, so column k of the equations
involves x_k and lower coordinates alone, and a value of x_k with
2 x_k + L_k != 0 determines every lower coordinate: ``_cp1_rows`` fixes
x_k from the last coordinate down, walks no box and does no ring
arithmetic, and sorts what it finds.  Its candidates depend on L alone,
so every DFS node with the same L reads one list.  A row of fiber n >= 2
walks its relation depressed by z = (n+1) x + c_1 so that the term in z^n
vanishes, built in one pass from the record (``_stage_relation``).  x = 0
solves every stage relation, so the depressed sum vanishes at z = c_1 and
its constant is minus the value of the other terms there: no relation
forms it, and the shifted walk reads that value along its own path b = 0.
The c_q read only the rows of the generators they involve, so DFS nodes
whose prefixes agree on those rows pull from one walk, which advances only
as far as some node takes it.  It searches row 1 up to sign: every
relation is homogeneous and the box is symmetric, so -M is a witness
whenever M is, and only rows 1 whose first nonzero entry is negative are
tried: in lexicographic order they come first, and the search stops at the
first row 1 that leads positive.  Its unimodularity prune carries a column
transform down the tree that clears the rows fixed so far, so each
candidate row costs the gcd of its m - depth free entries instead of a
reduction of the whole prefix.

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
    """Scan structure shared by every call whose pieces have this shape.

    ``shape`` lists, per exponent t >= 1, the degrees that pieces[t]
    occupies.  By the multinomial theorem the coefficient of z^alpha on the
    basis monomial mu is the sum over beta of

        pieces[|alpha|][beta] * multinomial(alpha) * NF(y^(beta + alpha))[mu],

    linear in the pieces.  Taking every basis monomial beta of those
    degrees gives each polynomial's possible support, and so a plan that
    every piece of the shape can be filled into.

    Returns ``(table, levels, width)``: ``table[t, beta]`` lists the (root
    slot, weight) pairs that pieces[t][beta] adds to; ``levels`` and
    ``width`` are the walk of :func:`_plan`.  The weights are this ring's;
    the walk is shared by support signature, the alphas of each polynomial
    in order together with m, which is all that :func:`_plan` reads, so
    rings whose polynomials differ only in their weights take the same
    ``levels`` object.  A weight is the integer
    multinomial(alpha) * NF(y^(beta + alpha))[mu], never reduced, so the
    plan serves a walk modulo any n (a weight that vanishes mod n only
    keeps a term that adds zero).  Nothing in the plan depends on the
    largest exponent of a call or on its shift.
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
    slots, levels, width = _plan(tuple(tuple(poly) for poly in polys.values()), m)
    table: dict = {}
    for poly, slot in zip(polys.values(), slots):
        for entries, s in zip(poly.values(), slot):
            for t, beta, w in entries:
                table.setdefault((t, beta), []).append((s, w))
    return table, levels, width


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
    alphas in order, the levels, per level ``(checks, spread, width)``, and
    the root's number of slots.  ``checks`` holds, per polynomial settled
    there, the pair (terms, start): its value is start plus the sum of
    coeff * v^k over its (slot, k) terms, and the start is 0 here, for a
    shifted walk to set in its own copy of the levels; ``spread`` holds the
    (slot, child slot, k) multiply-adds, all of k >= 1, that add to the
    child's copied slots; ``width`` is the child's number of slots.
    """
    last = [max(j for a in poly for j, e in enumerate(a) if e) for poly in polys]
    terms = [(p, a) for p, poly in enumerate(polys) for a in poly]
    # built from the last level down, a slot is (k, its child slot) or, at
    # the settling level, (k, -1 - p): small keys, no tuple slicing
    slot = [-1 - p for p, _ in terms]
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
        levels.append((tuple((tuple(pairs), 0) for pairs in checks.values()),
                       tuple(spread), width))
        width = len(index)
    slots: list[list] = [[] for _ in polys]
    for (p, _), s in zip(terms, slot):
        slots[p].append(s)
    return tuple(map(tuple, slots)), tuple(reversed(levels)), width


def _scan(ring: BottRing, pieces: dict, values, mod=0, shift=None):
    """Generate every nonzero b in values^m, in lexicographic order, with

        sum_(t>=1) pieces[t] * (h_z^t - h_l^t) == 0 (mod ``mod``)

    in a ring over Z, h_z = sum_j z_j y_j, where z_j = s * b_j + l_j for
    ``shift`` = (s, l) with s > 0, and z = b, l = 0 without one: an
    unshifted walk solves sum_t pieces[t] * h_b^t == 0.  ``pieces`` maps
    exponents t >= 1 to classes; a smaller exponent raises ValueError
    before any plan is compiled.

    ``values`` lists the coefficients tried per coordinate, in order: a
    bounded search passes range(-bound, bound + 1), a count over Z/n passes
    the residues range(n).  ``mod`` is the modulus of the walk, 0 for none;
    the caller names it, and a walk mod n gives what the same scan of the
    ring over Z/n would give.  A shifted walk is over Z (``mod`` 0), where
    the isomorphism search uses it for its depressed stage relations of
    fiber n >= 2 (see :func:`_stage_relation`): the value at z = l of its
    pieces is minus the constant that each depressed relation leaves out.
    z_j is increasing in b_j, so the order is kept.  Pieces above the top
    degree add zero.

    The scan structure is compiled once per ring and shape of the pieces
    (see :func:`_compile`) and kept on the ring, whatever the modulus or
    shift, its walk shared by support signature with other rings; each
    call fills the root's coefficients from the pieces (reduced mod n in a
    walk mod n).  A walk with l != 0 reads each polynomial's value at z = l
    along its own path b = 0, in one pass over the levels that starts each
    settling check at minus that value in a copy of the levels for this
    call.  It then walks the polynomials depth-first over the coordinates,
    with an explicit stack, in the order of ``values`` at each level.  A
    node is a prefix b_1..b_j with the coefficients of the polynomials
    still in play after substituting z_1..z_j (see :func:`_plan`); a child,
    also on the path b = 0, is the slice of the node's first ``width``
    slots, the terms free of z_j, plus one multiply-add per ``spread``
    entry, a term in z_j^k with k >= 1.  A polynomial settled by the
    child's coordinate must vanish (mod n in a walk mod n), else the child
    and its whole subtree are skipped; once settled it is dropped.  At the
    last coordinate every remaining polynomial is univariate and settles,
    so a leaf is a solution exactly when all of them vanish.  The walk is
    lazy: it advances only as far as its consumer takes vectors.
    """
    for t in pieces:
        if t < 1:
            raise ValueError(f"scan pieces need an exponent t >= 1, got t = {t}")
    m = ring.height
    live = {t: piece for t, piece in sorted(pieces.items())
            if t <= ring.top_degree and not piece.is_zero()}
    shape = tuple((t, tuple(piece.degrees())) for t, piece in live.items())
    plan = ring._scan_plans.get(shape)
    if plan is None:
        plan = ring._scan_plans[shape] = _compile(ring, shape)
    table, levels, width = plan
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
        # each settling check starts at minus its polynomial's value at
        # z = l, read along the one path b = 0 in a pass over the levels
        coeffs, shifted = root, []
        for (checks, spread, child_width), l in zip(levels, lift):
            pw = _powers((0,), scale, l, top)[0]
            starts = []
            for terms, _ in checks:
                value = 0
                for s, k in terms:
                    value -= coeffs[s] * pw[k]
                starts.append((terms, value))
            shifted.append((starts, spread, child_width))
            child = coeffs[:child_width]
            for s, cs, k in spread:
                child[cs] += coeffs[s] * pw[k]
            coeffs = child
        levels = shifted
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
    (n + 1)^q.  A CP^1 row is solved from (n + 1, c1) alone
    (:func:`_cp1_rows`), so its reads and higher are empty."""
    chern = ring.chern[i - 1]
    top = ring.dims[i - 1] + 1
    c1 = tuple((g.index(1), a) for g, a in chern[0].items())
    if top == 2:
        return top, c1, (), ()
    reads = tuple(sorted({j for cq in chern for g in cq for j, e in enumerate(g) if e}))
    higher = tuple({g: c * top**q for g, c in cq.items()}
                   for q, cq in enumerate(chern[1:], start=2))
    return top, c1, reads, higher


def _lift(c1, rows, m: int) -> tuple:
    """The coefficients l of the image of c_1 = sum_j a_j y_(j+1), for
    ``c1`` the pairs (j, a_j) of a stage record: l = sum_j a_j rows[j]."""
    lift = [0] * m
    for j, c in c1:
        for k, v in enumerate(rows[j]):
            lift[k] += c * v
    return tuple(lift)


def _stage_relation(target: BottRing, stage: tuple, rows):
    """Depressed pieces and shift of the scan of row i of an iso_search
    matrix whose earlier rows are ``rows``, ``stage`` the record of source
    stage i (:func:`_stage_record`).  The search builds it for stages of
    fiber n >= 2 only and solves a CP^1 row in closed form
    (:func:`_cp1_rows`); the formula holds for n = 1 too.

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
    """
    top, c1, reads, higher = stage
    lift = _lift(c1, rows, target.height)
    image = target.linear_class(lift)._c
    shift = {e: -c for e, c in image.items()}
    # a[t] = (n+1)^(n+1-t) c_(n+1-t), the coefficients in w = (n+1) x, for
    # 1 <= t <= n; a[0] = c_(n+1) = 0 is never read, and a[top] = 1 is not
    # stored
    a = [{} for _ in range(top - 1)] + [{e: top * c for e, c in image.items()}]
    images = {j: target.linear_class(rows[j]) for j in reads}
    for q, cq in enumerate(higher, start=2):
        a[top - q] = image_of_terms(target, images, cq)._c
    for i in range(top - 1):
        target._raw_add(a[top - 1], shift)  # shift * a[top]
        for j in range(top - 2, max(i, 1) - 1, -1):  # j = 0 would form D_0
            if a[j + 1]:
                target._raw_add(a[j], target._raw_mul(shift, a[j + 1]))
    pieces = {top: target.one()}
    pieces.update((t, CohomologyClass(target, a[t]))
                  for t in range(1, top - 1) if a[t])
    return pieces, (top, lift)


def _square_rewrites(target: BottRing) -> tuple:
    """Per target stage k (0-based), how H^4 holds y_k^2: the pair
    (n_k >= 2, C_k).  For n_k = 1, C_k lists the coefficients C_kj (j < k)
    of c_1 of stage k, and y_k^2 = -sum_j C_kj y_j y_k; for n_k >= 2, y_k^2
    is a basis monomial and C_k is k zeros.  Every y_j y_k with j < k is a
    basis monomial."""
    rewrites = []
    for k, (n, chern) in enumerate(zip(target.dims, target.chern)):
        row = [0] * k
        if n == 1:
            for g, c in chern[0].items():
                row[g.index(1)] = c
        rewrites.append((n > 1, tuple(row)))
    return tuple(rewrites)


def _cp1_rows(rewrites: tuple, lift: tuple, values: range) -> list:
    """Every nonzero x in ``values``^m, in lexicographic order, with
    x (x + L) = 0 in H^4 of the target, L = sum_k lift[k] y_k and
    ``rewrites`` the target's :func:`_square_rewrites`: the candidate rows
    of a CP^1 source stage, whose relation is x (x + c_1) = 0.

    With w = x + L, the coefficient of y_j y_k (j < k) in x w is

        x_j (2 x_k + L_k) - x_k (C_kj (x_k + L_k) - L_j),

    and when n_k >= 2 (C_kj = 0) y_k^2 has the coefficient x_k (x_k + L_k).
    Column k's equations involve x_k and lower coordinates only, so x_k is
    fixed from the last coordinate down.  A value v with 2v + L_k != 0
    determines every x_j, j < k, from column k; each must be an integer in
    the box, and the columns below k are then checked.  The one value with
    2v + L_k = 0 leaves column k conditions on constants; when they hold, v
    is kept and the next coordinate down is fixed the same way.  Each
    solution is found once: at its last coordinate k with 2 x_k + L_k != 0,
    or at the first coordinate if it has none.  No ring arithmetic is done.
    """
    found = []
    suffix = ()  # x_(k+1).., each with 2 x_j + L_j = 0
    for k in range(len(lift) - 1, -1, -1):
        lk = lift[k]
        square, ck = rewrites[k]
        kept = None
        for v in values:
            w = v + lk
            if square and v * w:
                continue
            if not k:
                found.append((v,) + suffix)
                continue
            d = v + w
            # column k: x_j d = v (C_kj w - L_j) for every j < k
            if not d:
                if not any(v * (c * w - lj) for c, lj in zip(ck, lift)):
                    kept = v
                continue
            if not v:  # every x_j is 0, and so are the columns below k
                found.append((0,) * (k + 1) + suffix)
                continue
            low = []
            for c, lj in zip(ck, lift):
                x, rest = divmod(v * (c * w - lj), d)
                if rest or x not in values:
                    break
                low.append(x)
            else:
                if _lower_columns_vanish(rewrites, lift, low):
                    found.append(tuple(low) + (v,) + suffix)
        if kept is None:
            break
        suffix = (kept,) + suffix
    found.remove((0,) * len(lift))  # x = 0 is found once, as every x is
    found.sort()
    return found


def _square_zero_residues(rewrites: tuple, modulus: int) -> int:
    """Number of nonzero x in (Z/n)^m, n = ``modulus``, with x^2 = 0 in H^4
    over Z/n, ``rewrites`` the ring's :func:`_square_rewrites`.

    These are the equations of :func:`_cp1_rows` with L = 0: the
    coefficient of y_j y_k (j < k) in x^2 is x_k (2 x_j - C_kj x_k), and when
    n_k >= 2 (C_kj = 0) y_k^2 has the coefficient x_k^2.  Each involves one
    pair of coordinates, so x_j is fixed from the last coordinate down and
    each residue v is tried against the x_k fixed above it, k > j, with no
    division: 2 v - C_kj x_k has no unique inverse mod n in general.  The
    leaves are the solutions, x = 0 among them.

    When 4 divides n only the residues range(n/2) are tried.  The relations
    are integral, so for b' in {0, 1}^m

        h_(b + (n/2) b')^2 = h_b^2 + n h_b h_b' + (n^2/4) h_b'^2 == h_b^2 (mod n):

    the solutions, zero included, are the 2^m lifts of those in the half
    box, and the count of the nonzero ones is 2^m (1 + hits) - 1.
    """
    n = modulus
    lifted = not n % 4
    values = range(n // 2 if lifted else n)
    m = len(rewrites)
    suffixes = [()]  # the solutions x_(j+1).. of the columns above j
    for j in range(m - 1, -1, -1):
        square = rewrites[j][0]
        fixed = []
        for suffix in suffixes:
            # column k of x_j = v: x_k (2 v - C_kj x_k) == 0 (mod n)
            pairs = [(2 * xk, rewrites[k][1][j] * xk * xk)
                     for k, xk in enumerate(suffix, j + 1) if xk]
            for v in values:
                if square and v * v % n:
                    continue
                for a, b in pairs:
                    if (a * v - b) % n:
                        break
                else:
                    fixed.append((v,) + suffix)
        suffixes = fixed
    hits = len(suffixes) - 1
    return 2**m * (1 + hits) - 1 if lifted else hits


def _lower_columns_vanish(rewrites: tuple, lift: tuple, x: list) -> bool:
    """Whether the equations of :func:`_cp1_rows` in the columns below
    len(x) hold at the coordinates x."""
    for k, xk in enumerate(x):
        square, ck = rewrites[k]
        w = xk + lift[k]
        if square and xk * w:
            return False
        d = xk + w
        for xj, c, lj in zip(x, ck, lift):
            if xj * d != xk * (c * w - lj):
                return False
    return True


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

    The fiber dimension of source stage i selects how its row is solved.
    A CP^1 row, x (x + c_1) = 0, is solved in closed form from the lift l,
    the coefficients of the image of c_1 (:func:`_cp1_rows`): it compiles
    no plan and forms no product, so a search between Bott towers walks no
    scan at all.  Its candidates depend on l alone, so within one call they
    are one sorted list, keyed by l, that every DFS node with that lift
    reads.  A row of fiber n >= 2 walks its stage relation depressed by
    z = (n+1) x + c_1, built in one pass from the record and the earlier
    rows (:func:`_stage_relation`): the scan runs over
    z_j = (n+1) b_j + l_j and yields b.  The ring is free over Z, so no
    solution is lost, and z is increasing in b, so the order and the first
    witness are kept.  x = 0 solves each relation, so the constant of the
    depressed relation is minus the value of its other terms at z = l,
    which the walk implies and no row forms.  Its candidates are a lazily
    walked stream per stage image: the pieces depend only on the earlier
    rows that the c_q of stage i read (the reads of the record), so within
    one call every DFS node with the same such rows gets an independent
    cursor over one shared, buffered walk, and no walk goes past the last
    candidate some node has taken.  The two kinds of key never meet: a
    lift is m ints, a stage image a pair (depth, rows).

    Row 1 is searched up to sign.  Each relation is homogeneous, so -M is a
    witness whenever M is, and the box is symmetric; of M and -M the one
    whose row 1 leads with a negative entry comes first, so only rows 1
    leading with a negative entry are tried.  Row 1's candidates are in
    lexicographic order over a symmetric box, so every row 1 after the
    first that leads positive leads positive too, and the search ends
    there.  The first witness is unchanged, and an exhaustive search walks
    half the tree and stops its row-1 candidates at the midpoint.

    A gcd-of-minors prune discards prefixes that cannot complete to a
    unimodular matrix.  The DFS carries, per prefix of ``depth`` rows, a
    unimodular column transform U with prefix @ U = [L | 0] and |det L| = 1,
    so a candidate row r keeps the gcd of the maximal minors at 1 exactly
    when the free entries of r @ U (columns depth..m-1) have gcd 1: one
    single-row ``minors_gcd`` per candidate, the gcd of those entries.
    Descending extends U by Euclid's algorithm on the free columns only.
    Returns the first verified witness, or None.
    """
    values = _check_bound(bound)
    target, source = ring, ring_prime
    if target.mod or source.mod:
        raise DomainMismatchError("only rings over Z are searched")
    if sorted(source.dims) != sorted(target.dims):
        return None
    m = source.height
    stages = [_stage_record(source, i) for i in range(1, m + 1)]
    rewrites = _square_rewrites(target)
    # a CP^1 row's candidates, one list, keyed by the lift l (m ints); the
    # walk of any other row, keyed by (depth, the rows its c_q read)
    streams: dict = {}

    def candidates(rows):
        depth = len(rows)
        stage = stages[depth]
        if stage[0] == 2:
            lift = _lift(stage[1], rows, m)
            found = streams.get(lift)
            if found is None:
                found = streams[lift] = _cp1_rows(rewrites, lift, values)
            return found
        key = (depth, tuple(rows[j] for j in stage[2]))
        stream = streams.get(key)
        if stream is None:
            pieces, shift = _stage_relation(target, stage, rows)
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
