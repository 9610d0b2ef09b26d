"""Characteristic classes of generalized Bott towers.

Total Chern and Pontrjagin classes come from the stage-wise splitting of the
tangent bundle: stage i, of fiber dimension n = n_i, contributes the product
over its n + 1 summand Chern roots u (the trivial root included) of
(1 + y_i + u) respectively (1 + (y_i + u)^2).  Both factors are read in
closed form from the ring's stage table, with no ring product.  With c_0 = 1
and the c_q of ``BottRing.chern``, f_i = prod_u (y_i + u) =
sum_q c_q y_i^{n+1-q}, so

    F_i = prod_u (1 + y_i + u) = sum_{q=0..n} sum_{r=0..n-q} C(n+1-q, r) c_q y_i^r,

the terms with r = n + 1 - q summing to f_i = 0.  Every c_q y_i^r is a
basis monomial times a reduced class below stage i.  For
G(z) = prod_u (z + y_i + u) = sum_s F_i^{(n+1-s)} z^s, where F_i^{(k)} is
the degree-k component of F_i = G(1), and iota^2 = -1,

    prod_u (1 + (y_i + u)^2) = G(iota) G(-iota) = R_i^2 + I_i^2,
    R_i = sum_{s even} (-1)^{s/2} F_i^{(n+1-s)},
    I_i = sum_{s odd} (-1)^{(s-1)/2} F_i^{(n+1-s)}.

So p(T) costs three ring products per stage, and none on a stage whose
c_q all vanish: there y_i^{n+1} = 0, and the factor is
(1 + y_i^2)^{n+1} = sum_{2k<=n} C(n+1, k) y_i^{2k}.  For c(T), with P the
product of the stages below i, P F_i spreads P and the P c_q over the
y_i^r, and all the P c_q come from one product P S_i with the stacked class
S_i = sum_q c_q y_i^{q-1}: the y_i-exponent q - 1 < n of a term of P S_i
survives the rewriting of the lower stages and gives back its q.  So c(T)
costs at most one ring product per stage, whose pairs number
|P| sum_q |c_q| rather than |P| sum_q (n + 1 - q) |c_q|.  A zero c_q is
skipped before its binomials, so CP^n costs O(n) of them, not O(n^2).

Wu classes are solved degree by degree from the pairing identity
integrate(v_d . x) = integrate(Sq^{2d}(x)) against the monomial basis.
Both sides are read from one functional, integrate(y^f) mod 2, and the
right-hand side from the pairing row itself: Sq(y^e) =
prod_j (y_j + y_j^2)^{e_j} has an odd coefficient on y^{e+k} exactly when
every k_j is a submask of e_j (Lucas' theorem), so
integrate(Sq^{2d}(y^e)) is the parity of the row entries
integrate(y^{e+k}) in the columns k that are submasks of e, and v_d = 0
for d > top // 2.  The functional takes no normal form.  Stage i is the
projectivization of a bundle E of rank n_i + 1, so H* of the tower is free
over H* of the tower below on 1, y_i, ..., y_i^{n_i}, and the pushforward
sends y_i^{n_i+j} to the Segre class s_j(E), where s_0 = 1 and
s_j = -sum_{q=1..min(j,n_i)} c_q s_{j-q}, and lower powers to 0.  So
integrate(y^f) is the sum, over the monomials y^t of s_{f_i - n_i}, of the
integrals of y^{f'+t} one stage down (f' the exponents below stage i), and
the integral over a point is 1.  Mod 2 each s_j is a set of packed
monomials and each integral is kept per call.  Exponent vectors are packed
into ints with fields of top.bit_length() bits, so each pairing entry is
one int add and one lookup, and an entry with e_m + g_m < n_m at the last
stage is 0 and never read.  Rows are packed into ints and eliminated over
Z/2.  The total Stiefel-Whitney class is Sq(v).  The generator sign
convention is fixed throughout: y_i is minus the first Chern class of the
stage's tautological line bundle, so any comparison with the opposite
convention must negate the degree-2 generators first.

Classes of mixed degree are ordinary ring elements here; components above
the top degree vanish in the ring, so no explicit truncation is needed.
Only even-degree cohomology exists, hence odd Wu components are identically
zero and are asserted rather than computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import comb
from operator import lshift, mul

from .errors import DomainMismatchError, RingMismatchError
from .linalg import solve_mod
from .ring import (
    BottRing,
    CohomologyClass,
    IsoWitness,
    RingMap,
    apply_map,
    build_ring,
    image_of_terms,
)
from .towers import bott_tower_3, validate_tower


def _check_ring(tower, ring):
    if ring is None:
        return build_ring(tower)
    if ring.tower != validate_tower(tower) or ring.mod:
        raise RingMismatchError("ring does not present this tower over the required domain")
    return ring


def _stacked(ring: BottRing, i: int):
    """The stacked class S_i = sum_q c_q y_i^{q-1} of stage i (0-based) over
    its nonzero c_q, and the rows C(n + 1 - q, r), r <= n - q, of binomials
    for q = 0 and those q (n = n_i).  A zero c_q takes no binomial, so CP^n
    takes n + 1 of them."""
    n = ring.dims[i]
    stacked = {}
    rows = {0: [comb(n + 1, r) for r in range(n + 1)]}
    for q, cq in enumerate(ring.chern[i], start=1):
        if cq:
            rows[q] = [comb(n + 1 - q, r) for r in range(n + 1 - q)]
            for g, c in cq.items():  # g[i] == 0: c_q lives below stage i
                stacked[g[:i] + (q - 1,) + g[i + 1:]] = c
    return stacked, rows


def _spread(out: dict, terms, i: int, rows, shift: int) -> dict:
    """Add to ``out`` the terms C(n + 1 - q, r) c y^e y_i^r, r <= n - q, of
    each term c y^e y_i^{q - shift} in ``terms`` (y^e free of y_i), where
    ``rows[q]`` lists the C(n + 1 - q, r)."""
    for e, c in terms:
        head, tail = e[:i], e[i + 1:]
        for r, b in enumerate(rows[e[i] + shift]):
            f = head + (r,) + tail
            out[f] = out.get(f, 0) + b * c
    return out


def tangent_chern(tower, ring: BottRing | None = None) -> CohomologyClass:
    """Total Chern class of the tangent bundle.

    The product over stages i of F_i = prod_u (1 + y_i + u) over the summand
    roots u, F_i = sum_{q, r <= n_i - q} C(n_i + 1 - q, r) c_q y_i^r.  With P
    the product of the stages below i, P F_i spreads P and the P c_q over
    the y_i^r, and every P c_q comes from one class product P S_i with the
    stacked class S_i = sum_q c_q y_i^{q-1}: rewriting a y_j with j < i
    leaves the y_i-exponent alone and q - 1 < n_i, so the y_i-exponent of
    each term of P S_i gives back its q.  At most one ring product per
    stage, and none where every c_q vanishes.
    """
    ring = _check_ring(tower, ring)
    total = ring.one()
    for i in range(ring.height):
        stacked, rows = _stacked(ring, i)
        terms = _spread({}, total.items(), i, rows, 0)
        if stacked:
            _spread(terms, (total * CohomologyClass(ring, stacked)).items(), i, rows, 1)
        total = CohomologyClass(ring, {e: c for e, c in terms.items() if c})
    return total


def tangent_pontrjagin(tower, ring: BottRing | None = None) -> CohomologyClass:
    """Total Pontrjagin class: the product of (1 + (y_i + u)^2) over stages
    and summand roots.

    Stage i contributes G(iota) G(-iota) = R_i^2 + I_i^2 for
    G(z) = prod_u (z + y_i + u) and iota^2 = -1, where R_i and I_i sum the
    components F_i^{(n_i+1-s)} of F_i = G(1) with s even and s odd, signed
    by (-1)^{floor(s/2)}: at most three ring products per stage.  F_i is
    the spread of 1 and of the stacked class S_i, with no product.  A stage
    whose c_q all vanish, such as CP^n, has y_i^{n_i+1} = 0 and its factor
    is (1 + y_i^2)^{n_i+1} = sum_{2k <= n_i} C(n_i + 1, k) y_i^{2k}, read
    off the binomials of c_0 with no product.
    """
    ring = _check_ring(tower, ring)
    one = [((0,) * ring.height, 1)]
    factors = []
    for i, n in enumerate(ring.dims):
        stacked, rows = _stacked(ring, i)
        if not stacked:  # every c_q is zero: n + 1 roots y_i, and y_i^(n+1) = 0
            head, tail = (0,) * i, (0,) * (ring.height - 1 - i)
            factors.append(CohomologyClass(ring, {
                head + (2 * k,) + tail: rows[0][k] for k in range(n // 2 + 1)}))
            continue
        stage = _spread(_spread({}, one, i, rows, 0), stacked.items(), i, rows, 1)
        parts = ({}, {})  # R_i, I_i
        for e, c in stage.items():
            s = n + 1 - sum(e)
            parts[s & 1][e] = -c if s & 2 else c
        real, imag = (CohomologyClass(ring, part) for part in parts)
        factors.append(real * real + imag * imag)
    return reduce(mul, factors)


def p1_b3(a: int, b: int, c: int) -> CohomologyClass:
    """Closed form of the first Pontrjagin class of the (a, b, c) Bott
    3-stage: c(2b - ac) y_1 y_2.

    Kept independent of tangent_pontrjagin on purpose; the two routes
    cross-check each other in the test suite.
    """
    ring = build_ring(bott_tower_3(a, b, c))
    coeff = c * (2 * b - a * c)
    return ring.from_terms({(1, 1, 0): coeff})


def steenrod_square(u: CohomologyClass) -> CohomologyClass:
    """Total Steenrod square over Z/2.

    By additivity and the Cartan formula Sq is a ring endomorphism, fixed
    by Sq(y) = y + y^2 on the degree-2 generators: the substitution
    y_j -> y_j + y_j^2.
    """
    ring = u.ring
    if ring.mod != 2:
        raise DomainMismatchError("total squares are defined over Z/2 coefficients")
    return image_of_terms(ring, [y + y * y for y in ring.gens()], u._c)


def sq_component(u: CohomologyClass, k: int) -> CohomologyClass:
    """Sq^k of a homogeneous class; zero for odd k since odd cohomology
    vanishes for these spaces.  k must be a nonnegative int."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise ValueError("Sq^k needs a nonnegative integer k")
    degs = u.degrees()
    if len(degs) > 1:
        raise ValueError("Sq^k components need a homogeneous input")
    if k % 2 == 1:
        return u.ring.zero()
    d = degs[0] if degs else 0
    return steenrod_square(u).homogeneous_part(d + k // 2)


class _TopIntegral(dict):
    """The parity of the top-degree integral of a ring over Z/2, pushed
    forward through the Segre classes of the stages (see the module
    docstring): ``self[self.pack(e)]`` is integrate(y^e) mod 2 for e of
    degree ``ring.top_degree``, computed on first lookup and kept.

    Each s_j of stage k is the set of its packed monomials with odd
    coefficient, built from the c_q of the Z/2 ring.  A key of degree
    top_k = n_1 + ... + n_k names its level k, since top_k grows with k, so
    one dict holds every level.  Keys pack one field of
    ``top.bit_length()`` bits per coordinate, coordinate 0 lowest: every
    exponent of a monomial of degree at most ``top`` fits, so two packed
    monomials whose product has degree at most ``top`` add to the packed
    product.  A miss is walked post-order with an explicit stack, as in
    :meth:`BottRing._monomial_nf`, so the height of a tower is not bounded
    by Python's recursion limit.
    """

    __slots__ = ("dims", "width", "shifts", "segre")

    def __init__(self, ring: BottRing):  # ring.mod == 2
        super().__init__({0: 1})  # the empty monomial over a point
        self.dims = ring.dims
        self.width = width = ring.top_degree.bit_length()
        self.shifts = [width * k for k in range(ring.height)]
        # segre[k][j] = s_j of stage k, for j up to the top degree of the
        # base; after n zero classes in a row every later one is zero, and
        # the list stops there
        self.segre = []
        base_top = 0
        for n, chern in zip(ring.dims, ring.chern):
            # over Z/2 every stored coefficient of c_q is 1
            cs = [[self.pack(g) for g in cq] for cq in chern]
            s = [{0}]
            while len(s) <= base_top and any(s[-n:]):
                j = len(s)
                acc = set()
                for q in range(1, min(j, n) + 1):
                    for a in cs[q - 1]:
                        acc ^= {a + b for b in s[j - q]}
                s.append(acc)
            self.segre.append(s)
            base_top += n

    def pack(self, e) -> int:
        return sum(map(lshift, e, self.shifts))

    def unpack(self, key: int) -> tuple:
        field = (1 << self.width) - 1
        return tuple((key >> shift) & field for shift in self.shifts)

    def basis(self) -> list:
        """The packed basis monomials, by degree and in lexicographic order
        within a degree, as :meth:`BottRing.basis` lists them."""
        by_degree = [[0]]
        for n, shift in zip(reversed(self.dims), reversed(self.shifts)):
            # prepend the exponent x of this stage to the monomials of the
            # stages above it, x slowest
            by_degree = [
                [(x << shift) + p
                 for x in range(max(0, d - len(by_degree) + 1), min(n, d) + 1)
                 for p in by_degree[d - x]]
                for d in range(len(by_degree) + n)
            ]
        return by_degree

    def _keys_below(self, key: int, k: int):
        """The keys y^(f' + t) of level k - 1 whose integrals sum to that of
        the level-k key y^f."""
        s = self.segre[k]
        j = (key >> self.shifts[k]) - self.dims[k]
        if j < 0 or j >= len(s):
            return ()
        base = key & ((1 << self.shifts[k]) - 1)
        return [base + t for t in s[j]]

    def __missing__(self, key: int) -> int:
        k = len(self.dims) - 1
        stack = [(key, k, self._keys_below(key, k))]
        while stack:
            f, k, keys = stack[-1]
            waiting = False
            for g in keys:
                if g not in self:
                    stack.append((g, k - 1, self._keys_below(g, k - 1)))
                    waiting = True
            if waiting:
                continue
            stack.pop()
            self[f] = sum(map(self.__getitem__, keys)) & 1
        return self[key]


def wu_classes(tower) -> CohomologyClass:
    """Total Wu class over Z/2.

    The component v_d in H^{2d} is the unique solution of the pairing
    identity integrate(v_d . x) = integrate(Sq^{2d}(x)) over the monomial
    basis x of the complementary degree top - d; the pairing matrix is
    unimodular over Z, hence invertible mod 2, and a singular pairing would
    be an internal error.

    Both sides are read from the top-degree functional integrate(y^f) mod
    2, with no normal form (:class:`_TopIntegral`): stage k pushes y^f
    forward to 0 when f_k < n_k, and otherwise to the sum of y^(f' + t)
    over the monomials y^t of the Segre class s_(f_k - n_k) of the stage,
    where f' are the exponents below stage k, s_0 = 1 and
    s_j = -sum_(q=1..min(j, n_k)) c_q s_(j-q); the integral over a point
    is 1.  The pairing row of
    x = y^e holds integrate(y^{e+g}) for the basis monomials y^g of degree
    d.  Since Sq(y^e) = prod_j (y_j + y_j^2)^{e_j}, the right-hand side is
    the sum of integrate(y^{e+k}) over the y^k of degree d with every
    binomial(e_j, k_j) odd, which by Lucas' theorem means every k_j is a
    submask of e_j: the parity of the row's entries in those columns, read
    from the row with no second integral.  Such k satisfy
    |k| <= |e| = top - d, so for d > top // 2 the right-hand side vanishes
    and v_d = 0; the pairings of those degrees are transposes of the ones
    solved, so every pairing is still checked for invertibility.

    Basis monomials are packed one bit field per coordinate, which makes
    the submask test one AND, and pack(e) + pack(g) is the key of y^{e+g}:
    each entry is one int add and one lookup.  The last stage pushes
    y^{e+g} forward to 0 when e_m + g_m < n_m, so the row of y^e reads only
    the columns with g_m >= n_m - e_m.
    """
    ring = build_ring(tower, 2)
    top = ring.top_degree
    last = ring.dims[-1]
    integral = _TopIntegral(ring)
    shift = integral.shifts[-1]  # g_m = pack(g) >> shift
    basis = integral.basis()
    terms = {(0,) * ring.height: 1}
    for d in range(1, top // 2 + 1):  # v component in H^{2d}
        comp = basis[d]
        cols = [(g, 1 << j) for j, g in enumerate(comp)]
        reach = {}  # t -> the columns (pack(g), bit) with g_m >= t
        rows = []
        rhs = []
        for e in basis[top - d]:
            t = last - (e >> shift)
            reached = reach.get(t)
            if reached is None:
                reached = reach[t] = [c for c in cols if c[0] >> shift >= t]
            row = odd = 0
            for g, bit in reached:
                # g & e == g exactly when every g_j is a submask of e_j
                if integral[e + g]:
                    row |= bit
                    if g & e == g:
                        odd ^= 1
            rows.append(row)
            rhs.append(odd)
        sol = solve_mod(rows, rhs)
        terms.update((integral.unpack(g), 1) for g, s in zip(comp, sol) if s)
    return CohomologyClass(ring, terms)


def stiefel_whitney(tower) -> CohomologyClass:
    """Total Stiefel-Whitney class, computed as Sq of the total Wu class."""
    return steenrod_square(wu_classes(tower))


@dataclass(frozen=True)
class CharClassReport:
    """Chern and Pontrjagin classes over Z; Wu and Stiefel-Whitney over Z/2."""

    total_chern: CohomologyClass
    total_pontrjagin: CohomologyClass
    wu: CohomologyClass
    stiefel_whitney: CohomologyClass

    def to_obj(self):
        return {
            "chern": self.total_chern.to_obj(),
            "pontrjagin": self.total_pontrjagin.to_obj(),
            "wu": self.wu.to_obj(),
            "stiefel_whitney": self.stiefel_whitney.to_obj(),
        }


def char_class_report(tower) -> CharClassReport:
    tower = validate_tower(tower)
    ring = build_ring(tower)
    wu = wu_classes(tower)
    return CharClassReport(
        total_chern=tangent_chern(tower, ring),
        total_pontrjagin=tangent_pontrjagin(tower, ring),
        wu=wu,
        stiefel_whitney=steenrod_square(wu),
    )


def verify_pontrjagin_preservation(witness, tower, tower_prime) -> bool:
    """Check that a verified ring map H*(tower') -> H*(tower) carries the
    total Pontrjagin class of the primed tower to that of the unprimed one.

    Any verified map qualifies, whatever its degree-2 matrix; the rings of
    the witness must present the two given towers.
    """
    rm = witness.ring_map if isinstance(witness, IsoWitness) else witness
    if not isinstance(rm, RingMap) or not rm.verified:
        raise ValueError("a verified ring map or isomorphism witness is required")
    tower = validate_tower(tower)
    tower_prime = validate_tower(tower_prime)
    if rm.source.tower != tower_prime or rm.target.tower != tower:
        raise RingMismatchError("witness rings do not present the given towers")
    p = tangent_pontrjagin(tower, rm.target)
    p_prime = tangent_pontrjagin(tower_prime, rm.source)
    return apply_map(rm, p_prime) == p
