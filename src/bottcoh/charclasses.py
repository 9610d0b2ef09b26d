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

So c(T) costs one ring product per stage and p(T) three.

Wu classes are solved degree by degree from the pairing identity
integrate(v_d . x) = integrate(Sq^{2d}(x)) against the monomial basis.
Both sides are read from one functional, integrate(y^f), the top
coefficient of the normal form of y^f, and the right-hand side from the
pairing row itself: Sq(y^e) = prod_j (y_j + y_j^2)^{e_j} has an odd
coefficient on y^{e+k} exactly when every k_j is a submask of e_j (Lucas'
theorem), so integrate(Sq^{2d}(y^e)) is the parity of the row entries
integrate(y^{e+k}) in the columns k that are submasks of e, and v_d = 0
for d > top // 2.  Rows are packed into ints and eliminated over Z/2.  The
total Stiefel-Whitney class is Sq(v).  The generator sign convention is
fixed throughout: y_i is minus the first Chern class of the stage's
tautological line bundle, so any comparison with the opposite convention
must negate the degree-2 generators first.

Classes of mixed degree are ordinary ring elements here; components above
the top degree vanish in the ring, so no explicit truncation is needed.
Only even-degree cohomology exists, hence odd Wu components are identically
zero and are asserted rather than computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import comb
from operator import add, lshift, mul

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


def _stage_terms(ring: BottRing, i: int):
    """The terms (e, c, s) of F_i = prod_u (1 + y_i + u) (0-based i): the
    coefficient c on the basis monomial y^e, and s = n_i + 1 - |e|."""
    n = ring.dims[i]
    one = {(0,) * ring.height: 1}
    for q, cq in enumerate((one,) + ring.chern[i]):
        for r in range(n + 1 - q):
            b = comb(n + 1 - q, r)
            for g, c in cq.items():  # g[i] == 0: c_q lives below stage i
                yield g[:i] + (r,) + g[i + 1:], b * c, n + 1 - q - r


def tangent_chern(tower, ring: BottRing | None = None) -> CohomologyClass:
    """Total Chern class of the tangent bundle.

    The product over stages i of F_i = prod_u (1 + y_i + u) over the summand
    roots u, each F_i read from the stage table as
    sum_{q, r <= n_i - q} C(n_i + 1 - q, r) c_q y_i^r: one ring product per
    stage after the first.
    """
    ring = _check_ring(tower, ring)
    return reduce(mul, (
        CohomologyClass(ring, {e: c for e, c, _ in _stage_terms(ring, i)})
        for i in range(ring.height)
    ))


def tangent_pontrjagin(tower, ring: BottRing | None = None) -> CohomologyClass:
    """Total Pontrjagin class: the product of (1 + (y_i + u)^2) over stages
    and summand roots.

    Stage i contributes G(iota) G(-iota) = R_i^2 + I_i^2 for
    G(z) = prod_u (z + y_i + u) and iota^2 = -1, where R_i and I_i sum the
    components F_i^{(n_i+1-s)} of F_i = G(1) with s even and s odd, signed
    by (-1)^{floor(s/2)}: at most three ring products per stage.
    """
    ring = _check_ring(tower, ring)
    factors = []
    for i in range(ring.height):
        parts = ({}, {})  # R_i, I_i
        for e, c, s in _stage_terms(ring, i):
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


def wu_classes(tower) -> CohomologyClass:
    """Total Wu class over Z/2.

    The component v_d in H^{2d} is the unique solution of the pairing
    identity integrate(v_d . x) = integrate(Sq^{2d}(x)) over the monomial
    basis x of the complementary degree top - d; the pairing matrix is
    unimodular over Z, hence invertible mod 2, and a singular pairing would
    be an internal error.

    Both sides are read from the top-degree functional
    integrate(y^f) = coefficient of the top monomial in the normal form of
    y^f.  The pairing row of x = y^e holds integrate(y^{e+g}) for the basis
    monomials y^g of degree d.  Since Sq(y^e) = prod_j (y_j + y_j^2)^{e_j},
    the right-hand side is the sum of integrate(y^{e+k}) over the y^k of
    degree d with every binomial(e_j, k_j) odd, which by Lucas' theorem
    means every k_j is a submask of e_j: the parity of the row's entries in
    those columns, read from the row with no second integral.  Exponent
    vectors packed one bit field per coordinate make the test one AND.
    Such k satisfy |k| <= |e| = top - d, so for d > top // 2 the right-hand
    side vanishes and v_d = 0; the pairings of those degrees are transposes
    of the ones solved, so every pairing is still checked for
    invertibility.
    """
    ring = build_ring(tower, 2)
    top = ring.top_degree
    top_mono = ring._top
    cache = ring._nf_cache
    nf = ring._monomial_nf
    # pack(k) & pack(e) == pack(k) exactly when every k_j is a submask of
    # e_j; normal forms over Z/2 are only congruent mod 2, so the top
    # coefficient is read by its parity
    shifts = []
    width = 0
    for n in ring.dims:
        shifts.append(width)
        width += n.bit_length()

    def pack(e):
        return sum(map(lshift, e, shifts))

    terms = {(0,) * ring.height: 1}
    for d in range(1, top // 2 + 1):  # v component in H^{2d}
        comp = ring.basis(d)
        cols = [(g, pack(g), 1 << j) for j, g in enumerate(comp)]
        rows = []
        rhs = []
        for e in ring.basis(top - d):
            packed = pack(e)
            row = odd = 0
            for g, k, bit in cols:
                f = tuple(map(add, e, g))
                r = cache.get(f)
                if r is None:
                    r = nf(f)
                if r.get(top_mono, 0) & 1:
                    row |= bit
                    if k & packed == k:
                        odd ^= 1
            rows.append(row)
            rhs.append(odd)
        sol = solve_mod(rows, rhs)
        terms.update((g, 1) for g, s in zip(comp, sol) if s)
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
