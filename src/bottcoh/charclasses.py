"""Characteristic classes of generalized Bott towers.

Total Chern and Pontrjagin classes come from the stage-wise splitting of the
tangent bundle: each stage contributes the product over its n_i + 1 summand
Chern roots (the trivial root included) of (1 + y_i + u) respectively
(1 + (y_i + u)^2).  Wu classes are solved degree by degree from the pairing
identity v_k . x = Sq^k(x) against the monomial basis; the total
Stiefel-Whitney class is Sq(v).  The generator sign convention is fixed
throughout: y_i is minus the first Chern class of the stage's tautological
line bundle, so any comparison with the opposite convention must negate the
degree-2 generators first.

Classes of mixed degree are ordinary ring elements here; components above
the top degree vanish in the ring, so no explicit truncation is needed.
Only even-degree cohomology exists, hence odd Wu components are identically
zero and are asserted rather than computed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainMismatchError, RingMismatchError
from .linalg import solve_mod
from .ring import (
    BottRing,
    CohomologyClass,
    IsoWitness,
    RingMap,
    apply_map,
    build_ring,
)
from .scalars import GF2, ZZ
from .towers import bott_tower_3, validate_tower


def _check_ring(tower, ring, domain):
    if ring is None:
        return build_ring(tower, domain)
    if ring.tower != validate_tower(tower) or ring.domain != domain:
        raise RingMismatchError("ring does not present this tower over the required domain")
    return ring


def _stage_roots(ring: BottRing, i: int) -> list[CohomologyClass]:
    """Summand Chern roots of stage i (1-based), trivial root first."""
    stage = ring.tower.stages[i - 1]
    pad = (0,) * (ring.height - stage.columns)
    roots = [ring.zero()]
    for row in stage.summand_exponents:
        roots.append(ring.linear_class(tuple(row) + pad))
    return roots


def tangent_chern(tower, ring: BottRing | None = None) -> CohomologyClass:
    """Total Chern class of the tangent bundle.

    The product over stages i and summand roots u of (1 + y_i + u), reduced
    in the integer cohomology ring.
    """
    ring = _check_ring(tower, ring, ZZ)
    total = ring.one()
    for i in range(1, ring.height + 1):
        y = ring.gen(i)
        for u in _stage_roots(ring, i):
            total = total * (ring.one() + y + u)
    return total


def tangent_pontrjagin(tower, ring: BottRing | None = None) -> CohomologyClass:
    """Total Pontrjagin class: the product of (1 + (y_i + u)^2) over stages
    and summand roots."""
    ring = _check_ring(tower, ring, ZZ)
    total = ring.one()
    for i in range(1, ring.height + 1):
        y = ring.gen(i)
        for u in _stage_roots(ring, i):
            total = total * (ring.one() + (y + u) ** 2)
    return total


def p1_b3(a: int, b: int, c: int) -> CohomologyClass:
    """Closed form of the first Pontrjagin class of the (a, b, c) Bott
    3-stage: c(2b - ac) y_1 y_2.

    Kept independent of tangent_pontrjagin on purpose; the two routes
    cross-check each other in the test suite.
    """
    ring = build_ring(bott_tower_3(a, b, c), ZZ)
    coeff = c * (2 * b - a * c)
    return ring.from_terms({(1, 1, 0): coeff})


def steenrod_square(u: CohomologyClass) -> CohomologyClass:
    """Total Steenrod square over Z/2.

    Determined by Sq(y) = y + y^2 on the degree-2 generators, additivity and
    the Cartan formula, so on a basis monomial Sq(y^e) = y^e prod_j (1 +
    y_j)^{e_j}.
    """
    ring = u.ring
    if ring.domain.modulus != 2:
        raise DomainMismatchError("total squares are defined over Z/2 coefficients")
    factors: dict[tuple[int, int], CohomologyClass] = {}

    def one_plus_gen_power(j: int, t: int) -> CohomologyClass:
        key = (j, t)
        got = factors.get(key)
        if got is None:
            got = (ring.one() + ring.gen(j + 1)) ** t
            factors[key] = got
        return got

    out = ring.zero()
    for e, c in u.items():
        term = CohomologyClass(ring, {e: c})
        for j, ej in enumerate(e):
            if ej:
                term = term * one_plus_gen_power(j, ej)
        out = out + term
    return out


def sq_component(u: CohomologyClass, k: int) -> CohomologyClass:
    """Sq^k of a homogeneous class; zero for odd k since odd cohomology
    vanishes for these spaces."""
    degs = u.degrees()
    if len(degs) > 1:
        raise ValueError("Sq^k components need a homogeneous input")
    if k % 2 == 1:
        return u.ring.zero()
    d = degs[0] if degs else 0
    return steenrod_square(u).homogeneous_part(d + k // 2)


def wu_classes(tower) -> CohomologyClass:
    """Total Wu class over Z/2.

    For each degree the component v_k is the unique solution of
    integrate(v_k . x) = integrate(Sq^k(x)) over the monomial basis x of the
    complementary degree; the pairing matrix is unimodular over Z, hence
    invertible mod 2.  A singular pairing would be an internal error.
    """
    ring = build_ring(tower, GF2)
    top = ring.top_degree
    v = ring.one()
    for d in range(1, top + 1):  # v component in H^{2d}
        comp = ring.basis(d)
        dual = ring.basis(top - d)
        if not comp:
            continue
        rows = []
        rhs = []
        for e in dual:
            x = CohomologyClass(ring, {e: 1})
            sq_top = steenrod_square(x).homogeneous_part(top)
            rhs.append(int(ring.integrate(sq_top)))
            rows.append(
                [int(ring.integrate(CohomologyClass(ring, {g: 1}) * x)) for g in comp]
            )
        sol = solve_mod(rows, rhs, 2)
        v = v + CohomologyClass(ring, {g: s for g, s in zip(comp, sol) if s})
    return v


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
    ring = build_ring(tower, ZZ)
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
