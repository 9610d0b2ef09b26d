"""Cohomological rigidity classifiers.

Three decision procedures: detecting when a tower has the cohomology of a
product of projective spaces (and hence is diffeomorphic to it), the full
diffeomorphism classification of 2-stage towers, and the classification of
3-stage Bott towers via an invariant battery plus bounded isomorphism
search.  Verdicts are explicit values: DIFFEOMORPHIC carries a verified
witness, DISTINCT carries an invariant whose two values differ, UNKNOWN
records an exhausted search bound and is an honest outcome (the bounded
search is sound but has no completeness guarantee).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ModulusError, TowerFormatError
from .ring import BottRing, CohomologyClass, build_ring
from .search import _check_bound, _scan, iso_search
from .towers import TowerSpec, validate_tower

DIFFEOMORPHIC = "DIFFEOMORPHIC"
DISTINCT = "DISTINCT"
UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class Verdict:
    kind: str
    witness: object = None
    invariant: tuple | None = None  # (name, value, value_prime)
    bound: int | None = None

    @property
    def is_diffeomorphic(self) -> bool:
        return self.kind == DIFFEOMORPHIC

    def to_obj(self):
        witness = self.witness
        if witness is not None and hasattr(witness, "to_obj"):
            witness = witness.to_obj()
        elif isinstance(witness, tuple):
            witness = [w.to_obj() if hasattr(w, "to_obj") else w for w in witness]
        invariant = None
        if self.invariant is not None:
            name, a, b = self.invariant
            invariant = {"name": name, "value": a, "value_prime": b}
        return {
            "verdict": self.kind,
            "witness": witness,
            "invariant": invariant,
            "bound": self.bound,
        }


@dataclass(frozen=True)
class ProductWitness:
    """Stage twists certifying product cohomology.

    ``twists[i-1]`` holds the coefficients of w_i in y_1, ..., y_{i-1}.  The
    generator change x_i = y_i + sum_j twists[i-1][j] y_j is unitriangular,
    hence unimodular, and each x_i satisfies x_i^{n_i+1} = 0 in the tower
    ring.
    """

    twists: tuple[tuple[int, ...], ...]

    @property
    def height(self) -> int:
        return len(self.twists)

    def generator_matrix(self) -> tuple[tuple[int, ...], ...]:
        m = self.height
        rows = []
        for i, w in enumerate(self.twists):
            row = list(w) + [0] * (m - len(w))
            row[i] = 1
            rows.append(tuple(row))
        return tuple(rows)

    def generator_classes(self, ring: BottRing) -> list[CohomologyClass]:
        return [ring.linear_class(row) for row in self.generator_matrix()]

    def to_obj(self):
        return {
            "twists": [list(w) for w in self.twists],
            "generator_change": [list(r) for r in self.generator_matrix()],
        }


@dataclass(frozen=True)
class ProductObstruction:
    """Failure record: the stage where the twist test breaks and why."""

    stage: int
    reason: str  # "divisibility" or "chern_residue"
    detail: str

    def to_obj(self):
        return {"verdict": DISTINCT, "stage": self.stage, "reason": self.reason, "detail": self.detail}


def is_product_cohomology(tower) -> ProductWitness | ProductObstruction:
    """Decide whether the tower has the cohomology ring of the matching
    product of projective spaces.

    Stage i can be twisted to a trivial bundle exactly when n_i + 1 divides
    the summand Chern class sum s_i (which forces the twist w_i = s_i /
    (n_i + 1)) and the shifted roots multiply to total Chern class 1 in the
    ring of the lower tower.  Passing every stage is equivalent to product
    cohomology, and then the tower is a trivial tower of fibrations.  The
    roots are ``stage_roots`` of the tower's own ring: H*(B_{i-1}) embeds
    in it as the subring on y_1, ..., y_{i-1} (projective bundle formula).
    """
    tower = validate_tower(tower)
    ring = None
    twists: list[tuple[int, ...]] = []
    for i, stage in enumerate(tower.stages, start=1):
        n = stage.fiber_dim
        sums = [sum(row[j] for row in stage.summand_exponents) for j in range(i - 1)]
        if any(s % (n + 1) for s in sums):
            return ProductObstruction(
                i,
                "divisibility",
                f"summand Chern sum {sums} is not divisible by {n + 1}",
            )
        w = tuple(s // (n + 1) for s in sums)
        if i > 1:
            if ring is None:
                ring = BottRing(tower)
            one = ring.one()
            w_cls = ring.linear_class(w + (0,) * (ring.height - len(w)))
            shifted = one
            for u in ring.stage_roots(i):
                shifted = shifted * (one + u - w_cls)
            if shifted != one:
                return ProductObstruction(
                    i,
                    "chern_residue",
                    f"twisted total Chern class is {shifted!r}, not 1",
                )
        twists.append(w)
    return ProductWitness(tuple(twists))


# -- 2-stage classification -------------------------------------------------


@dataclass(frozen=True)
class TwoStageWitness:
    """Sign and twist solving the projectivization matching condition."""

    epsilon: int
    w: int

    def to_obj(self):
        return {"epsilon": self.epsilon, "w": self.w}


def _two_stage_data(tower: TowerSpec):
    if tower.height != 2:
        raise TowerFormatError("a 2-stage tower is required")
    n1, n2 = tower.dims
    u = [row[0] for row in tower.stages[1].summand_exponents]
    return n1, n2, u


def _truncated_chern(n1: int, roots: list[int], epsilon: int = 1, shift: int = 0):
    """Coefficient tuple of prod (1 + epsilon (u + shift) x) in Z[x]/(x^{n1+1})."""
    coeffs = [1] + [0] * n1
    for u in [0] + roots:
        root = epsilon * (u + shift)
        for d in range(n1, 0, -1):
            coeffs[d] += coeffs[d - 1] * root
    return tuple(coeffs)


def classify_2stage(tower, tower_prime) -> Verdict:
    """Diffeomorphism classification of 2-stage generalized Bott towers.

    With equal fiber dimensions, the towers are diffeomorphic exactly when
    some sign epsilon and twist w make the shifted summand roots of the
    primed tower reproduce the unprimed total Chern class in the truncated
    base ring; the degree-2 part forces w, so only two candidates exist.
    With swapped, distinct fiber dimensions both towers must be
    cohomologically product.  Anything else is separated by graded ranks.
    """
    t = validate_tower(tower)
    tp = validate_tower(tower_prime)
    n1, n2, u = _two_stage_data(t)
    n1p, n2p, up = _two_stage_data(tp)

    if (n1, n2) == (n1p, n2p):
        total_u, total_up = sum(u), sum(up)
        base = _truncated_chern(n1, u)
        for epsilon in (1, -1):
            num = epsilon * total_u - total_up
            if num % (n2 + 1):
                continue
            w = num // (n2 + 1)
            if _truncated_chern(n1, up, epsilon, w) == base:
                return Verdict(DIFFEOMORPHIC, witness=TwoStageWitness(epsilon, w))
        return Verdict(
            DISTINCT,
            invariant=(
                "twisted_total_chern",
                list(base),
                list(_truncated_chern(n1p, up)),
            ),
        )

    if (n1, n2) == (n2p, n1p):
        w_t = is_product_cohomology(t)
        w_tp = is_product_cohomology(tp)
        if isinstance(w_t, ProductWitness) and isinstance(w_tp, ProductWitness):
            return Verdict(DIFFEOMORPHIC, witness=(w_t, w_tp))
        # a nonzero degree-2 class with vanishing max(n1, n2)-th power exists
        # only in the tower fibered over the smaller projective space
        big = max(n1, n2)
        return Verdict(
            DISTINCT,
            invariant=(
                f"exists_degree2_class_with_power_{big}_zero",
                n1 < big,
                n1p < big,
            ),
        )

    return Verdict(
        DISTINCT,
        invariant=("fiber_dimension_multiset", sorted((n1, n2)), sorted((n1p, n2p))),
    )


# -- 3-stage Bott classification ---------------------------------------------


def _bott3_params(tower: TowerSpec):
    if tower.height != 3 or tower.dims != (1, 1, 1):
        raise TowerFormatError("a 3-stage Bott tower (all fibers CP^1) is required")
    a = tower.stages[1].summand_exponents[0][0]
    b, c = tower.stages[2].summand_exponents[0]
    return a, b, c


def q_product_b3(a: int, b: int, c: int) -> bool:
    """Whether the (a, b, c) Bott 3-stage has the rational cohomology of
    (CP^1)^3; equivalently c(2b - ac) = 0, equivalently p_1 vanishes."""
    return c * (2 * b - a * c) == 0


def _square_zero_count_mod(tower: TowerSpec, modulus: int) -> int:
    """Number of nonzero degree-2 classes with zero square over Z/modulus.

    The count runs over the full finite coefficient module (every residue
    vector), which makes it invariant under any ring isomorphism.  It scans
    the tower's ring over Z modulo ``modulus``: the relations are monic with
    integer coefficients, so this is the count in the ring over Z/modulus.
    """
    if isinstance(modulus, bool) or not isinstance(modulus, int) or modulus < 2:
        raise ModulusError(f"modulus must be an integer >= 2, got {modulus!r}")
    return _residue_square_zero_count(build_ring(tower), modulus)


def _residue_square_zero_count(ring: BottRing, modulus: int) -> int:
    """The Z/modulus square-zero count of a ring over Z, from one residue
    scan; the ring keeps the {2: 1} plan for every modulus and the search."""
    return sum(1 for _ in _scan(ring, {2: ring.one()}, range(modulus), modulus))


def classify_3stage(tower, tower_prime, bound: int = 4) -> Verdict:
    """Classify two 3-stage Bott towers up to diffeomorphism.

    An invariant battery runs first: the content of the first Pontrjagin
    class (any isomorphism carries p_1 to p_1 here, and a unimodular basis
    change preserves the gcd of a coefficient vector) and square-zero counts
    over Z/2 and Z/4.  If the battery cannot separate the towers, a bounded
    search for a ring isomorphism decides: a witness certifies a
    diffeomorphism.  When the bound is exhausted, the square-zero count
    over Z/8 is compared last, and if it agrees too the verdict is UNKNOWN.

    Each tower gets one ring, over Z, built once the p1 test has passed:
    the residue counts scan it modulo 2, 4 and 8, and the search runs on
    it, so all of them share its compiled {2: 1} scan plan.
    """
    _check_bound(bound)
    t = validate_tower(tower)
    tp = validate_tower(tower_prime)
    a, b, c = _bott3_params(t)
    ap, bp, cp = _bott3_params(tp)

    p1 = abs(c * (2 * b - a * c))
    p1p = abs(cp * (2 * bp - ap * cp))
    if p1 != p1p:
        return Verdict(DISTINCT, invariant=("p1_content", p1, p1p), bound=bound)
    ring, ring_p = build_ring(t), build_ring(tp)
    for modulus in (2, 4):
        count = _residue_square_zero_count(ring, modulus)
        count_p = _residue_square_zero_count(ring_p, modulus)
        if count != count_p:
            return Verdict(
                DISTINCT,
                invariant=(f"square_zero_count_mod{modulus}", count, count_p),
                bound=bound,
            )

    witness = iso_search(ring, ring_p, bound)
    if witness is not None:
        return Verdict(DIFFEOMORPHIC, witness=witness, bound=bound)
    # the Z/8 count runs only once the search has failed: most pairs that
    # reach the search are isomorphic, and they would pay for it
    count = _residue_square_zero_count(ring, 8)
    count_p = _residue_square_zero_count(ring_p, 8)
    if count != count_p:
        return Verdict(
            DISTINCT,
            invariant=("square_zero_count_mod8", count, count_p),
            bound=bound,
        )
    return Verdict(UNKNOWN, bound=bound)
