"""Graded cohomology rings of generalized Bott towers.

The ring of a height-m tower is Z[y_1, ..., y_m] modulo one relation per
stage,

    f_i = y_i^{n_i+1} + c_1(xi_i) y_i^{n_i} + ... + c_{n_i}(xi_i) y_i,

where c_q(xi_i) is the q-th elementary symmetric polynomial in the stage's
summand Chern roots u (classes in y_1, ..., y_{i-1}): f_i = y_i prod_u
(y_i + u).  Monomials with every exponent e_i <= n_i form a free basis;
rewriting an overflowing power of y_i through f_i strictly lowers the
y_i-exponent and only introduces variables of smaller index, so reduction
to this normal form terminates.  The generator y_i is minus the first Chern
class of the tautological line bundle of stage i.  A ring derives its stage
table (roots, c_q and the rewriting tail of each f_i) once, when built.
A ring over Z/n has the same relations read mod n: they are monic with
integer coefficients.

Everything here is an immutable value and every operation is a pure
function, so concurrent use needs no locking.  Only even-degree cohomology
exists for these spaces; a class of "degree d" here lives in H^{2d}.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .errors import (
    DomainMismatchError,
    ModulusError,
    RingMismatchError,
    UnverifiedMapError,
)
from .linalg import det_int
from .towers import TowerSpec, validate_tower


class BottRing:
    """The cohomology ring of a tower over Z or Z/n: ``mod`` is 0 for Z and
    n >= 2 for Z/n.

    The stage table is built stage by stage; stage i reads only the stages
    below it.  ``chern[i][q-1]`` is the coefficient dict of c_q(xi_{i+1}),
    ``stage_roots`` gives the roots, and ``_tails[i]`` lists the pairs
    (g - q e_{i+1}, c) of the terms c y^g y_{i+1}^{n+1-q} of f_{i+1}: normal
    forms and ``relation_terms`` read it.
    """

    __slots__ = (
        "tower",
        "dims",
        "mod",
        "chern",
        "_tails",
        "_roots",
        "_nf_cache",
        "_basis_cache",
        "_scan_plans",
        "_ranks",
        "_top",
        "top_degree",
    )

    def __init__(self, tower: TowerSpec, mod: int = 0):
        if isinstance(mod, bool) or not isinstance(mod, int) or mod < 0 or mod == 1:
            raise ModulusError(
                f"modulus must be 0 (for Z) or an integer >= 2, got {mod!r}")
        tower = validate_tower(tower)
        self.tower = tower
        self.dims = tower.dims
        self.mod = mod
        self._nf_cache = {}
        self._basis_cache = {}
        self._scan_plans = {}  # compiled scans, see search._compile
        self._ranks = None
        self._top = tuple(self.dims)
        self.top_degree = sum(self.dims)
        m = self.height
        unit = [(0,) * j + (1,) + (0,) * (m - 1 - j) for j in range(m)]
        chern = []
        self._tails = []
        self._roots = []
        for i, stage in enumerate(tower.stages):
            roots = []
            for row in stage.summand_exponents:
                u = {}
                for e, a in zip(unit, row):
                    if a and (c := self._int(a)):
                        u[e] = c
                roots.append(u)
            # elementary symmetric polynomials c_1.. of the roots, reduced,
            # by c_q += c_{q-1} u with c_0 = 1 (c_0 u = u is reduced); only
            # the tails of stages < i are read, which are already built.  A
            # zero root adds nothing to any c_q, so it is skipped and the
            # c_q past the nonzero roots are zero
            es = []
            for u in filter(None, roots):
                prods = [u] + [self._raw_mul(c, u) for c in es]
                es = [self._raw_add(dict(c), p) for c, p in zip(es, prods)] + prods[-1:]
            es += [{}] * (len(roots) - len(es))
            chern.append(tuple(es))
            tail = []
            for q, cq in enumerate(es, start=1):
                for g, c in cq.items():  # g[i] == 0: c_q lives below stage i
                    tail.append((g[:i] + (-q,) + g[i + 1:], c))
            self._tails.append(tail)
            self._roots.append(roots)
        self.chern = tuple(chern)

    # -- structure ---------------------------------------------------------

    @property
    def height(self) -> int:
        return len(self.dims)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, BottRing):
            return NotImplemented
        return (
            self.dims == other.dims
            and self.mod == other.mod
            and self.chern == other.chern
        )

    def __hash__(self):
        return hash((self.dims, self.mod))

    def __repr__(self):
        return f"BottRing(dims={self.dims}, mod={self.mod})"

    def relation_terms(self, i: int) -> dict:
        """Raw coefficient dict of the stage-i relation f_i (1-based i)."""
        lead = (0,) * (i - 1) + (self.dims[i - 1] + 1,) + (0,) * (self.height - i)
        terms = {lead: 1}
        terms.update(self._rewrite_steps(lead, i - 1))
        return terms

    def stage_roots(self, i: int) -> list["CohomologyClass"]:
        """Summand Chern roots of stage i (1-based), trivial root first: the
        n_i + 1 classes u with f_i = prod_u (y_i + u)."""
        return [self.zero()] + [CohomologyClass(self, u) for u in self._roots[i - 1]]

    # -- normal form -------------------------------------------------------

    def _overflow_index(self, e):
        dims = self.dims
        for j in range(len(dims) - 1, -1, -1):
            if e[j] > dims[j]:
                return j
        return None

    def _rewrite_steps(self, e, i):
        """One rewriting step of y^e, whose y_i-exponent (0-based i)
        overflows, through f_i: the pairs (f, c) with y^e = -sum c y^f."""
        return [(tuple(map(add, e, shift)), c) for shift, c in self._tails[i]]

    def _monomial_nf(self, e):
        # an integer combination of basis monomials equal to y^e; over Z/n
        # it is only congruent to the normal form, since reduction mod n
        # happens where a class is produced (_raw_add, _raw_mul, negation)
        cached = self._nf_cache.get(e)
        if cached is not None:
            return cached
        cache = self._nf_cache
        if sum(e) > self.top_degree:
            # the relations are homogeneous, so the ring is zero above its
            # top degree: no rewriting needed
            res = cache[e] = {}
            return res
        i = self._overflow_index(e)
        if i is None:
            res = cache[e] = {e: 1}
            return res
        # post-order walk of the rewriting with an explicit stack, so the
        # length of a reduction chain is not bounded by Python's recursion
        # limit: a frame is an overflowing monomial with its rewriting
        # steps, reduced once every monomial it rewrites to is cached
        stack = [(e, self._rewrite_steps(e, i))]
        while stack:
            f, steps = stack[-1]
            waiting = False
            for ee, _ in steps:
                if ee not in cache:
                    k = self._overflow_index(ee)
                    if k is None:
                        cache[ee] = {ee: 1}
                    else:
                        stack.append((ee, self._rewrite_steps(ee, k)))
                        waiting = True
            if waiting:
                continue
            stack.pop()
            acc = {}
            for ee, cg in steps:
                for mono, coeff in cache[ee].items():
                    acc[mono] = acc.get(mono, 0) - cg * coeff
            cache[f] = {k: v for k, v in acc.items() if v}
        return cache[e]

    def _raw_add(self, accum: dict, terms: dict) -> dict:
        mod = self.mod
        for k, v in terms.items():
            w = accum.get(k, 0) + v
            if mod:
                w %= mod
            if w:
                accum[k] = w
            else:
                accum.pop(k, None)
        return accum

    def _raw_mul(self, a: dict, b: dict) -> dict:
        cache = self._nf_cache
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                c = c1 * c2
                e = tuple(map(add, e1, e2))
                nf = cache.get(e)
                if nf is None:
                    nf = self._monomial_nf(e)
                for mono, d in nf.items():
                    out[mono] = out.get(mono, 0) + c * d
        mod = self.mod
        if mod:
            return {k: v % mod for k, v in out.items() if v % mod}
        return {k: v for k, v in out.items() if v}

    # -- element constructors ----------------------------------------------

    def zero(self) -> "CohomologyClass":
        return CohomologyClass(self, {})

    def one(self) -> "CohomologyClass":
        return CohomologyClass(self, {(0,) * self.height: 1})

    def _int(self, value) -> int:
        """An int coefficient, as its residue in range(mod) over Z/mod."""
        if isinstance(value, bool) or not isinstance(value, int):
            raise DomainMismatchError(f"coefficients are ints, got {value!r}")
        return value % self.mod if self.mod else value

    def scalar(self, value) -> "CohomologyClass":
        value = self._int(value)
        if value == 0:
            return self.zero()
        return CohomologyClass(self, {(0,) * self.height: value})

    def gen(self, i: int) -> "CohomologyClass":
        """The degree-2 generator y_i, 1-based."""
        if isinstance(i, bool) or not 1 <= i <= self.height:
            raise IndexError(f"generator index {i} out of range 1..{self.height}")
        e = [0] * self.height
        e[i - 1] = 1
        return CohomologyClass(self, {tuple(e): 1})

    def gens(self):
        return tuple(self.gen(i) for i in range(1, self.height + 1))

    def linear_class(self, coeffs) -> "CohomologyClass":
        """The class sum(coeffs[j] * y_{j+1})."""
        coeffs = list(coeffs)
        if len(coeffs) != self.height:
            raise ValueError("coefficient vector has wrong length")
        terms = {}
        for j, c in enumerate(coeffs):
            c = self._int(c)
            if c != 0:
                e = [0] * self.height
                e[j] = 1
                terms[tuple(e)] = c
        return CohomologyClass(self, terms)

    def from_terms(self, terms) -> "CohomologyClass":
        """Normal form of a formal polynomial given as {exponents: coefficient}.

        Exponents are nonnegative ints (not bools) and may exceed the
        componentwise bounds; coefficients are ints, reduced mod ``mod``
        over Z/mod.
        """
        raw = {}
        for e, c in dict(terms).items():
            e = tuple(e)
            if len(e) != self.height or any(type(x) is not int or x < 0 for x in e):
                raise ValueError(f"bad exponent vector {e}")
            c = self._int(c)
            if c != 0:
                raw[e] = raw.get(e, 0) + c
        return CohomologyClass(self, self._raw_mul(raw, {(0,) * self.height: 1}))

    # -- graded structure ----------------------------------------------------

    def graded_rank(self, d: int) -> int:
        """Rank of H^{2d}: the t^d coefficient of prod_i (1 + t + ... + t^{n_i})."""
        if self._ranks is None:
            poly = [1]
            for n in self.dims:
                new = [0] * (len(poly) + n)
                for i, c in enumerate(poly):
                    for k in range(n + 1):
                        new[i + k] += c
                poly = new
            self._ranks = tuple(poly)
        if 0 <= d < len(self._ranks):
            return self._ranks[d]
        return 0

    def basis(self, d: int):
        """Basis monomials of degree 2d as exponent tuples, in lexicographic order."""
        cached = self._basis_cache.get(d)
        if cached is not None:
            return cached
        dims = self.dims
        m = len(dims)
        out = []
        if 0 <= d <= self.top_degree:
            # each monomial's successor raises the rightmost exponent that
            # can take a unit from its right and puts the rest of the right
            # as far right as it goes; no recursion, so any height works
            e = [0] * m
            j, rest = 0, d
            while True:
                for k in range(m - 1, j - 1, -1):
                    e[k] = v = min(rest, dims[k])
                    rest -= v
                out.append(tuple(e))
                rest = 0
                for j in range(m - 1, -1, -1):
                    if rest and e[j] < dims[j]:
                        break
                    rest += e[j]
                else:
                    break
                e[j] += 1
                rest -= 1
                j += 1
        result = self._basis_cache[d] = tuple(out)
        return result

    def integrate(self, u: "CohomologyClass"):
        """Coefficient of the top monomial y_1^{n_1} ... y_m^{n_m}."""
        if self != u.ring:
            raise RingMismatchError("class belongs to a different ring")
        return u._c.get(self._top, 0)


class CohomologyClass:
    """A cohomology class in normal form: a finite map basis monomial -> scalar.

    Instances are immutable; arithmetic returns new classes.  Zero
    coefficients are never stored.
    """

    __slots__ = ("ring", "_c")

    def __init__(self, ring: BottRing, coeffs: dict):
        self.ring = ring
        self._c = coeffs

    # mapping-style access ---------------------------------------------------

    def coefficient(self, exponents):
        return self._c.get(tuple(exponents), 0)

    def items(self):
        return self._c.items()

    def support(self):
        return sorted(self._c, key=lambda e: (sum(e), e))

    def is_zero(self) -> bool:
        return not self._c

    def degrees(self):
        return sorted({sum(e) for e in self._c})

    def homogeneous_part(self, d: int) -> "CohomologyClass":
        return CohomologyClass(
            self.ring, {e: c for e, c in self._c.items() if sum(e) == d}
        )

    # arithmetic --------------------------------------------------------------

    def _binary(self, other) -> "CohomologyClass":
        if isinstance(other, CohomologyClass):
            if self.ring != other.ring:
                raise RingMismatchError("classes belong to different rings")
            return other
        return self.ring.scalar(other)

    def __add__(self, other):
        other = self._binary(other)
        merged = self.ring._raw_add(dict(self._c), other._c)
        return CohomologyClass(self.ring, merged)

    __radd__ = __add__

    def __neg__(self):
        mod = self.ring.mod
        if not mod:
            return CohomologyClass(self.ring, {e: -c for e, c in self._c.items()})
        return CohomologyClass(self.ring, {e: (-c) % mod for e, c in self._c.items()})

    def __sub__(self, other):
        other = self._binary(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, CohomologyClass):
            if self.ring != other.ring:
                raise RingMismatchError("classes belong to different rings")
            return CohomologyClass(self.ring, self.ring._raw_mul(self._c, other._c))
        return CohomologyClass(
            self.ring, self.ring._raw_mul(self._c, self.ring.scalar(other)._c)
        )

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if isinstance(k, bool) or not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = None  # start from the first factor, not from one
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return self.ring.one() if result is None else result

    def __eq__(self, other):
        if isinstance(other, CohomologyClass):
            return self.ring == other.ring and self._c == other._c
        if isinstance(other, int):
            return not isinstance(other, bool) and self._c == self.ring.scalar(other)._c
        return NotImplemented

    def __hash__(self):
        return hash((self.ring.dims, tuple(sorted(self._c.items()))))

    # presentation -------------------------------------------------------------

    def to_obj(self):
        """Serialized form: graded-lex list of {"exponents": [...], "coeff": str}."""
        return [
            {"exponents": list(e), "coeff": str(self._c[e])}
            for e in self.support()
        ]

    def __repr__(self):
        if not self._c:
            return "0"
        parts = []
        for e in self.support():
            c = self._c[e]
            mono = "*".join(
                f"y{j + 1}" if k == 1 else f"y{j + 1}^{k}"
                for j, k in enumerate(e)
                if k
            )
            cs = str(c)
            if not mono:
                parts.append(cs)
            elif cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            else:
                parts.append(f"{cs}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


# -- operation-style wrappers ---------------------------------------------


def build_ring(tower, mod: int = 0) -> BottRing:
    """Cohomology ring of a tower over Z (``mod`` 0) or over Z/mod."""
    return BottRing(tower, mod)


def normal_form(ring: BottRing, terms) -> CohomologyClass:
    """Normal form of a formal polynomial (mapping exponents -> coefficient)."""
    return ring.from_terms(terms)


def multiply(ring: BottRing, u: CohomologyClass, v: CohomologyClass) -> CohomologyClass:
    if ring != u.ring or ring != v.ring:
        raise RingMismatchError("classes do not belong to the given ring")
    return u * v


def power(ring: BottRing, u: CohomologyClass, k: int) -> CohomologyClass:
    if ring != u.ring:
        raise RingMismatchError("class does not belong to the given ring")
    return u**k


def graded_rank(ring: BottRing, d: int) -> int:
    return ring.graded_rank(d)


def integrate(ring: BottRing, u: CohomologyClass):
    return ring.integrate(u)


# -- ring maps ----------------------------------------------------------------


@dataclass(frozen=True)
class RingMap:
    """A degree-2 matrix map y'_i -> sum_j matrix[i][j] y_j between rings.

    ``verified`` means every source relation maps to zero in the target, so
    the matrix induces a well-defined graded ring homomorphism.
    """

    source: BottRing
    target: BottRing
    matrix: tuple[tuple[int, ...], ...]
    verified: bool = False

    @property
    def determinant(self) -> int | None:
        """det of the matrix, or None when it is not square."""
        rows = [list(r) for r in self.matrix]
        return det_int(rows) if all(len(r) == len(rows) for r in rows) else None

    @property
    def is_isomorphism(self) -> bool:
        return (
            self.verified
            and len(self.matrix) == self.source.height == self.target.height
            and sorted(self.source.dims) == sorted(self.target.dims)
            and abs(self.determinant) == 1
        )

    def __call__(self, u: CohomologyClass) -> CohomologyClass:
        return apply_map(self, u)

    def to_obj(self):
        return {
            "matrix": [list(r) for r in self.matrix],
            "det": self.determinant,
            "source_dims": list(self.source.dims),
            "target_dims": list(self.target.dims),
        }


@dataclass(frozen=True)
class IsoWitness:
    """A verified ring map whose degree-2 matrix is unimodular."""

    ring_map: RingMap

    def __post_init__(self):
        if not self.ring_map.verified:
            raise UnverifiedMapError("witness requires a verified map")
        if not self.ring_map.is_isomorphism:
            raise ValueError("witness matrix is not unimodular")

    @property
    def matrix(self):
        return self.ring_map.matrix

    @property
    def source(self):
        return self.ring_map.source

    @property
    def target(self):
        return self.ring_map.target

    def __call__(self, u: CohomologyClass) -> CohomologyClass:
        return apply_map(self.ring_map, u)

    def to_obj(self):
        return self.ring_map.to_obj()


def image_of_terms(target: BottRing, images, terms: dict) -> CohomologyClass:
    """Image of a raw coefficient dict under the ring homomorphism that
    sends y'_j to the class ``images[j]`` of ``target``.

    ``images`` is a sequence or a mapping; its entries for variables that
    do not occur in ``terms`` are never read, which lets the isomorphism
    search map only the generators that the Chern classes of a stage
    involve.
    """
    one = {(0,) * target.height: 1}
    mul = target._raw_mul
    powers: dict[int, list[dict]] = {}  # powers[j][k] = images[j]^k, raw
    out: dict = {}
    for e, c in terms.items():
        term = one
        for j, ej in enumerate(e):
            if ej:
                chain = powers.get(j)
                if chain is None:  # images[j] is already in normal form
                    chain = powers[j] = [one, images[j]._c]
                while len(chain) <= ej:
                    chain.append(mul(chain[-1], images[j]._c))
                term = chain[ej] if term is one else mul(term, chain[ej])
        target._raw_add(out, {mono: c * d for mono, d in term.items()})
    return CohomologyClass(target, out)


def verify_map(source: BottRing, target: BottRing, matrix) -> RingMap | None:
    """Check that a degree-2 matrix sends every source relation to zero.

    Returns a verified RingMap, or None when some relation has a nonzero
    image (failure is a value, not an exception).  The map is flagged an
    isomorphism when additionally the matrix is square unimodular and the
    graded ranks agree.

    Stage i is checked as the root product phi(y_i) prod_u (phi(y_i) +
    phi(u)) over the stage's summand roots u: one product of n_i + 1
    linear classes.  The relation f_i differs from that product by
    multiples of f_1, ..., f_(i-1) (its c_q are reduced in the source), and
    the stages are checked in order, returning at the first that fails, so
    when stage i is reached those relations map to zero and the root
    product is the image of f_i.
    """
    if source.mod != target.mod:
        raise DomainMismatchError("rings must share a coefficient domain")
    matrix = tuple(map(tuple, matrix))
    if len(matrix) != source.height or any(
        len(r) != target.height or any(type(v) is not int for v in r) for r in matrix
    ):
        raise ValueError(
            f"matrix must be {source.height} x {target.height} ints for these rings"
        )
    for row, roots in zip(matrix, source._roots):
        product = target.linear_class(row)._c
        for u in roots:
            if not product:
                break
            shifted = list(row)
            for e, c in u.items():  # u = sum c y_j, e the unit vector of j
                shifted = [a + c * b for a, b in zip(shifted, matrix[e.index(1)])]
            product = target._raw_mul(product, target.linear_class(shifted)._c)
        if product:
            return None
    return RingMap(source, target, matrix, verified=True)


def apply_map(rm: RingMap, u: CohomologyClass) -> CohomologyClass:
    """Image of a class under a verified ring map."""
    if not rm.verified:
        raise UnverifiedMapError("refusing to apply an unverified map")
    if rm.source != u.ring:
        raise RingMismatchError("class does not live in the map's source ring")
    images = [rm.target.linear_class(row) for row in rm.matrix]
    return image_of_terms(rm.target, images, u._c)
