"""Independent answers for the benchmark's checks, computed without ``bottcoh``.

Bott towers (every fiber CP^1) are given by their rows: ``rows[k]`` holds
the k integers r_kj (j < k) of the first Chern class u_k = sum_j r_kj y_j
of the nontrivial summand of stage k (0-based).  The ring relation of stage
k is y_k (y_k + u_k) = 0, so y_k^2 = -(sum_{j<k} r_kj y_j) y_k and the
product of two degree-2 classes has a closed form on the basis y_l y_k
(l < k) of H^4: the coefficient is x_l z_k + x_k z_l - x_k z_k r_kl.

Generalized towers are given as stages ``(n, rows)`` with n rows of k
integers each.  :class:`TowerRing` reduces polynomials modulo the stage
relations prod_{u in {0} + rows} (y_k + u) by rewriting the top variable
first; it shares no code or algorithm with the package's memoized
per-monomial normal form.
"""

from __future__ import annotations

from itertools import permutations, product
from math import gcd, prod

# -- Bott towers: closed forms ------------------------------------------------


def bott_product(rows, x, z) -> dict:
    """x * z in H^4 of a Bott tower, as {(l, k): coefficient} with l < k."""
    m = len(rows)
    out = {}
    for k in range(m):
        for l in range(k):
            c = x[l] * z[k] + x[k] * z[l] - x[k] * z[k] * rows[k][l]
            if c:
                out[(l, k)] = c
    return out


def det(matrix) -> int:
    """Determinant by the permutation expansion (the matrices here are at
    most 5 x 5)."""
    n = len(matrix)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = prod(matrix[i][perm[i]] for i in range(n))
        total += -term if inversions % 2 else term
    return total


def witness_error(target_rows, source_rows, matrix) -> str | None:
    """Why ``matrix`` is not an isomorphism H*(source) -> H*(target), or None.

    Row i of ``matrix`` is the image of the i-th source generator.  The map
    is well defined when every source relation y'_i (y'_i + u'_i) maps to
    zero under the closed-form product, and it is an isomorphism when the
    matrix is unimodular.
    """
    m = len(target_rows)
    if len(matrix) != m or any(len(row) != m for row in matrix):
        return f"matrix shape is not {m} x {m}"
    d = det(matrix)
    if abs(d) != 1:
        return f"determinant {d} is not +-1"
    for i in range(m):
        x = matrix[i]
        z = [
            x[c] + sum(source_rows[i][j] * matrix[j][c] for j in range(i))
            for c in range(m)
        ]
        image = bott_product(target_rows, x, z)
        if image:
            return f"source relation {i + 1} maps to {image}, not 0"
    return None


def square_zero_count(rows, modulus: int) -> int:
    """Nonzero x in (Z/modulus)^m with x^2 = 0: every l < k has
    2 x_l x_k = r_kl x_k^2 mod modulus."""
    m = len(rows)
    count = 0
    for x in product(range(modulus), repeat=m):
        if not any(x):
            continue
        if all(
            (2 * x[l] * x[k] - rows[k][l] * x[k] * x[k]) % modulus == 0
            for k in range(m)
            for l in range(k)
        ):
            count += 1
    return count


def p1_content(rows) -> int:
    """gcd of the coefficients of p_1 = sum_k y_k^2 + (y_k + u_k)^2.

    For the 3-stage tower (a, b, c) this is |c (2b - ac)|.
    """
    m = len(rows)
    total: dict = {}
    for k in range(m):
        y = [1 if j == k else 0 for j in range(m)]
        shifted = [y[j] + (rows[k][j] if j < k else 0) for j in range(m)]
        for cls in (y, shifted):
            for key, c in bott_product(rows, cls, cls).items():
                total[key] = total.get(key, 0) + c
    g = 0
    for c in total.values():
        g = gcd(g, c)
    return g


def bott3_rows(abc):
    a, b, c = abc
    return [[], [a], [b, c]]


def sign_flip(rows, signs):
    """Rows of the tower presented with generators y_k -> signs[k] y_k."""
    return [
        [rows[k][j] * signs[k] * signs[j] for j in range(k)] for k in range(len(rows))
    ]


def represent_dual(rows, i):
    """Present stage i (0-based) P(C + L) as P(C + L^-1).

    The new generator is y_i + c_1(L): stage i's row is negated and each
    later row k gets r_kj - r_ki r_ij for j < i.  The unitriangular matrix
    with row i equal to e_i + rows[i] is an isomorphism from the new
    tower's ring to the old one's.
    """
    new = [list(r) for r in rows]
    new[i] = [-v for v in rows[i]]
    for k in range(i + 1, len(rows)):
        for j in range(i):
            new[k][j] = rows[k][j] - rows[k][i] * rows[i][j]
    return new


# -- generalized towers: an independent reducer --------------------------------


def _poly_mul(a: dict, b: dict, modulus=None) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(p + q for p, q in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    if modulus is not None:
        return {e: c % modulus for e, c in out.items() if c % modulus}
    return {e: c for e, c in out.items() if c}


class TowerRing:
    """Z[y_1..y_m] modulo the stage relations of a generalized Bott tower."""

    def __init__(self, stages):
        self.dims = tuple(n for n, _ in stages)
        m = self.m = len(stages)
        self.tails = []  # y_k^{n_k+1} = tails[k] after reduction by stage k
        for k, (n, rows) in enumerate(stages):
            rel = {self.unit(k): 1}
            for row in rows:
                lin = {self.unit(k): 1}
                for j, r in enumerate(row):
                    if r:
                        lin[self.unit(j)] = r
                rel = _poly_mul(rel, lin)
            lead = tuple(n + 1 if j == k else 0 for j in range(m))
            if rel.get(lead) != 1:
                raise ValueError("stage relation is not monic")
            self.tails.append({e: -c for e, c in rel.items() if e != lead})

    def unit(self, j, power=1):
        return tuple(power if i == j else 0 for i in range(self.m))

    def reduce(self, poly: dict, modulus=None) -> dict:
        poly = dict(poly)
        for k in reversed(range(self.m)):
            n = self.dims[k]
            tail = self.tails[k]
            while True:
                over = [e for e in poly if e[k] > n]
                if not over:
                    break
                for e in over:
                    c = poly.pop(e)
                    rest = list(e)
                    rest[k] -= n + 1
                    for g, d in tail.items():
                        key = tuple(p + q for p, q in zip(rest, g))
                        poly[key] = poly.get(key, 0) + c * d
                if modulus is not None:
                    poly = {e: c % modulus for e, c in poly.items() if c % modulus}
                else:
                    poly = {e: c for e, c in poly.items() if c}
        return poly

    def mul(self, a: dict, b: dict, modulus=None) -> dict:
        return self.reduce(_poly_mul(a, b, modulus), modulus)

    def total_chern(self, stages) -> dict:
        """prod over stages k and roots u in {0} + rows of (1 + y_k + u)."""
        one = self.unit(0, 0)
        total = {one: 1}
        for k, (_, rows) in enumerate(stages):
            for row in [[0] * k] + [list(r) for r in rows]:
                factor = {one: 1, self.unit(k): 1}
                for j, r in enumerate(row):
                    if r:
                        factor[self.unit(j)] = factor.get(self.unit(j), 0) + r
                total = self.mul(total, factor)
        return total

    def total_square(self, cls: dict) -> dict:
        """Sq over Z/2: Sq(y^e) = prod_j (y_j + y_j^2)^{e_j}."""
        out: dict = {}
        for e, c in cls.items():
            if c % 2 == 0:
                continue
            term = {self.unit(0, 0): 1}
            for j, ej in enumerate(e):
                factor = {self.unit(j): 1, self.unit(j, 2): 1}
                for _ in range(ej):
                    term = self.mul(term, factor, 2)
            for key, d in term.items():
                out[key] = (out.get(key, 0) + d) % 2
        return {e: c for e, c in out.items() if c}


def char_class_error(stages, chern: dict, pontrjagin: dict, wu: dict, sw: dict):
    """Why a characteristic-class report of ``stages`` is wrong, or None.

    ``chern`` and ``pontrjagin`` are integer classes, ``wu`` and ``sw``
    classes mod 2, each as {exponents: coefficient}.
    """
    ring = TowerRing(stages)
    top = ring.dims
    euler = prod(n + 1 for n in ring.dims)
    if chern.get(top, 0) != euler:
        return f"top Chern class integrates to {chern.get(top, 0)}, not {euler}"
    expected = ring.total_chern(stages)
    if chern != expected:
        return "total Chern class differs from the product of (1 + y_k + u)"
    mod2 = {e: c % 2 for e, c in chern.items() if c % 2}
    if {e: c % 2 for e, c in sw.items() if c % 2} != mod2:
        return "Stiefel-Whitney class is not the mod-2 Chern class"
    conj = {e: (-c if sum(e) % 2 else c) for e, c in chern.items()}
    if any(sum(e) % 2 for e in pontrjagin):
        return "Pontrjagin class has a component of odd degree in y"
    signed = {e: (-c if sum(e) % 4 == 2 else c) for e, c in pontrjagin.items()}
    if ring.mul(chern, conj) != signed:
        return "c * conj(c) differs from sum (-1)^k p_k"
    if ring.total_square(wu) != mod2:
        return "Sq of the Wu class is not the Stiefel-Whitney class"
    return None
