"""Whitney sums of line bundles over products of projective spaces.

Triviality and isomorphism are decided entirely through total Chern classes
in Z[x_1, ..., x_k]/(x_j^{n_j+1}): for these bundles a trivial total Chern
class forces the bundle itself to be trivial, and equal total Chern classes
force an isomorphism.  Below the stable range the triviality proof is
constructive: some exponent column must vanish outright, and dropping that
base factor repeats until the rank reaches the remaining base dimension.
No clutching or cocycle data is ever represented.
"""

from __future__ import annotations

from .errors import BundleHypothesisError, TowerFormatError
from .ring import BottRing, CohomologyClass, build_ring
from .scalars import ZZ
from .towers import LineBundleSum, product_tower, validate_bundle


def _base_ring(bundle: LineBundleSum) -> BottRing:
    return build_ring(product_tower(bundle.base_dims), ZZ)


def total_chern_bundle(bundle) -> CohomologyClass:
    """prod over summands of (1 + sum_j a_ij x_j), reduced in the base ring."""
    bundle = validate_bundle(bundle)
    ring = _base_ring(bundle)
    total = ring.one()
    for row in bundle.exponents:
        total = total * (ring.one() + ring.linear_class(row))
    return total


def is_trivial(bundle) -> bool:
    """Chern criterion for triviality of a sum of line bundles over a
    product of projective spaces."""
    c = total_chern_bundle(bundle)
    return c == c.ring.one()


def bundles_isomorphic(e, e_prime) -> bool:
    """Two sums of line bundles over the same base with the same number of
    summands are isomorphic exactly when their total Chern classes agree."""
    e = validate_bundle(e)
    e_prime = validate_bundle(e_prime)
    if e.base_dims != e_prime.base_dims:
        raise TowerFormatError("bundles live over different bases")
    if e.rank != e_prime.rank:
        raise TowerFormatError("bundles have different numbers of summands")
    return total_chern_bundle(e) == total_chern_bundle(e_prime)


def _column_checks(rows, dims):
    """Identities forced by triviality; failure is an internal error."""
    k = len(dims)
    n = len(rows)
    for j in range(k):
        if sum(rows[i][j] for i in range(n)) != 0:
            raise AssertionError("column sum identity violated for a trivial bundle")
    if all(d == 1 for d in dims):
        for j in range(k):
            for jp in range(j + 1, k):
                if sum(rows[i][j] * rows[i][jp] for i in range(n)) != 0:
                    raise AssertionError("column orthogonality violated")
    else:
        for j in range(k):
            if dims[j] >= 2 and any(rows[i][j] for i in range(n)):
                raise AssertionError("nonzero column over a factor of dimension >= 2")


def find_zero_column(bundle) -> tuple[int, list[int]]:
    """Locate an all-zero exponent column of a trivial, sub-stable bundle.

    Returns ``(column, trace)`` with 1-based indices into the original base
    factors: ``column`` is the smallest zero column, and ``trace`` lists the
    columns removed by iterating the reduction (dropping the factor each
    time) until the rank is at least the remaining total base dimension.

    Raises BundleHypothesisError when the bundle is not trivial or the rank
    is already in the stable range; those are misuses of the reduction, not
    failures of it.
    """
    bundle = validate_bundle(bundle)
    if not is_trivial(bundle):
        raise BundleHypothesisError("the zero-column reduction needs a trivial bundle")
    n = bundle.rank
    if n >= sum(bundle.base_dims):
        raise BundleHypothesisError(
            "rank is in the stable range; no sub-stable reduction applies"
        )
    rows = [list(r) for r in bundle.exponents]
    dims = list(bundle.base_dims)
    original = list(range(1, len(dims) + 1))
    trace: list[int] = []
    while n < sum(dims):
        _column_checks(rows, dims)
        zero_col = None
        for j in range(len(dims)):
            if all(row[j] == 0 for row in rows):
                zero_col = j
                break
        if zero_col is None:
            raise AssertionError("trivial sub-stable bundle without a zero column")
        trace.append(original[zero_col])
        for row in rows:
            del row[zero_col]
        del dims[zero_col]
        del original[zero_col]
    return trace[0], trace
