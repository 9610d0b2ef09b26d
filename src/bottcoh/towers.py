"""Combinatorial data of generalized Bott towers and sums of line bundles.

A tower of height m is a list of stages.  Stage i (1-based) has fiber
CP^{n_i} and is the projectivization of a sum of n_i + 1 line bundles over
the previous stage; the normal form fixes the 0-th summand trivial, so only
the n_i nontrivial summands are stored.  Row alpha of the stage's exponent
matrix gives the first Chern class of the alpha-th nontrivial summand in the
degree-2 basis y_1, ..., y_{i-1} of the base.  All entries are exact,
unbounded integers.  Stage indices are 1-based in documentation and in the
serialized form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import TowerFormatError


@dataclass(frozen=True)
class StageSpec:
    """One stage: fiber dimension n and an n x (i-1) integer exponent matrix."""

    fiber_dim: int
    summand_exponents: tuple[tuple[int, ...], ...]

    @property
    def columns(self) -> int:
        return len(self.summand_exponents[0]) if self.summand_exponents else 0


@dataclass(frozen=True)
class TowerSpec:
    """A validated generalized Bott tower."""

    stages: tuple[StageSpec, ...]

    @property
    def height(self) -> int:
        return len(self.stages)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.fiber_dim for s in self.stages)

    def total_complex_dim(self) -> int:
        return sum(self.dims)

    def replace_stage(self, index: int, stage: StageSpec) -> "TowerSpec":
        """New tower with stage ``index`` (1-based) swapped out."""
        stages = list(self.stages)
        stages[index - 1] = stage
        return validate_tower(stages)

    def to_obj(self):
        return {
            "stages": [
                {
                    "fiber_dim": s.fiber_dim,
                    "summands": [list(r) for r in s.summand_exponents],
                }
                for s in self.stages
            ]
        }


@dataclass(frozen=True)
class LineBundleSum:
    """A Whitney sum of line bundles over a product of projective spaces.

    ``base_dims`` lists the factors CP^{n_1} x ... x CP^{n_k}; row i of
    ``exponents`` gives the first Chern class of the i-th summand in the
    degree-2 basis x_1, ..., x_k.
    """

    base_dims: tuple[int, ...]
    exponents: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.exponents)

    @property
    def factors(self) -> int:
        return len(self.base_dims)

    def to_obj(self):
        return {
            "base_dims": list(self.base_dims),
            "exponents": [list(r) for r in self.exponents],
        }


def _as_tuple(value, what, stage):
    try:
        return tuple(value)
    except TypeError:
        raise TowerFormatError(f"{what} {value!r} is not a list", stage=stage) from None


def _int_row(row, length, stage):
    row = _as_tuple(row, "summand row", stage)
    if len(row) != length:
        raise TowerFormatError(
            f"summand row has {len(row)} columns, expected {length}", stage=stage
        )
    for v in row:
        if isinstance(v, bool) or not isinstance(v, int):
            raise TowerFormatError(f"entry {v!r} is not an integer", stage=stage)
    return row


def validate_tower(raw) -> TowerSpec:
    """Validate a raw tower description and return a TowerSpec.

    Accepts a TowerSpec, a list of StageSpec, a list of (fiber_dim, rows)
    pairs, or a list of {"fiber_dim": n, "summands": rows} mappings.  Stage i
    must carry exactly fiber_dim rows of exactly i - 1 columns; for stage 1
    an empty matrix may be written as [].  A TowerSpec that this function
    returned is returned as it is; one built by hand is checked.
    """
    if isinstance(raw, TowerSpec):
        if raw.__dict__.get("_validated"):
            return raw
        raw = list(raw.stages)
    if isinstance(raw, dict):
        raw = raw.get("stages", raw)
    stages = []
    if not isinstance(raw, (list, tuple)) or not raw:
        raise TowerFormatError("a tower needs at least one stage")
    for idx, item in enumerate(raw, start=1):
        if isinstance(item, StageSpec):
            n, rows = item.fiber_dim, item.summand_exponents
        elif isinstance(item, dict):
            try:
                n, rows = item["fiber_dim"], item["summands"]
            except KeyError as exc:
                raise TowerFormatError(f"missing key {exc}", stage=idx) from None
        else:
            try:
                n, rows = item
            except (TypeError, ValueError):
                raise TowerFormatError(
                    f"cannot interpret stage description {item!r}", stage=idx
                ) from None
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise TowerFormatError(
                f"fiber dimension must be a positive integer, got {n!r}", stage=idx
            )
        rows = _as_tuple(rows, "exponent matrix", idx)
        if idx == 1 and rows == ():
            rows = ((),) * n  # empty matrix shorthand for the first stage
        if len(rows) != n:
            raise TowerFormatError(
                f"exponent matrix has {len(rows)} rows, expected {n}", stage=idx
            )
        rows = tuple(_int_row(r, idx - 1, idx) for r in rows)
        stages.append(StageSpec(n, rows))
    spec = TowerSpec(tuple(stages))
    # frozen, and built from checked stages: later calls can trust it
    object.__setattr__(spec, "_validated", True)
    return spec


def normalize_stage(summand_rows) -> StageSpec:
    """Build a stage from a full list of n + 1 line-bundle summands.

    Tensoring by the dual of summand 0 subtracts the first row from every
    row; the resulting zero row is dropped, presenting an isomorphic
    projective bundle with the 0-th summand trivial.
    """
    rows = [tuple(r) for r in summand_rows]
    if not rows:
        raise TowerFormatError("empty summand list")
    if len(rows) < 2:
        raise TowerFormatError("a stage needs at least two summands")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise TowerFormatError("summand rows have inconsistent lengths")
    first = rows[0]
    rest = tuple(tuple(a - b for a, b in zip(r, first)) for r in rows[1:])
    return StageSpec(len(rest), rest)


def dualize_stage(stage: StageSpec) -> StageSpec:
    """Stage presenting the projectivization of the dual bundle.

    Negates the full summand list (including the implicit trivial summand)
    and re-normalizes.  Several summands could be made trivial; the returned
    matrix is the lexicographically minimal candidate, rows sorted, which
    fixes a deterministic serialization.
    """
    width = stage.columns
    zero = (0,) * width
    negated = [zero] + [tuple(-v for v in row) for row in stage.summand_exponents]
    best = None
    for pivot in negated:
        shifted = [tuple(a - b for a, b in zip(row, pivot)) for row in negated]
        shifted.remove(zero)
        candidate = tuple(sorted(shifted))
        if best is None or candidate < best:
            best = candidate
    return StageSpec(stage.fiber_dim, best)


def product_tower(dims) -> TowerSpec:
    """The tower of CP^{n_1} x ... x CP^{n_m}: all exponent matrices zero."""
    dims = tuple(dims)
    if not dims:
        raise TowerFormatError("a tower needs at least one stage")
    stages = []
    for i, n in enumerate(dims, start=1):
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise TowerFormatError(f"fiber dimension must be positive, got {n!r}", stage=i)
        stages.append(StageSpec(n, tuple(((0,) * (i - 1),) * n)))
    return TowerSpec(tuple(stages))


def hirzebruch(a: int) -> TowerSpec:
    """The Hirzebruch surface P(C + gamma^a) over CP^1."""
    return validate_tower([(1, [()]), (1, [(a,)])])


def bott_tower_3(a: int, b: int, c: int) -> TowerSpec:
    """The 3-stage Bott tower with twist parameters (a, b, c)."""
    return validate_tower([(1, [()]), (1, [(a,)]), (1, [(b, c)])])


def validate_bundle(raw) -> LineBundleSum:
    """Validate a raw line-bundle-sum description."""
    if isinstance(raw, LineBundleSum):
        raw = raw.to_obj()
    try:
        base_dims = tuple(raw["base_dims"])
        rows = list(raw["exponents"])
    except (KeyError, TypeError) as exc:
        raise TowerFormatError(f"bad bundle description: {exc}") from None
    if not base_dims:
        raise TowerFormatError("bundle needs at least one base factor")
    for n in base_dims:
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise TowerFormatError(f"base dimension must be positive, got {n!r}")
    if not rows:
        raise TowerFormatError("bundle needs at least one summand")
    rows = tuple(_int_row(r, len(base_dims), None) for r in rows)
    return LineBundleSum(base_dims, rows)


def _json_obj(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise TowerFormatError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise TowerFormatError("JSON nested too deeply") from None


def tower_from_json(text: str) -> TowerSpec:
    return validate_tower(_json_obj(text))


def bundle_from_json(text: str) -> LineBundleSum:
    return validate_bundle(_json_obj(text))


def _read_text(path) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TowerFormatError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def load_tower(path) -> TowerSpec:
    return tower_from_json(_read_text(path))


def load_bundle(path) -> LineBundleSum:
    return bundle_from_json(_read_text(path))
