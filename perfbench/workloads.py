"""What one item of each workload runs, and how its output is checked.

Every call goes through the ``bottcoh`` package object handed in as
``api``, looked up at call time, so the traced run can wrap the entry
points.  Checks compare against :mod:`closedform` only, never against a
stored copy of an earlier output.
"""

from __future__ import annotations

import closedform as cf
from inputs import CLASSIFY_BOUND, ISO_BOUND


class Rejected(Exception):
    """An output that its independent check refuses."""


def _plain(cls) -> dict:
    return {tuple(e): int(c) for e, c in cls.items()}


def _matrix(witness):
    return tuple(tuple(int(v) for v in row) for row in witness.matrix)


# -- bott3-classify ------------------------------------------------------------


def bott3_stages(abc):
    return [(1, [row]) for row in cf.bott3_rows(abc)]


def classify_prepare(api, item):
    return (api.validate_tower(bott3_stages(item["t"])),
            api.validate_tower(bott3_stages(item["tp"])))


def classify_run(api, towers):
    return api.classify_3stage(towers[0], towers[1], bound=CLASSIFY_BOUND)


def classify_check(item, verdict):
    rows, rows_p = cf.bott3_rows(item["t"]), cf.bott3_rows(item["tp"])
    if item["expect"] == "DIFFEOMORPHIC":
        if verdict.kind != "DIFFEOMORPHIC":
            raise Rejected(f"{verdict.kind} for a pair related by a {item['kind']}")
        error = cf.witness_error(rows, rows_p, _matrix(verdict.witness))
        if error:
            raise Rejected(f"witness: {error}")
        return
    if verdict.kind != "DISTINCT" or verdict.invariant is None:
        raise Rejected(f"{verdict.kind} for a pair separated by {item['expect']}")
    name, value, value_p = verdict.invariant
    if name != item["expect"]:
        raise Rejected(f"separated by {name}, expected {item['expect']}")
    if name == "p1_content":
        expected = (cf.p1_content(rows), cf.p1_content(rows_p))
    else:
        modulus = int(name[-1])
        expected = (cf.square_zero_count(rows, modulus),
                    cf.square_zero_count(rows_p, modulus))
    if (value, value_p) != expected or value == value_p:
        raise Rejected(f"{name} values {(value, value_p)}, closed form {expected}")


def classify_fingerprint(verdict):
    witness = _matrix(verdict.witness) if verdict.witness is not None else None
    return (verdict.kind, verdict.invariant, witness)


# -- iso-search ------------------------------------------------------------------


def iso_prepare(api, item):
    return tuple(api.validate_tower([(1, [row]) for row in item[side]])
                 for side in ("t", "tp"))


def iso_run(api, towers):
    return api.iso_search(api.build_ring(towers[0]), api.build_ring(towers[1]),
                          ISO_BOUND)


def iso_check(item, witness):
    rows, rows_p = item["t"], item["tp"]
    if witness is not None:
        error = cf.witness_error(rows, rows_p, _matrix(witness))
        if error:
            raise Rejected(f"witness: {error}")
        return
    if item["kind"] == "iso":
        raise Rejected("no witness, but one lies in the box by construction")
    for modulus in (2, 3):
        if cf.square_zero_count(rows, modulus) != cf.square_zero_count(rows_p, modulus):
            return
    raise Rejected("no witness for a pair not certified non-isomorphic")


def iso_fingerprint(witness):
    return None if witness is None else _matrix(witness)


# -- char-classes ------------------------------------------------------------------


def char_prepare(api, item):
    return api.validate_tower(item["stages"])


def char_run(api, tower):
    return api.char_class_report(tower)


def char_check(item, report):
    error = cf.char_class_error(
        item["stages"],
        _plain(report.total_chern),
        _plain(report.total_pontrjagin),
        _plain(report.wu),
        _plain(report.stiefel_whitney),
    )
    if error:
        raise Rejected(error)


def char_fingerprint(report):
    return tuple(
        tuple(sorted(_plain(cls).items()))
        for cls in (report.total_chern, report.total_pontrjagin, report.wu,
                    report.stiefel_whitney)
    )


WORKLOADS = {
    "bott3-classify": (classify_prepare, classify_run, classify_check,
                       classify_fingerprint),
    "iso-search": (iso_prepare, iso_run, iso_check, iso_fingerprint),
    "char-classes": (char_prepare, char_run, char_check, char_fingerprint),
}
