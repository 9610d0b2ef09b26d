"""Command-line front end.

Exit codes: 0 when the computation succeeded (affirmative verdicts
included), 1 for negative verdicts (DISTINCT, UNKNOWN, no witness found,
not a product, nontrivial bundle), 2 for malformed input, for a ring whose
rank is over ``MAX_RANK`` (``ring``, ``classes`` and ``iso-search``) or for
a computation that runs out of memory.  ``--json`` switches to canonical
machine output: keys sorted, compact separators, so parsing and
re-serializing a report is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import prod

from .bundles import find_zero_column, is_trivial
from .charclasses import char_class_report
from .classify import (
    ProductWitness,
    Verdict,
    classify_2stage,
    classify_3stage,
    is_product_cohomology,
)
from .errors import BottcohError, ModulusError, RankLimitError
from .ring import build_ring
from .search import iso_search
from .towers import load_bundle, load_tower


# rank prod(n_i + 1) up to which ``ring``, ``classes`` and ``iso-search``
# build a ring: the Wu solve of ``classes`` on a height-12 Bott tower (rank
# 4096) takes 2.4 to 5.0 s and 90 to 100 MB (two towers, Python 3.11 on an
# Intel Xeon core), and each further stage at least doubles both; a search
# compiles the degree-2 basis whatever its bound, m(m + 1)/2 monomials of
# length m on a Bott tower of height m
MAX_RANK = 4096


def _load_bounded(path):
    tower = load_tower(path)
    rank = prod(n + 1 for n in tower.dims)
    if rank > MAX_RANK:
        raise RankLimitError(f"ring rank {rank} is over the limit {MAX_RANK}")
    return tower


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(args, obj, human: str) -> None:
    if args.json:
        print(canonical_json(obj))
    else:
        print(human)


def _cmd_ring(args) -> int:
    tower = _load_bounded(args.tower)
    if args.mod is not None and args.mod < 2:
        raise ModulusError(f"modulus must be an integer >= 2, got {args.mod}")
    # the relations are monic with integer coefficients, so the ring over Q
    # has the basis and relations of the ring over Z
    ring = build_ring(tower, args.mod or 0)
    domain = f"Z/{ring.mod}" if ring.mod else "Q" if args.rational else "Z"
    ranks = [ring.graded_rank(d) for d in range(ring.top_degree + 1)]
    basis = [list(e) for d in range(ring.top_degree + 1) for e in ring.basis(d)]
    relations = [_relation_obj(ring, i) for i in range(1, ring.height + 1)]
    obj = {
        "dims": list(ring.dims),
        "domain": domain,
        "graded_ranks": ranks,
        "relations": relations,
        "basis": basis,
    }
    lines = [
        f"dims: {list(ring.dims)}  domain: {domain}",
        f"graded ranks (by half-degree): {ranks}",
        "relations:",
    ]
    for i in range(1, ring.height + 1):
        lines.append(f"  f_{i}: " + _relation_str(ring, i))
    _emit(args, obj, "\n".join(lines))
    return 0


def _relation_obj(ring, i):
    terms = ring.relation_terms(i)
    return [
        {"exponents": list(e), "coeff": str(terms[e])}
        for e in sorted(terms, key=lambda e: (sum(e), e))
    ]


def _relation_str(ring, i) -> str:
    parts = []
    terms = ring.relation_terms(i)
    for e in sorted(terms, key=lambda e: (sum(e), e)):
        c = terms[e]
        mono = "*".join(
            f"y{j + 1}^{k}" if k > 1 else f"y{j + 1}" for j, k in enumerate(e) if k
        )
        cs = str(c)
        if cs == "1" and mono:
            parts.append(mono)
        else:
            parts.append(f"{cs}*{mono}" if mono else cs)
    return " + ".join(parts)


def _cmd_classes(args) -> int:
    report = char_class_report(_load_bounded(args.tower))
    human = "\n".join(
        [
            f"chern:            {report.total_chern!r}",
            f"pontrjagin:       {report.total_pontrjagin!r}",
            f"wu:               {report.wu!r}",
            f"stiefel_whitney:  {report.stiefel_whitney!r}",
        ]
    )
    _emit(args, report.to_obj(), human)
    return 0


def _cmd_is_product(args) -> int:
    result = is_product_cohomology(load_tower(args.tower))
    if isinstance(result, ProductWitness):
        obj = {"verdict": "DIFFEOMORPHIC", **result.to_obj()}
        _emit(args, obj, f"product cohomology; twists {result.twists}")
        return 0
    _emit(
        args,
        result.to_obj(),
        f"DISTINCT from a product at stage {result.stage} ({result.reason}): {result.detail}",
    )
    return 1


def _verdict_exit(args, verdict: Verdict) -> int:
    obj = verdict.to_obj()
    if verdict.is_diffeomorphic:
        human = f"DIFFEOMORPHIC; witness {obj['witness']}"
    elif verdict.kind == "DISTINCT":
        human = f"DISTINCT; separating invariant {obj['invariant']}"
    else:
        human = f"UNKNOWN at search bound {verdict.bound}"
    _emit(args, obj, human)
    return 0 if verdict.is_diffeomorphic else 1


def _cmd_classify2(args) -> int:
    return _verdict_exit(args, classify_2stage(load_tower(args.t1), load_tower(args.t2)))


def _cmd_classify3(args) -> int:
    verdict = classify_3stage(
        load_tower(args.t1), load_tower(args.t2), bound=args.bound
    )
    return _verdict_exit(args, verdict)


def _cmd_iso_search(args) -> int:
    r1 = build_ring(_load_bounded(args.t1))
    r2 = build_ring(_load_bounded(args.t2))
    witness = iso_search(r1, r2, args.bound)
    if witness is None:
        _emit(args, {"witness": None, "bound": args.bound}, "no witness found")
        return 1
    obj = {"witness": witness.to_obj(), "bound": args.bound}
    _emit(args, obj, f"witness matrix {witness.matrix}")
    return 0


def _cmd_bundle_trivial(args) -> int:
    bundle = load_bundle(args.bundle)
    trivial = is_trivial(bundle)
    trace: list[int] = []
    if trivial and bundle.rank < sum(bundle.base_dims):
        _, trace = find_zero_column(bundle)
    obj = {"trivial": trivial, "zero_column_trace": trace}
    _emit(args, obj, f"trivial: {trivial}; zero column trace: {trace}")
    return 0 if trivial else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bottcoh",
        description="Cohomology rings, characteristic classes and rigidity "
        "classifiers for generalized Bott towers.",
    )
    parser.add_argument("--json", action="store_true", help="canonical JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ring", help="basis, relations and graded ranks of a tower ring")
    p.add_argument("tower")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--mod", type=int, help="coefficients mod P")
    group.add_argument("--rational", action="store_true",
                       help="label the ring over Z as over Q")
    p.set_defaults(func=_cmd_ring)

    p = sub.add_parser("classes", help="Chern, Pontrjagin, Wu and Stiefel-Whitney classes")
    p.add_argument("tower")
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("is-product", help="detect product cohomology")
    p.add_argument("tower")
    p.set_defaults(func=_cmd_is_product)

    p = sub.add_parser("classify2", help="classify two 2-stage towers")
    p.add_argument("t1")
    p.add_argument("t2")
    p.set_defaults(func=_cmd_classify2)

    p = sub.add_parser("classify3", help="classify two 3-stage Bott towers")
    p.add_argument("t1")
    p.add_argument("t2")
    p.add_argument("--bound", type=int, default=4, help="isomorphism search bound")
    p.set_defaults(func=_cmd_classify3)

    p = sub.add_parser("iso-search", help="bounded search for a ring isomorphism")
    p.add_argument("t1")
    p.add_argument("t2")
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(func=_cmd_iso_search)

    p = sub.add_parser("bundle-trivial", help="Chern triviality of a line-bundle sum")
    p.add_argument("bundle")
    p.set_defaults(func=_cmd_bundle_trivial)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # integers are exact and unbounded, read and printed alike: lift the
    # int/str digit limit (Python 3.10.7 and later) while a command runs
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (BottcohError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
