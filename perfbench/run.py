"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bott3-classify --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout this file sits in.
Inputs are generated from the seed first, as plain integers.  The set-up,
importing the package afresh and validating the inputs, runs once before
the first round and again after every round.  Each round runs every item
once, interleaved with the reference loop that defines the time unit
``ref``; rounds repeat until the time is up.  The first round's outputs are
checked against the independent closed forms, later rounds must reproduce
them exactly.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, end-to-end with
``--trace 0``, per-layer with ``--trace 1``.  A run record goes to
``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import inputs
from refloop import ref_sample
from tracing import METRICS, Tracer
from workloads import WORKLOADS, Rejected

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORDS = HERE / "runs"

MIN_SETUPS = 5
MIN_ROUNDS = 3
REF_SPACING_S = 0.02  # a reference sample at least this often
REF_WINDOW = 4  # an item's ref: median of up to this many samples each side
TAIL_BEYOND = 10  # the tail percentile leaves this many items above it
MIN_ITEMS = 40

END_TO_END_UNITS = {
    "items_per_kref": "1/kref",
    "item_p50_ref": "ref",
    "item_tail_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    pass


def fresh_import():
    """Import ``bottcoh`` from this checkout's ``src``, dropping any copy
    already loaded, so that every set-up pays the full import."""
    src = str(ROOT / "src")
    if sys.path[:1] != [src]:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "bottcoh" or n.startswith("bottcoh.")]:
        del sys.modules[name]
    try:
        api = importlib.import_module("bottcoh")
    except ImportError as exc:
        raise SetupError(f"cannot import bottcoh from {src}: {exc}") from None
    origin = Path(api.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SetupError(f"bottcoh was imported from {origin}, not from {src}")
    return api


def set_up(items, prepare):
    """Import the package and validate every item's towers; returns the
    seconds taken, the package object and the validated inputs."""
    t0 = perf_counter()
    api = fresh_import()
    prepared = [prepare(api, item) for item in items]
    return perf_counter() - t0, api, prepared


def tail(values):
    """The highest percentile with at least TAIL_BEYOND values above it."""
    return sorted(values)[-TAIL_BEYOND - 1]


def measure(api, items, prepared, workload, seconds, tracer):
    """Run whole rounds for ``seconds``.  The set-up is repeated after
    every round, so that its median samples the same stretch of time as
    the items; the items keep using the package object they started with.
    """
    prepare, run, check, fingerprint = WORKLOADS[workload]
    n = len(items)
    raw = [[] for _ in range(n)]  # seconds per round, per item
    scaled = [[] for _ in range(n)]  # ref per round, per item
    expected = {}
    failures = []
    attempted = rejected = 0
    round_refs, ref_samples, layer_rounds, setup_times = [], [], [], []
    start = perf_counter()
    while True:
        first = not round_refs
        refs = [ref_sample()]
        last_ref = perf_counter()
        times = [None] * n
        where = [0] * n  # index of the last reference sample before the item
        before = tracer.snapshot() if tracer else None
        for idx in range(n):
            if perf_counter() - last_ref >= REF_SPACING_S:
                refs.append(ref_sample())
                last_ref = perf_counter()
            where[idx] = len(refs) - 1
            attempted += 1
            if tracer:
                tracer.item = idx
            t0 = perf_counter()
            try:
                out = run(api, prepared[idx])
            except Exception as exc:  # an item that raises is a failed item
                failures.append(f"item {idx}: {type(exc).__name__}: {exc}")
                continue
            dt = perf_counter() - t0
            try:
                if first:
                    check(items[idx], out)
                    expected[idx] = fingerprint(out)
                elif fingerprint(out) != expected.get(idx):
                    raise Rejected("output differs from the checked first round")
            except Rejected as exc:
                rejected += 1
                failures.append(f"item {idx}: rejected: {exc}")
                continue
            times[idx] = dt
        refs.append(ref_sample())
        ref = median(refs)
        round_refs.append(ref)
        ref_samples.extend(refs)
        for idx, dt in enumerate(times):
            if dt is not None:
                lo = max(0, where[idx] - REF_WINDOW + 1)
                raw[idx].append(dt)
                scaled[idx].append(dt / median(refs[lo:where[idx] + REF_WINDOW + 1]))
        if tracer:
            layer_rounds.append(tracer.round_metrics(before, ref))
            tracer.keep_spans = False
        setup_times.append(set_up(items, prepare)[0])
        if perf_counter() - start >= seconds and len(round_refs) >= MIN_ROUNDS:
            break
    while len(setup_times) < MIN_SETUPS - 1:
        setup_times.append(set_up(items, prepare)[0])
    return {
        "rounds": len(round_refs),
        "attempted": attempted,
        "failed": len(failures),
        "rejected": rejected,
        "failures": failures[:20],
        "round_refs_s": round_refs,
        "ref_samples": len(ref_samples),
        "ref_s": median(ref_samples),
        "item_ref": [median(v) if v else None for v in scaled],
        "item_s": [median(v) if v else None for v in raw],
        "layer_rounds": layer_rounds,
        "wall_s": perf_counter() - start,
        "setup_times_s": setup_times,
    }


def end_to_end(result):
    per_item = [v for v in result["item_ref"] if v is not None]
    per_item_s = [v for v in result["item_s"] if v is not None]
    if len(per_item) <= TAIL_BEYOND:
        return None, None
    metrics = {
        "items_per_kref": 1000 * len(per_item) / sum(per_item),
        "item_p50_ref": median(per_item),
        "item_tail_ref": tail(per_item),
        "setup_s": median(result["setup_times_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        "items_per_s": len(per_item_s) / sum(per_item_s),
        "item_p50_s": median(per_item_s),
        "item_tail_s": tail(per_item_s),
        "ref_s": result["ref_s"],
    }
    return metrics, raw


def per_layer(result):
    """Each per-layer metric per round: the median over the run's rounds,
    which are identical work, so a count repeats exactly."""
    rounds = result["layer_rounds"]
    return {name: median(r[name] for r in rounds) for name in METRICS}


def write_record(name, payload):
    try:
        RECORDS.mkdir(exist_ok=True)
        with open(RECORDS / name, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
    except OSError as exc:
        print(f"run record not written: {exc}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    items = inputs.GENERATORS[args.workload](args.seed)
    if len(items) < MIN_ITEMS:
        raise SystemExit(f"{args.workload} has {len(items)} items, needs {MIN_ITEMS}")
    prepare = WORKLOADS[args.workload][0]
    try:
        setup_first, api, prepared = set_up(items, prepare)
    except SetupError as exc:
        print(exc, file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        result = measure(api, items, prepared, args.workload, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    result["setup_times_s"].insert(0, setup_first)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    correct = result["rejected"] == 0
    record = {"args": vars(args), "items": items, "correct": correct,
              **{k: v for k, v in result.items() if k != "layer_rounds"}}
    print(f"{args.workload} seed {args.seed}: {result['rounds']} rounds of "
          f"{len(items)} items in {result['wall_s']:.1f} s, "
          f"{result['failed']} of {result['attempted']} failed")
    for failure in result["failures"]:
        print(f"  {failure}")
    print(f"ref = {result['ref_s'] * 1e3:.4f} ms (median of {result['ref_samples']} "
          f"samples), rounds {min(result['round_refs_s']) * 1e3:.4f} to "
          f"{max(result['round_refs_s']) * 1e3:.4f} ms")

    if tracer:
        metrics = per_layer(result)
        units = {name: unit for name, (unit, _, _) in METRICS.items()}
        record["per_layer"] = metrics
        record["missing"] = sorted(tracer.missing)
        write_record(f"trace-{args.workload}-seed{args.seed}.json",
                     {"args": vars(args), "spans": tracer.span_records()})
        out = {}
        for name, value in metrics.items():
            if METRICS[name][2] in tracer.missing:
                out[name] = {"value": None, "unit": units[name], "missing": True}
                print(f"  {name:38s} {'missing':>14s}")
            else:
                out[name] = {"value": value, "unit": units[name]}
                print(f"  {name:38s} {value:14.4f} {units[name]}")
    else:
        metrics, raw = end_to_end(result)
        if metrics is None:
            correct = False
            metrics = {name: None for name in END_TO_END_UNITS}
            raw = {}
        record["end_to_end"], record["raw"] = metrics, raw
        out = {name: {"value": metrics[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
        for name, value in metrics.items():
            print(f"  {name:16s} {value} {END_TO_END_UNITS[name]}")
        for name, value in raw.items():
            print(f"  raw {name:12s} {value}")
    record["correct"] = correct
    write_record(f"{tag}.json", record)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
