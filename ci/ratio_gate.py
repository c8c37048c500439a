#!/usr/bin/env python3
"""Enforces the within-run ratio claims of a run_benches.sh aggregate.

Usage: ratio_gate.py BENCH.json

Each ROWS entry names a suite, a numerator and a denominator bench, the
metric compared, a floor or a ceiling on numerator / denominator, and the
minimum core count the recording host needs for the bound to bind. Both
sides of a row come from one run, so the ratios are immune to the host
being slower or faster than the snapshot host; they measure claims:

  * lazy vs eager emptiness: eager / lazy ns >= 2 at the largest
    parameter both benches share (the lazy win compounds with size);
  * antichain pruning: off / on ns >= 2 at the largest shared parameter;
  * sharded-cache warm hits: per-lookup cost at 1 thread over N threads
    (= N * ns(1) / ns(N), the throughput scaling) >= 2 at N=4 and >= 3
    at N=8, binding only when the host has that many cores;
  * streaming O(depth) memory: over the smallest..largest size both the
    streaming and the DOM bench share, the streaming peak grows <= 1.2x,
    the DOM peak grows >= 2x, the span is >= 4x, and streaming throughput
    is >= 0.5x DOM at the largest size.

A side is (bench, at): `at` is "max" or "min" (the largest or smallest
params common to every bench of the row's `over` list, default the row's
two benches) or a literal params list. A missing suite, bench or params
row is always an error: the gate exists to catch benches silently
disappearing as much as the claims regressing. A row whose core count the
recording host (metadata.hardware_concurrency) lacks is reported, not
enforced.
"""

import json
import sys

STREAM = ("BM_StreamValidate", "BM_DomValidate")
TRANSFORM = ("BM_StreamTransform", "BM_DomTransform")


def row(suite, num, den, metric, floor=None, ceiling=None, cores=1,
        over=None):
    return {"suite": suite, "num": num, "den": den, "metric": metric,
            "floor": floor, "ceiling": ceiling, "cores": cores,
            "over": over}


def stream_rows(stream, dom):
    return [
        row("bench_stream", (stream, "max"), (stream, "min"), "peak_bytes",
            ceiling=1.2, over=(stream, dom)),
        row("bench_stream", (dom, "max"), (dom, "min"), "peak_bytes",
            floor=2.0, over=(stream, dom)),
        row("bench_stream", (stream, "max"), (stream, "min"), "param",
            floor=4.0, over=(stream, dom)),
        row("bench_stream", (dom, "max"), (stream, "max"), "ns_per_op",
            floor=0.5),
    ]


CACHE = "BM_CacheWarmHitContention"

ROWS = [
    row("bench_thm18_hardness", ("BM_Thm18_InclusionEager", "max"),
        ("BM_Thm18_InclusionLazy", "max"), "ns_per_op", floor=2.0),
    row("bench_lemma14_scaling", ("BM_Lemma14_InclusionEager", "max"),
        ("BM_Lemma14_InclusionLazy", "max"), "ns_per_op", floor=2.0),
    row("bench_antichain", ("BM_AntichainInclusion_Off", "max"),
        ("BM_AntichainInclusion_On", "max"), "ns_per_op", floor=2.0),
    row("bench_antichain", ("BM_AntichainInclusionDense_Off", "max"),
        ("BM_AntichainInclusionDense_On", "max"), "ns_per_op", floor=2.0),
    row("bench_service", (CACHE, [1]), (CACHE, [4]), "ns_per_thread",
        floor=2.0, cores=4),
    row("bench_service", (CACHE, [1]), (CACHE, [8]), "ns_per_thread",
        floor=3.0, cores=8),
] + stream_rows(*STREAM) + stream_rows(*TRANSFORM)

# ns_per_thread: BM_CacheWarmHitContention times one iteration of
# threads * kOpsPerThread lookups, so ns_per_op / threads is the cost of
# one thread's share — the 1-thread over N-thread ratio is the scaling.
METRICS = {
    "ns_per_op": lambda r: float(r["ns_per_op"]),
    "peak_bytes": lambda r: float(r["peak_bytes"]),
    "ns_per_thread": lambda r: float(r["ns_per_op"]) / r["params"][0],
    "param": lambda r: float(r["params"][0]),
}


def rows_of(doc, suite, bench):
    return {tuple(r.get("params", [])): r
            for r in doc.get("suites", {}).get(suite, [])
            if r.get("bench") == bench}


def pick(doc, spec, side):
    """The bench row for one side of `spec`, or an error string."""
    bench, at = spec[side]
    rows = rows_of(doc, spec["suite"], bench)
    if isinstance(at, list):
        found = rows.get(tuple(at))
        return found or f"{spec['suite']} {bench}: no params={at} row"
    over = spec["over"] or (spec["num"][0], spec["den"][0])
    common = set(rows)
    for other in over:
        common &= set(rows_of(doc, spec["suite"], other))
    if not common:
        return (f"{spec['suite']}: no common params for "
                f"{' / '.join(over)}")
    return rows[max(common) if at == "max" else min(common)]


def check(doc, spec, cores):
    """Returns a failure string, or None when the row passes or is info."""
    num, den = pick(doc, spec, "num"), pick(doc, spec, "den")
    for side in (num, den):
        if isinstance(side, str):
            return side
    metric = METRICS[spec["metric"]]
    n, d = metric(num), metric(den)
    ratio = n / d if d > 0 else 0.0
    enforce = cores >= spec["cores"]
    bound = (f">= {spec['floor']:.2f}x" if spec["floor"] is not None
             else f"<= {spec['ceiling']:.2f}x")
    tag = "GATE" if enforce else f"info (<{spec['cores']} cores)"
    label = (f"{spec['suite']} {spec['metric']} "
             f"{num['bench']}{num['params']} / {den['bench']}{den['params']}")
    print(f"[{tag}] {label}: {n:.0f} / {d:.0f} = {ratio:.2f}x "
          f"(need {bound})")
    if not enforce:
        return None
    if spec["floor"] is not None and ratio < spec["floor"]:
        return f"{label}: {ratio:.2f}x below the {spec['floor']:.2f}x floor"
    if spec["ceiling"] is not None and ratio > spec["ceiling"]:
        return (f"{label}: {ratio:.2f}x above the "
                f"{spec['ceiling']:.2f}x ceiling")
    return None


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        doc = json.load(f)
    cores = int(doc.get("metadata", {}).get("hardware_concurrency", 1))
    failures = [fail for spec in ROWS
                if (fail := check(doc, spec, cores)) is not None]
    if failures:
        print("ratio gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("ratio gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
