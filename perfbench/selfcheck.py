#!/usr/bin/env python3
"""Self-check of the benchmark at cheap sizes.

Run from the repository root:

    python3 perfbench/selfcheck.py

For every workload it runs the benchmark command of BENCHMARK.json with
`--cheap`, untraced and traced, and checks that

* the last line is one JSON object with exactly the keys `correct`,
  `attempted`, `failed` and `metrics`, that the run is correct and that
  `attempted` is at least 1;
* the untraced run reports every end-to-end metric and the traced run every
  per-layer metric, each with its declared unit and a name matching
  `[A-Za-z0-9_.-]+`, and that no end-to-end value is 0;
* the untraced and the traced run of one seed print the same digest of
  their deterministic outputs (native tokens and hidden states, simulated
  request outcomes);
* a second traced invocation with the same seed reports identical values
  for every deterministic per-layer metric (counts and simulated times).

It also prints the tracing overhead: the traced run's throughput against
the untraced run's. Exits with 1 on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
SEED = 7
# Per-layer metrics that are counts or simulated values: they must repeat
# exactly under one seed. Every other per-layer metric is a wall-clock time.
DETERMINISTIC = {
    "tensor.expert_ffn_madds",
    "native.fetch_bytes",
    "native.expert_fetches",
    "native.prefetch_hits",
    "native.prefetch_misses",
    "native.prefetch_hit_ratio",
    "native.prefetch_miss_share",
    "native.quant_token_match",
    "engine.run_calls",
    "engine.sim_bubble_frac",
    "serve.groups",
    "serve.mean_queue_delay_s",
    "serve.refills",
    "serve.preemptions",
    "serve.prefill_chunks",
    "serve.occupancy",
    "serve.retries",
    "serve.dropped",
    "serve.shed",
    "serve.hedges",
    "serve.wasted_busy_s",
    "serve.retry_token_frac",
    "serve.peak_provisioned",
    "sim.goodput_tok_per_s",
    "sim.ttft_p50_s",
    "sim.ttft_p99_s",
    "sim.tpot_p99_s",
    "sim.slo_attainment",
    "sim.replica_hours",
    "sim.ttft_growth",
}


def fail(msg):
    print(f"selfcheck: FAIL: {msg}")
    sys.exit(1)


def run(bench, workload, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(SEED),
        "--seconds", "1",
        "--trace", str(trace),
        "--cheap",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next((l for l in lines if l.startswith("digest: ")), None)
    return result, digest


def check_result(result, declared, workload, trace):
    where = f"{workload} --trace {trace}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True:
        fail(f"{where}: correctness checks failed")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int):
            fail(f"{where}: {key} is not a whole number")
    if result["attempted"] < 1:
        fail(f"{where}: attempted {result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        fail(f"{where}: metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json")
    for name, m in metrics.items():
        if not NAME.match(name):
            fail(f"{where}: bad metric name {name!r}")
        if m.get("unit") != declared[name]:
            fail(f"{where}: {name} has unit {m.get('unit')!r}, declared {declared[name]!r}")
        if not isinstance(m.get("value"), (int, float)):
            fail(f"{where}: {name} has no numeric value")
        if trace == 0 and m["value"] == 0:
            fail(f"{where}: end-to-end metric {name} is 0")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        name = w["name"]
        plain, plain_digest = run(bench, name, 0)
        check_result(plain, end_to_end, name, 0)
        traced, traced_digest = run(bench, name, 1)
        check_result(traced, per_layer, name, 1)
        again, again_digest = run(bench, name, 1)
        check_result(again, per_layer, name, 1)
        if plain_digest is None or len({plain_digest, traced_digest, again_digest}) != 1:
            fail(f"{name}: outputs differ between runs of one seed "
                 f"({plain_digest}, {traced_digest}, {again_digest})")
        for metric in per_layer:
            if metric in DETERMINISTIC:
                a = traced["metrics"][metric]["value"]
                b = again["metrics"][metric]["value"]
                if a != b:
                    fail(f"{name}: {metric} differs between invocations: {a} vs {b}")
        untraced = plain["metrics"]["cpu_ms_per_item"]["value"]
        with_spans = traced["metrics"]["trace.cpu_ms_per_item"]["value"]
        print(f"{name}: ok; {plain_digest}; tracing overhead "
              f"{100.0 * (with_spans / untraced - 1.0):+.1f}% CPU time per item")
    print("selfcheck: all workloads pass")


if __name__ == "__main__":
    main()
