#!/usr/bin/env python3
"""Compare two sets of qcnbench runs of one workload.

    python3 qcnbench/compare.py base.txt change.txt

Each file holds the standard output of one or more runs (a manifest line,
then a result line, per run). Refuses, with exit code 2, when any run is
invalid or incorrect, or when the manifests differ in anything but seed,
commit and per-run counts. Otherwise prints, per metric, each side's median
and quartile spread and the change against the bound in BENCHMARK.json.
"""

import json
import os
import statistics
import sys

# Manifest keys that describe the run itself rather than its set-up.
PER_RUN = {
    "seed", "commit", "valid", "host_dilation", "setup_s_measured", "lat_p50_ms_measured",
    "lat_p90_ms_measured", "capacity_rps_measured", "warmup_loop", "open_loop", "closed_loop", "open_samples",
    "gen_late_ms_p99", "gen_backlog_end", "library_searches", "scheme_order", "deep_first",
    "core_counts_repeat", "runs_per_s_whole_run", "p90_supported_per_segment",
}


def load(path):
    runs, manifest = [], None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "manifest" in obj:
                manifest = obj["manifest"]
            elif "metrics" in obj:
                if manifest is None:
                    sys.exit(f"{path}: result line without a manifest")
                runs.append((manifest, obj))
                manifest = None
    if not runs:
        sys.exit(f"{path}: no runs")
    return runs


def refuse(msg):
    print(f"refused: {msg}")
    sys.exit(2)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sides = [load(p) for p in sys.argv[1:]]
    ref = None
    for path, runs in zip(sys.argv[1:], sides):
        for manifest, result in runs:
            if not manifest.get("valid", False):
                refuse(f"{path}: seed {manifest.get('seed')} is an invalid run")
            if not result["correct"]:
                refuse(f"{path}: seed {manifest.get('seed')} failed its oracle")
            setup = {k: v for k, v in manifest.items() if k not in PER_RUN}
            if ref is None:
                ref = setup
            elif setup != ref:
                diff = sorted(k for k in set(ref) | set(setup) if ref.get(k) != setup.get(k))
                refuse(f"{path}: manifest differs in {', '.join(diff)}")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"{'metric':32s} {'base median':>14s} {'spread':>7s} {'change median':>14s} {'spread':>7s} {'worse by':>9s} bound")
    for name in sides[0][0][1]["metrics"]:
        cols = []
        for runs in sides:
            vals = [r["metrics"][name]["value"] for _, r in runs]
            med = statistics.median(vals)
            spread = 0.0
            if len(vals) >= 2 and med:
                q = statistics.quantiles(vals, n=4)
                spread = (q[2] - q[0]) / abs(med)
            cols.append((med, spread))
        (b, bs), (c, cs) = cols
        m = spec.get(name, {})
        worse = ""
        if b:
            rel = (c - b) / abs(b)
            worse = f"{(rel if m.get('better') == 'lower' else -rel):+.3f}"
        print(f"{name:32s} {b:14.4f} {bs:7.3f} {c:14.4f} {cs:7.3f} {worse:>9s} {m.get('bound', '')}")


if __name__ == "__main__":
    main()
