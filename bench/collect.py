"""Run every workload over several seeds and write bench/BENCH_<label>.json.

    python3 bench/collect.py --label seed --runs 10

Each workload runs ``--runs`` times untraced (seeds 1..runs), for
BENCHMARK.json's ``run_seconds``, and then once traced, one process at a
time.  For every end-to-end metric the file holds the median, the quartiles
and the spread (interquartile range over median) across runs, plus every
run's value.
The traced run's per-layer table and the environment come from the
benchmark's own record.  ``trace_slowdown_pct`` compares the traced run's
unit time with the median untraced unit time over all runs: the tracing
overhead as the difference of the two, next to the traced run's own count
of it, ``trace.overhead_pct``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    out = {"label": args.label, "run_seconds": seconds, "runs": args.runs,
           "workloads": {}}
    for workload in names:
        values, failed, attempted, named, unit_s = {}, 0, 0, {}, []
        for seed in range(1, args.runs + 1):
            record, line = _run(workload, seed, seconds, 0)
            failed += line["failed"]
            attempted += line["attempted"]
            for key, metric in line["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
            for key, value in record["workload_metrics"].items():
                named.setdefault(key, []).append(value)
            unit_s.append(record["unit_s_median"])
            out.setdefault("environment", record["environment"])
            print(workload, seed, json.dumps(line["metrics"]), flush=True)
        traced, _ = _run(workload, 1, seconds, 1)
        out["workloads"][workload] = {
            "failed": failed,
            "attempted": attempted,
            "end_to_end": {k: _summary(v) for k, v in values.items()},
            "workload_metrics": {k: _summary(v) for k, v in named.items()},
            "per_layer": traced["per_layer"],
            # the traced unit against the untraced units of all runs
            "trace_slowdown_pct": 100.0 * (traced["unit_s_median"] / statistics.median(unit_s) - 1),
        }
        for key, summary in out["workloads"][workload]["end_to_end"].items():
            print(f"{workload} {key}: median {summary['median']:.6g} "
                  f"spread {summary['spread']:.4f}", flush=True)

    path = os.path.join(HERE, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
