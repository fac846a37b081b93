"""Run one benchmark workload; the last line of stdout is its result.

    python3 bench/run.py --workload vqa-desk --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics of one untraced
run.  With ``--trace 1`` the process sets up once and runs a fixed number of
units with every layer boundary traced, and the result holds the per-layer
metrics and the tracer's own cost.  The line
before the result is the full record (environment, workload-specific
metrics, the per-layer table with missing spans marked); the same record is
written under ``.bench_results/``.  See bench/README.md.
"""

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "samples_per_s": "1/s",
    "step_ms_tail": "ms",
    "fwd_ms_mean": "ms",
}
PER_LAYER_TIMES = {
    "numerics.backward.self_ms": "ms",
    "fusion.cmsa_fuse.self_ms": "ms",
    "fusion.self_ms": "ms",
    "fusion.gflops": "GFLOP/s",
    "train.unattributed_ms": "ms",
    "trace.wall_ms": "ms",
    "trace.overhead_pct": "%",
}
SETUP_SHARE = 0.1       # of the timed window spent repeating set-up,
SETUP_BLOCK_S = 0.05    # in blocks at least this long
# Counters kept next to the spans: graph_nodes is the median per backward
# call, the others are totals over the traced phase.
COUNT_UNITS = {
    "numerics.graph_nodes": "count",
    "numerics.grad_check.objective_calls": "count",
    "fusion.madds": "count",
    "bundle.write_bundle.bytes": "B",
    "bundle.read_bundle.bytes": "B",
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def per_layer_units() -> dict:
    """Every per-layer metric the result line carries, with its unit."""
    from spans import SPAN_NAMES

    out = dict(PER_LAYER_TIMES)
    out.update({f"{name}.calls": "count" for name in SPAN_NAMES})
    out.update(COUNT_UNITS)
    return out


# -- environment -----------------------------------------------------------------


def _git(root: str, *args: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        done = subprocess.run(["git", "-C", root, *args], capture_output=True,
                              text=True, timeout=30, env=env, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _src_lines(root: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def environment(root: str, loadavg_1m: float) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "loadavg_1m_at_start": loadavg_1m,
        "src_lines": _src_lines(root),
    }


# -- one run -------------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else None


def _p95(values):
    import numpy as np

    return float(np.percentile(values, 95)) if values else None


def _tail_mean(values):
    """Mean of the slowest tenth, and of at least ten values: a tail needs
    ten samples in it to be measured at all."""
    return statistics.fmean(sorted(values)[-max(10, round(len(values) / 10)):])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_loop(workload, m, probe, seconds: float, setup_share: float,
                block_s: float) -> float:
    """Closed loop of units for ``seconds``; at least one unit runs.
    Returns the peak RSS in MB after the first set-up and the first unit.

    Set-up is sampled across the whole window, so setup_s sees the same
    stretch of time as every other figure.  Before each unit and after the
    last one, set-up repeats
    until its total time is ``setup_share`` of the time elapsed, for at
    least ``block_s`` and at least once.  A set-up shorter than ``block_s``
    is also sampled inside units, at step marks, off the unit's clock
    (``Probe.between``): that covers a unit that fills most of the window.
    Blocks keep the steps that follow a set-up, with cold caches, a small
    share of all steps.  A longer set-up stays out of units, where it would
    stall a step and raise peak memory."""
    start = time.perf_counter()
    deadline = start + seconds
    spent = 0.0

    def catch_up():
        nonlocal spent
        if m.setup_s and spent >= setup_share * (time.perf_counter() - start):
            return
        block_end = time.perf_counter() + block_s
        while True:
            t = time.perf_counter()
            workload.setup()
            m.setup_s.append(time.perf_counter() - t)
            spent += m.setup_s[-1]
            now = time.perf_counter()
            if now >= block_end and spent >= setup_share * (now - start):
                return

    peak_rss_mb = None
    try:
        while True:
            catch_up()
            if statistics.median(m.setup_s) < block_s:
                probe.between = catch_up
            unit_start = time.perf_counter()
            workload.unit(m, probe)
            unit_s = time.perf_counter() - unit_start
            peak_rss_mb = peak_rss_mb or _peak_rss_mb()
            if time.perf_counter() + unit_s > deadline:
                break
    finally:
        probe.between = None
    catch_up()
    return peak_rss_mb


def _per_layer(tracer, wall_ms: float, objective_calls: int):
    """(full table with missing spans marked, result-line metrics)."""
    from spans import SPAN_NAMES

    selfs, calls = tracer.self_times_ms(), tracer.calls()
    unattributed = wall_ms - tracer.top_level_ms()
    overhead_ms = tracer.overhead_ms()
    overhead_pct = 100.0 * overhead_ms / (wall_ms - overhead_ms)
    table = {}
    for name in SPAN_NAMES:
        if calls.get(name):
            table[name] = {"self_ms": selfs[name], "calls": calls[name],
                           "share_pct": 100.0 * selfs[name] / wall_ms}
        else:
            table[name] = "missing"
    other = {name: {"self_ms": selfs[name], "calls": calls[name]}
             for name in sorted(selfs) if name not in SPAN_NAMES}
    fuse_s = sum(end - start for name, start, end, _ in tracer.spans
                 if name == "fusion.cmsa_fuse")
    madds = tracer.counts["fusion.madds"]
    counts = {k: tracer.counts[k] for k in COUNT_UNITS}
    counts["numerics.graph_nodes"] = _median(tracer.graph_nodes) or 0
    counts["numerics.grad_check.objective_calls"] = objective_calls
    values = {
        "numerics.backward.self_ms": selfs.get("numerics.backward", 0.0),
        "fusion.cmsa_fuse.self_ms": selfs.get("fusion.cmsa_fuse", 0.0),
        "fusion.self_ms": sum(v for k, v in selfs.items() if k.startswith("fusion.")),
        "fusion.gflops": 2.0 * madds / fuse_s / 1e9 if fuse_s else 0.0,
        "train.unattributed_ms": unattributed,
        "trace.wall_ms": wall_ms,
        "trace.overhead_pct": overhead_pct,
        **{f"{name}.calls": calls.get(name, 0) for name in SPAN_NAMES},
        **counts,
    }
    units = per_layer_units()
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    record = {
        "spans": table,
        "other_spans": other,
        "counts": counts,
        "fusion_madds_source": "computed from shapes",
        "unattributed_ms": unattributed,
        "unattributed_share": unattributed / wall_ms,
        "wall_ms": wall_ms,
        "nesting_ok": tracer.nesting_ok(),
        "overhead_ms": overhead_ms,
        "overhead_pct": overhead_pct,
    }
    return record, metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns (full record, result line).  ``tiny``
    shrinks every dimension so the smoke test runs in seconds."""
    from spans import Tracer
    from workloads import WORKLOADS, Measure, Probe

    loadavg = os.getloadavg()[0]
    work_dir = os.path.join(ROOT, ".bench_work", f"{workload_name}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    workload = WORKLOADS[workload_name](ROOT, work_dir, seed, tiny=tiny)
    probe = Probe()
    probe.install()
    tracer = Tracer()
    m = Measure()
    try:
        if trace:
            tracer.install()
            probe.tracer = tracer
            start = time.perf_counter()
            tracer.call("bench.setup", workload.setup)
            for _ in range(workload.trace_units):
                workload.unit(m, probe, tracer)
            wall_ms = (time.perf_counter() - start) * 1000.0
        else:
            share, block_s = (0.0, 0.0) if tiny else (SETUP_SHARE, SETUP_BLOCK_S)
            peak_rss_mb = _timed_loop(workload, m, probe, seconds, share, block_s)
    finally:
        tracer.restore()
        probe.restore()
        shutil.rmtree(work_dir, ignore_errors=True)

    record = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(ROOT, loadavg),
        "workload_metrics": {k: _median(v) for k, v in m.extra.items()},
        "unit_s_median": _median(m.unit_s),
    }
    if trace:
        record["per_layer"], metrics = _per_layer(
            tracer, wall_ms, sum(m.extra.get("objective_calls", [])))
    else:
        # Set-up is many short repeats, so it reports their median.  The
        # other time figures are means: on a host whose speed flips between
        # two levels every few seconds, a quantile of a long series jumps
        # between the levels while a mean moves in proportion to the time
        # spent at each.
        end_to_end = {
            "setup_s": statistics.median(m.setup_s),
            "peak_rss_mb": peak_rss_mb,
            "samples_per_s": sum(m.unit_samples) / sum(m.unit_s),
            "step_ms_tail": _tail_mean(m.step_ms) if workload.tail_steps
                            else statistics.fmean(m.step_ms),
            "fwd_ms_mean": statistics.fmean(m.fwd_ms),
        }
        record["end_to_end"] = end_to_end
        record["setup_repeats"] = len(m.setup_s)
        if workload_name in ("vqa-desk", "pretrain-desk"):
            record["workload_metrics"].update(step_ms_p50=_median(m.step_ms),
                                              step_ms_p95=_p95(m.step_ms))
        metrics = {k: {"value": end_to_end[k], "unit": u} for k, u in END_TO_END.items()}
    attempted, failed = m.attempted, m.failed
    record.update(correct=failed == 0, attempted=attempted, failed=failed,
                  failed_share=failed / attempted if attempted else None,
                  failures=m.failures)

    out_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload_name}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        tracer.write(stem + "-spans.jsonl")
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    return record, line


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cmvqa", "__init__.py")):
        print(f"error: no cmvqa sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    record, line = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
