"""raxelkit benchmark: one closed-loop caller per workload process.

    python3 perfbench/run.py --workload sweep|files|generate|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` beside this directory, never from elsewhere. ``--trace 0`` times
the workload with nothing patched and reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced rounds of identical work and
reports per-layer metrics from spans recorded around every public library
function (see spans.py). Every run checks the workload's outputs; a failed
check makes ``correct`` false and the exit code 1. ``--workload all`` runs
each workload in its own process and prints all of their metrics.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from metrics import END_TO_END, LAYERS, PER_LAYER, layer_metrics, tail_percentile
from spans import END, NAME, PARENT, START, VIA, FunctionStats, Tracer, summarize
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# Figures measured when the ROADMAP was re-anchored (2 cores, numpy 2.4.6 with
# OpenBLAS, orbit, 21 frames at 832x480, gaussian sigma 0.01); printed next to
# this machine's traced figures, not asserted.
REANCHOR_PER_FRAME_MS = {
    "rays.encode_raxel": 2.0,
    "evaluation.perturb": 5.7,
    "decode.recover_pose": 10.2,
    "decode.recover_focal": 3.4,
}
REANCHOR_CYCLE_S = 0.68
# Per-workload names of the generic end-to-end metrics, as the human lines
# and README.md use them.
ALIASES = {
    "sweep": {"throughput_per_s": "cycles_per_s", "latency_p50_ms": "cycle_p50_ms",
              "latency_p90_ms": "cycle_p90_ms"},
    "files": {"throughput_per_s": "frames_per_s", "latency_p50_ms": "pipeline_p50_ms",
              "latency_p90_ms": "pipeline_p90_ms"},
    "generate": {"throughput_per_s": "steps_per_s", "latency_p50_ms": "step_p50_ms",
                 "latency_p90_ms": "step_p90_ms"},
}


def import_raxelkit(root: Path):
    """Import raxelkit and its layer modules from ``root/src`` only."""
    src = root / "src"
    if not (src / "raxelkit" / "__init__.py").is_file():
        raise ImportError(f"no raxelkit sources under {src}")
    sys.path.insert(0, str(src))
    rk = importlib.import_module("raxelkit")
    for layer in LAYERS:
        importlib.import_module(f"raxelkit.{layer}")
    if not Path(rk.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"raxelkit imported from {rk.__file__}, not {src}")
    return rk


def machine_info(workload) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {
        "nproc": os.cpu_count(),
        "cpu": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": None,
        "l2_bytes": None,
        "l3_bytes": None,
        "grid_bytes_per_frame": workload.grid_bytes_per_frame,
    }
    try:
        from numpy._core._multiarray_umath import __cpu_features__
        found = [k for k, v in __cpu_features__.items() if v]
        info["cpu"] += f", SIMD up to {found[-1]}" if found else ""
    except ImportError:
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in map(ctypes.CDLL, libs):
        for symbol in ("scipy_openblas_{}64_", "openblas_{}"):
            get_threads = getattr(lib, symbol.format("get_num_threads"), None)
            get_config = getattr(lib, symbol.format("get_config"), None)
            if get_threads is None or get_config is None:
                continue
            get_threads.restype, get_config.restype = ctypes.c_int, ctypes.c_char_p
            info["blas_threads"] = get_threads()
            # "OpenBLAS <version> <options...> <core> MAX_THREADS=<n>"
            info["cpu"] += f", OpenBLAS core {get_config().decode().split()[-2]}"
            break
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        # glibc _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE (per core / shared)
        info["l2_bytes"], info["l3_bytes"] = libc.sysconf(191), libc.sysconf(194)
    except (OSError, AttributeError):
        pass
    return info


def import_seconds() -> float:
    """Median over fresh interpreters of starting and importing raxelkit.

    A process imports a package once, so repeating the import to take a
    median needs a new interpreter each time; its start-up is included.
    """
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import raxelkit"
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_pass(workload, ops, deadline=None):
    """Run operations 0, 1, ... until ``ops`` are done or ``deadline`` has
    passed (at least one). Checks run after each operation, untraced and
    outside the timings. Returns (per-op seconds, wall seconds without the
    checks, failure messages, operations attempted)."""
    times, failures = [], []
    tracer = workload.tracer
    checking_s = 0.0
    start = time.perf_counter()
    i = 0
    while (ops is None or i < ops) and (deadline is None or i == 0
                                       or time.perf_counter() < deadline):
        t0 = time.perf_counter()
        try:
            with workload.span(f"perfbench.{workload.unit}"):
                workload.op(i)
            t1 = time.perf_counter()
            times.append(t1 - t0)
            with tracer.paused() if tracer else contextlib.nullcontext():
                workload.check(i)
            checking_s += time.perf_counter() - t1
        except Exception as err:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            failures.append(f"{workload.name} op {i}: {err}")
        i += 1
    wall = time.perf_counter() - start - checking_s
    return times, wall, failures, i


def measure(workload, seconds: float):
    """The untraced pass: end-to-end figures by their per-workload names."""
    workload.start_pass("measure")
    times, wall, failures, attempted = run_pass(
        workload, None, time.perf_counter() + seconds
    )
    failed = len(failures)
    failures += workload.finish()
    work, samples = workload.work(times)
    p90 = tail_percentile(samples, 90)
    human = {
        "throughput_per_s": (work / wall, "1/s",
                             f"{work} {workload.work_unit}s in {wall:.2f} s"),
        "latency_p50_ms": (statistics.median(samples) * 1e3 if samples else None,
                           "ms", f"n={len(samples)}"),
        "latency_p90_ms": (None if p90 is None else p90 * 1e3, "ms",
                           f"n={len(samples)}" if p90 is not None
                           else "fewer than 10 samples beyond p90"),
    }
    if workload.name == "sweep":
        human["rot_err_p50_rad"] = (workload.rot_err_p50_rad(), "rad",
                                    "median over the noise-seed-0 cells")
    return human, failures, attempted, failed


def trace_rounds(rk, workload, seconds: float):
    """Alternate untraced and traced passes over identical work, one round
    at a time, while another round still fits in ``seconds`` (at least one).
    Returns per-layer metrics, failure messages, attempted and failed ops."""
    modules = [getattr(rk, layer) for layer in LAYERS]
    cache_info = getattr(rk.rays.ray_grid, "cache_info", None)
    stats_all, counters, failures = {}, {}, []
    untraced_s = traced_s = roots_s = 0.0
    rounds = attempted = failed = 0
    reference_candidates = grid_hits = grid_misses = grid_entries = 0
    deadline = time.perf_counter() + seconds
    round_s = 0.0

    def one_pass(tracer, label):
        workload.start_pass(label)
        workload.tracer = tracer
        before = cache_info() if cache_info else None
        try:
            with tracer.installed() if tracer else contextlib.nullcontext():
                _, wall, errs, n = run_pass(workload, workload.round_size)
        finally:
            workload.tracer = None
        after = cache_info() if cache_info else None
        failures.extend(errs + workload.finish())
        return wall, len(errs), n, workload.fingerprint(), before, after

    while rounds == 0 or time.perf_counter() + round_s <= deadline:
        round_start = time.perf_counter()
        tracer = Tracer(rk, modules, observers=OBSERVERS)
        # alternate which pass goes first, so drift does not favour either
        order = (None, tracer) if rounds % 2 == 0 else (tracer, None)
        results = {}
        for t in order:
            results[t is not None] = one_pass(t, f"{'traced' if t else 'untraced'}{rounds}")
        untraced_s += results[False][0]
        traced_s += results[True][0]
        failed += results[False][1] + results[True][1]
        attempted += results[False][2] + results[True][2]
        if results[True][3] != results[False][3]:
            failures.append(f"{workload.name}: traced outputs differ from untraced")

        for name, st in summarize(tracer.spans).items():
            agg = stats_all.setdefault(name, FunctionStats())
            agg.calls += st.calls
            agg.total_s += st.total_s
            agg.self_s += st.self_s
        for key, value in tracer.counters.items():
            if key.endswith("_min"):
                counters[key] = min(counters.get(key, value), value)
            else:
                counters[key] = counters.get(key, 0.0) + value
        roots_s += sum(s[END] - s[START] for s in tracer.spans if s[PARENT] < 0)
        reference_candidates += sum(
            1 for s in tracer.spans if s[NAME] == "decode.recover_focal" and s[VIA] == "cli"
        )
        before, after = results[True][4:]
        if cache_info:
            grid_hits += after.hits - before.hits
            grid_misses += after.misses - before.misses
            grid_entries = after.currsize
        rounds += 1
        round_s = time.perf_counter() - round_start

    counters["cli.reference_candidates"] = reference_candidates
    ctx = {
        "ray_grid_hits": grid_hits,
        "ray_grid_misses": grid_misses,
        "ray_grid_cached_mb": grid_entries * workload.grid_bytes_per_frame / 1e6,
        "rot_err_p50_rad": workload.rot_err_p50_rad(),
        "flops_per_block": getattr(workload, "flops_per_block", 0),
        "traced_wall_s": traced_s,
        "overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
    }
    metrics = layer_metrics(stats_all, counters, rounds, ctx)

    library_ms = sum(metrics[f"{layer}.self_ms"] for layer in LAYERS)
    own_ms = (sum(st.self_s for n, st in stats_all.items() if n.startswith("perfbench."))
              + traced_s - roots_s) * 1e3 / rounds
    gap = abs(library_ms + own_ms - metrics["trace.wall_ms"]) / metrics["trace.wall_ms"]
    print(f"{workload.name}: {rounds} traced round(s) of {workload.round_size} "
          f"{workload.unit}(s); per round: layers' self time {library_ms:.1f} ms + "
          f"benchmark's own {own_ms:.1f} ms = traced wall {metrics['trace.wall_ms']:.1f} ms "
          f"(gap {100 * gap:.3f}%)")
    if gap > 0.01:
        failures.append(f"{workload.name}: span self times do not add up to the wall time")
    print_function_table(stats_all, rounds)
    if workload.name == "sweep":
        print_reanchor_comparison(stats_all)
    return metrics, failures, attempted, failed


def print_function_table(stats, rounds):
    print(f"  {'span':44s} {'calls':>9s} {'total_ms':>10s} {'self_ms':>10s}  (per round)")
    for name, st in sorted(stats.items(), key=lambda kv: -kv[1].self_s):
        print(f"  {name:44s} {st.calls / rounds:9.1f} {st.total_s * 1e3 / rounds:10.2f} "
              f"{st.self_s * 1e3 / rounds:10.2f}")


def print_reanchor_comparison(stats):
    """Traced per-frame figures on this machine beside the ROADMAP's
    re-anchor figures. Different machine and traced, so stated, not asserted."""
    def per_call_ms(name, own=False):
        st = stats.get(name)
        if not st or not st.calls:
            return float("nan")
        return (st.self_s if own else st.total_s) / st.calls * 1e3

    parts = []
    for name, then in REANCHOR_PER_FRAME_MS.items():
        # encode_raxel without its ray_grid lookups, which miss on every
        # re-encoded frame; the misses are shown on their own
        own = name == "rays.encode_raxel"
        parts.append(f"{name}{' (self)' if own else ''} {per_call_ms(name, own):.2f} "
                     f"ms/frame (re-anchor {then} ms)")
    parts.append(f"rays.ray_grid {per_call_ms('rays.ray_grid'):.2f} ms/call")
    cycle = stats.get("evaluation.cycle_consistency_run")
    now = cycle.total_s / cycle.calls if cycle and cycle.calls else float("nan")
    parts.append(f"cycle {now:.3f} s (re-anchor {REANCHOR_CYCLE_S} s)")
    print("sanity vs ROADMAP re-anchor (traced, this machine, all kinds/sigmas; "
          "re-anchor: orbit, sigma 0.01, another 2-core box): " + "; ".join(parts))


def _observe_decode(counters, args, kwargs, result):
    decoded, failures = result
    counters["decode.frames"] += len(args[0])
    counters["decode.frames_failed"] += len(failures)
    fractions = [d.inlier_fraction for d in decoded if d is not None]
    if fractions:
        counters["decode.inlier_fraction_min"] = min(
            counters.get("decode.inlier_fraction_min", 1.0), min(fractions)
        )


def _observe_register(counters, args, kwargs, result):
    counters["registration.condition_min"] = min(
        counters.get("registration.condition_min", float("inf")), result.condition
    )


def _observe_size(key):
    def observe(counters, args, kwargs, result):
        counters[key] += os.path.getsize(args[0])
    return observe


OBSERVERS = {
    "decode.decode_trajectory": _observe_decode,
    "registration.register": _observe_register,
    "io.save_raxel": _observe_size("io.bytes_written"),
    "io.save_raymap": _observe_size("io.bytes_written"),
    "io.save_trajectory": _observe_size("io.bytes_written"),
    "io.load_raxel": _observe_size("io.bytes_read"),
    "io.load_trajectory": _observe_size("io.bytes_read"),
}


def run_workload(args) -> int:
    try:
        rk = import_raxelkit(ROOT)
    except ImportError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    import_s = import_seconds()

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # a terminated run still removes its scratch files (the finally below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        workload = WORKLOADS[args.workload](rk, args.seed, str(workdir))
        setups = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setups)
        print("machine: " + json.dumps(machine_info(workload)))
        if args.trace:
            metrics, failures, attempted, failed = trace_rounds(rk, workload, args.seconds)
            out = {}
            for name, unit, _, moves in PER_LAYER:
                out[name] = {"value": metrics[name], "unit": unit}
                print(f"{args.workload:8s} {name:44s} {metrics[name]:12.6g} {unit:8s} "
                      f"-> {moves}")
        else:
            human, failures, attempted, failed = measure(workload, args.seconds)
            human["setup_s"] = (setup_s, "s", f"median of {SETUP_REPEATS} set-ups "
                                f"+ median interpreter start and import {import_s:.3f} s")
            human["peak_rss_mb"] = (peak_rss_mb(), "MB", "ru_maxrss")
            human["failed_share"] = (failed / attempted, "ratio",
                                     f"{failed} of {attempted} operations, one {workload.unit} each")
            aliases = ALIASES[args.workload]
            for name, (value, unit, note) in human.items():
                shown = "n/a" if value is None else f"{value:.6g}"
                label = aliases.get(name, name)
                json_name = f" [{name}]" if name in aliases else ""
                print(f"{args.workload:8s} {label + json_name:36s} {shown:>12s} {unit:5s} ({note})")
            out = {name: {"value": human[name][0], "unit": unit}
                   for name, unit, _, _ in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; their lines, then one JSON line
    whose metric names carry the workload as a prefix."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in ("sweep", "files", "generate"):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {name} printed no result", file=sys.stderr)
            return proc.returncode or 1
        code = code or proc.returncode
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "files", "generate", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
