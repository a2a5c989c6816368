"""Metric catalogue and the arithmetic that turns spans into metrics.

End-to-end metrics are measured with tracing off; per-layer metrics come
from a traced pass. ``END_TO_END`` and ``PER_LAYER`` are the names
BENCHMARK.json lists, with the unit and the direction that counts as
better. The ``moves`` text says which end-to-end metric, on which workload,
a change in that per-layer metric is expected to move; later performance
changes cite these names.
"""

from __future__ import annotations

import statistics

# name, unit, better, meaning
END_TO_END = [
    ("setup_s", "s", "lower",
     "import + input generation + parameter init + warm-up (median of repeats)"),
    ("throughput_per_s", "1/s", "higher",
     "sweep: cycles_per_s; files: frames_per_s; generate: steps_per_s"),
    ("latency_p50_ms", "ms", "lower",
     "sweep: cycle_p50_ms; files: pipeline_p50_ms; generate: step_p50_ms"),
    ("peak_rss_mb", "MB", "lower", "peak resident set of the workload process"),
]

# name, unit, better, moves
PER_LAYER = [
    ("rays.self_ms", "ms", "lower", "all rays self time"),
    ("rays.encode_trajectory_raxels.self_ms", "ms", "lower",
     "cycles_per_s on sweep, frames_per_s on files"),
    ("rays.encode_plucker.self_ms", "ms", "lower", "frames_per_s on files"),
    ("rays.ray_grid.misses", "count", "lower",
     "cycles_per_s and peak_rss_mb on sweep"),
    ("rays.ray_grid.hit_ratio", "ratio", "higher",
     "cycles_per_s and peak_rss_mb on sweep"),
    ("rays.ray_grid.cached_mb", "MB", "lower", "peak_rss_mb on sweep"),
    ("evaluation.self_ms", "ms", "lower", "all evaluation self time"),
    ("evaluation.perturb.self_ms", "ms", "lower", "cycles_per_s on sweep only"),
    ("evaluation.cycle_consistency_run.self_ms", "ms", "lower",
     "cycles_per_s on sweep"),
    ("evaluation.metrics.self_ms", "ms", "lower",
     "pose_errors + mrra: cycles_per_s on sweep, pipeline_p50_ms on files"),
    ("evaluation.rot_err_p50_rad", "rad", "lower",
     "accuracy guard: sweep rot_err_p50_rad; files decode error vs ground truth"),
    ("decode.self_ms", "ms", "lower", "all decode self time"),
    ("decode.decode_trajectory.self_ms", "ms", "lower",
     "cycles_per_s on sweep, frames_per_s on files"),
    ("decode.recover_pose.self_ms", "ms", "lower",
     "cycles_per_s on sweep, frames_per_s on files"),
    ("decode.recover_focal.self_ms", "ms", "lower",
     "cycles_per_s on sweep, frames_per_s on files"),
    ("decode.frames_failed", "count", "lower", "failed_share"),
    ("decode.inlier_fraction_min", "ratio", "higher",
     "accuracy context for rot_err_p50_rad"),
    ("registration.self_ms", "ms", "lower", "all registration self time"),
    ("registration.register.calls", "count", "lower", "frames_per_s on files"),
    ("registration.register.self_ms", "ms", "lower", "frames_per_s on files"),
    ("registration.register.calls_per_frame", "1/frame", "lower",
     "about 1 on sweep; on files 1 plus the share of reference candidates "
     "that reach registration: frames_per_s on files"),
    ("registration.condition_min", "ratio", "higher", "accuracy context"),
    ("cli.self_ms", "ms", "lower", "all cli self time"),
    ("cli.cmd_decode.self_ms", "ms", "lower", "frames_per_s on files"),
    ("cli.cmd_bench.self_ms", "ms", "lower",
     "CSV read and rewrite: cycles_per_s on sweep"),
    ("cli.reference_scoring.candidates", "count", "lower",
     "frames scored per decode: frames_per_s on files"),
    ("cli.reference_scoring.useful_ratio", "ratio", "higher",
     "1 / candidates: frames_per_s on files"),
    ("io.self_ms", "ms", "lower", "all io self time"),
    ("io.save_raxel.self_ms", "ms", "lower", "frames_per_s on files"),
    ("io.save_raymap.self_ms", "ms", "lower", "frames_per_s on files"),
    ("io.load_raxel.self_ms", "ms", "lower", "frames_per_s on files"),
    ("io.trajectory_text.self_ms", "ms", "lower",
     "format/parse/save/load_trajectory: frames_per_s on files"),
    ("io.bytes_written", "B", "lower", "computed from file sizes"),
    ("io.bytes_read", "B", "lower", "computed from file sizes"),
    ("io.write_mb_per_s", "MB/s", "higher",
     "computed bytes over save_* self time: frames_per_s on files"),
    ("geometry.self_ms", "ms", "lower", "all geometry self time"),
    ("geometry.canonicalize.calls", "count", "lower", "cycles_per_s on sweep"),
    ("geometry.canonicalize.self_ms", "ms", "lower", "cycles_per_s on sweep"),
    ("attention.self_ms", "ms", "lower", "all attention self time"),
    ("attention.dsca_block.self_ms", "ms", "lower", "steps_per_s on generate"),
    ("attention.self_attention.self_ms", "ms", "lower", "steps_per_s on generate"),
    ("attention.cross_attention.self_ms", "ms", "lower", "steps_per_s on generate"),
    ("attention.flops_per_block", "FLOP", "lower", "computed from shapes"),
    ("attention.gflops_per_s", "GFLOP/s", "higher",
     "flops_per_block over inclusive dsca_block time: steps_per_s on generate"),
    ("flow.self_ms", "ms", "lower", "all flow self time"),
    ("flow.euler_sample.self_ms", "ms", "lower",
     "excluding the velocity field: steps_per_s on generate"),
    ("flow.loss.self_ms", "ms", "lower", "steps_per_s on generate"),
    ("flow.loss_gradient.self_ms", "ms", "lower", "steps_per_s on generate"),
    ("trace.overhead_pct", "%", "lower",
     "traced minus untraced wall time of the same work, over untraced"),
    ("trace.wall_ms", "ms", "lower", "traced wall time of one round"),
    ("trace.bench_own_ms", "ms", "lower",
     "traced wall time outside every library span"),
    ("trace.library_share_pct", "%", "higher",
     "share of traced wall time inside library spans"),
    ("trace.spans", "count", "lower", "library spans recorded per round"),
]

LAYERS = (
    "geometry", "rays", "registration", "decode", "evaluation",
    "io", "cli", "flow", "attention",
)

SELF_MS_GROUPS = {
    "registration.register": ("registration.register", "registration.register_weighted"),
    "evaluation.metrics": ("evaluation.pose_errors", "evaluation.mrra"),
    "io.trajectory_text": (
        "io.format_trajectory", "io.parse_trajectory",
        "io.save_trajectory", "io.load_trajectory",
    ),
}


def tail_percentile(samples, q: int):
    """The q-th percentile of ``samples``, or None when fewer than ten
    samples lie beyond it."""
    if len(samples) < 2:
        return None
    cut = statistics.quantiles(samples, n=100)[q - 1]
    beyond = sum(1 for s in samples if s > cut)
    return cut if beyond >= 10 else None


def dsca_flops(n_video: int, n_ray: int, d: int, d_ff: int) -> int:
    """Multiply-add FLOPs (2 per MAC) of one dsca_block pass, from shapes.

    Per stream of n tokens: self-attention projects q, k, v and the output
    (4 n d^2 MACs) and forms scores and the weighted sum (2 n^2 d MACs);
    cross-attention projects its own q and output (2 n d^2), the peer's k
    and v (2 m d^2), and forms n x m scores and sums (2 n m d); the
    feed-forward is 2 n d d_ff. Norms, softmax and rotary terms are left out.
    """
    macs = 0
    for n, m in ((n_video, n_ray), (n_ray, n_video)):
        macs += 4 * n * d * d + 2 * n * n * d
        macs += 2 * n * d * d + 2 * m * d * d + 2 * n * m * d
        macs += 2 * n * d * d_ff
    return 2 * macs


def layer_metrics(stats, counters, rounds: int, ctx: dict) -> dict[str, float]:
    """Per-layer metrics of the traced passes, summed per round.

    ``stats`` maps span name to FunctionStats over all traced rounds;
    ``counters`` holds observer counts; ``ctx`` carries what spans cannot
    give: ray_grid cache deltas, grid bytes, FLOPs per block, wall times.
    """
    def self_ms(*names):
        return sum(stats[n].self_s for n in names if n in stats) * 1e3 / rounds

    def calls(name):
        return stats[name].calls / rounds if name in stats else 0.0

    out: dict[str, float] = {}
    library = [n for n in stats if n.split(".", 1)[0] in LAYERS]
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = self_ms(*(n for n in library if n.startswith(layer + ".")))
    for name, _, _, _ in PER_LAYER:
        if name.endswith(".self_ms") and name not in out:
            base = name[: -len(".self_ms")]
            out[name] = self_ms(*SELF_MS_GROUPS.get(base, (base,)))

    hits, misses = ctx["ray_grid_hits"], ctx["ray_grid_misses"]
    out["rays.ray_grid.misses"] = misses / rounds
    out["rays.ray_grid.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["rays.ray_grid.cached_mb"] = ctx["ray_grid_cached_mb"]

    out["evaluation.rot_err_p50_rad"] = ctx["rot_err_p50_rad"]
    out["decode.frames_failed"] = counters.get("decode.frames_failed", 0.0) / rounds
    out["decode.inlier_fraction_min"] = counters.get("decode.inlier_fraction_min", 0.0)

    frames = counters.get("decode.frames", 0.0)
    out["registration.register.calls"] = calls("registration.register")
    out["registration.register.calls_per_frame"] = (
        stats["registration.register"].calls / frames
        if frames and "registration.register" in stats else 0.0
    )
    out["registration.condition_min"] = counters.get("registration.condition_min", 0.0)

    decodes = stats["cli.cmd_decode"].calls if "cli.cmd_decode" in stats else 0
    candidates = counters.get("cli.reference_candidates", 0.0) / decodes if decodes else 0.0
    out["cli.reference_scoring.candidates"] = candidates
    out["cli.reference_scoring.useful_ratio"] = 1.0 / candidates if candidates else 0.0

    written = counters.get("io.bytes_written", 0.0)
    out["io.bytes_written"] = written / rounds
    out["io.bytes_read"] = counters.get("io.bytes_read", 0.0) / rounds
    save_s = sum(
        stats[n].self_s for n in ("io.save_raxel", "io.save_raymap", "io.save_trajectory")
        if n in stats
    )
    out["io.write_mb_per_s"] = written / save_s / 1e6 if save_s else 0.0

    out["geometry.canonicalize.calls"] = calls("geometry.canonicalize")

    blocks = stats.get("attention.dsca_block")
    flops = ctx["flops_per_block"]
    out["attention.flops_per_block"] = float(flops)
    out["attention.gflops_per_s"] = (
        flops * blocks.calls / blocks.total_s / 1e9 if blocks and blocks.total_s else 0.0
    )

    library_s = sum(stats[n].self_s for n in library)
    wall_s = ctx["traced_wall_s"]
    out["trace.overhead_pct"] = ctx["overhead_pct"]
    out["trace.wall_ms"] = wall_s * 1e3 / rounds
    out["trace.bench_own_ms"] = (wall_s - library_s) * 1e3 / rounds
    out["trace.library_share_pct"] = 100.0 * library_s / wall_s
    out["trace.spans"] = sum(stats[n].calls for n in library) / rounds
    return out
