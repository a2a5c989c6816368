"""Command-line interface.

Subcommands: encode (trajectory file to per-frame ray-grid files), decode
(the inverse), roundtrip (encode, perturb, decode, re-encode, report),
metrics (compare two trajectory files), synth (write a synthetic
trajectory), bench (noise-robustness sweep to CSV).

Every command returns None and raises on failure; ``main`` alone maps the
error to an exit code: 0 success, 2 usage or parse failure, 3 I/O failure,
4 geometric degeneracy (also as a raxelkit error's cause). Every command's
output is a deterministic function of its arguments.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import io as rkio
from .decode import FRAME_FAILURES, decode_trajectory, decoded_trajectory, recover_focal
from .errors import (
    DegenerateGeometryError,
    InsufficientInliersError,
    RaxelkitError,
    ShapeMismatchError,
)
from .evaluation import (
    PerturbationKind,
    PerturbationSpec,
    TrajectoryKind,
    cycle_consistency_run,
    generate_trajectory,
    mrra,
    pose_errors,
    reverse_trajectory,
)
from .geometry import Intrinsics, Pose, canonicalize
from .rays import GridKind, RayGrid, encode_plucker, encode_raxel, encode_raymap, ray_grid
from .registration import _as_point_set, register

CSV_HEADER = (
    "kind,frames,magnitude,seed,"
    "mean_rot_err_rad,mean_trans_err,mrra30,reencode_residual,"
    "noise_kind,width,height,fov,radius"
)
# the sweep settings a resumed bench must share with the rows it keeps
SETTING_COLUMNS = ("noise_kind", "width", "height", "fov", "radius")
DEFAULT_WIDTH = 832
DEFAULT_HEIGHT = 480
DEFAULT_FOV_DEG = 60.0
DEFAULT_RADIUS = 2.0
BENCH_KINDS = ("arcleft", "arcright", "orbit", "line")
BENCH_SIGMAS = (0.001, 0.005, 0.01, 0.05)
BENCH_SEEDS = 20
BENCH_FRAMES = 21
_TRAJECTORY_NAMES = sorted(kind.value for kind in TrajectoryKind)
_NOISE_NAMES = sorted(kind.value for kind in PerturbationKind)
_GEOMETRIC_ERRORS = (DegenerateGeometryError, InsufficientInliersError)


def _check_image_size(width: int, height: int) -> None:
    # checked by name, since a bad size would otherwise surface as a bad
    # focal (synth, bench), a grid mismatch (decode) or an empty grid
    if width <= 0 or height <= 0:
        raise ValueError(f"image size {width}x{height} is not positive")
    if width < 2 or height < 2:
        raise ValueError(
            f"image size {width}x{height} has a side under 2 pixels, "
            "which leaves its half-resolution grid empty"
        )


def _default_intrinsics(width: int, height: int, fov_deg: float) -> Intrinsics:
    _check_image_size(width, height)
    if not 0.0 < fov_deg < 180.0:
        raise ValueError(f"field of view {fov_deg:g} is not strictly between 0 and 180 degrees")
    focal = (width / 2.0) / math.tan(math.radians(fov_deg) / 2.0)
    return Intrinsics(
        fx=focal, fy=focal, cx=width / 2.0, cy=height / 2.0, width=width, height=height
    )


# ----------------------------------------------------------------- encode

def _load_trajectory(path: str):
    """The trajectory file at ``path``; ValueError when ``_check_image_size``
    refuses the image size it states."""
    trajectory = rkio.load_trajectory(path)
    intr = trajectory.frames[0].intrinsics  # the file states one size for all frames
    _check_image_size(intr.width, intr.height)
    return trajectory


def cmd_encode(args) -> None:
    trajectory = _load_trajectory(args.trajectory)
    canonical = canonicalize(trajectory, trajectory.reference_index)
    # the table is built per call, so it holds this module's current bindings
    # of the encoders (the benchmark's tracer wraps them to time each layer)
    encode = {
        GridKind.RAXEL: encode_raxel,
        GridKind.PLUCKER: encode_plucker,
        GridKind.RAYMAP: encode_raymap,
    }[GridKind(args.representation)]
    # every index is checked before the first file is written
    for frame in canonical.frames:
        rkio.check_frame_index(frame.index)
    os.makedirs(args.out_dir, exist_ok=True)
    for frame in canonical.frames:
        path = os.path.join(args.out_dir, f"frame_{frame.index}.rxl")
        rkio.save_raxel(path, encode(frame, frame.pose), frame.index)


# ----------------------------------------------------------------- decode

def _detect_reference(images, width: int, height: int) -> int:
    """Position of the image that looks most like an un-moved camera.

    Reads each element of the sized sequence ``images`` once. For each
    candidate, recover a focal length under the identity-pose assumption,
    synthesize the ideal identity ray grid for it, and measure the
    registration residual; the true reference frame fits near-exactly.
    A candidate that fails as a frame can (``FRAME_FAILURES``) is skipped.
    When every candidate fails, raises a RaxelkitError chained from the
    first candidate's failure, so non-finite pixels exit 2 and degenerate
    geometry exits 4. A ShapeMismatchError fails the detection: image
    dimensions that do not fit the grid, or a grid with too few pixels to
    register, which is refused before its focal vote.
    """
    best_pos, best_residual, first_failure = None, np.inf, None
    identity = Pose.identity()
    for pos, image in enumerate(images):
        # registration's source, the identity grid, has as many points as
        # the image; at the default size a 1-pixel grid's focal vote fails
        # first, as degenerate geometry
        _as_point_set(image.data.reshape(-1, 3), "source")
        try:
            fx, fy, _ = recover_focal(image, identity, width, height)
            intr = Intrinsics(
                fx=fx, fy=fy, cx=width / 2.0, cy=height / 2.0, width=width, height=height
            )
            grid = ray_grid(intr)
            result = register(image.data.reshape(-1, 3), grid.reshape(-1, 3))
        except FRAME_FAILURES as err:
            # kept without its traceback, whose frames hold this candidate's arrays
            first_failure = first_failure or err.with_traceback(None)
            continue
        if result.rms_residual < best_residual:
            best_pos, best_residual = pos, result.rms_residual
    if best_pos is None:
        raise RaxelkitError(
            f"no frame can be the reference; the first candidate failed: {first_failure}"
        ) from first_failure
    return best_pos


class _GridFiles:
    """A directory's grid files, in frame-index order, as a sized sequence:
    element k is loaded when it is read and checked against the header the
    first pass read, so no grid outlives its reader's use of it. A file whose
    header changed in between is a ValueError that names it."""

    def __init__(self, files: list[tuple[rkio.GridHeader, str]]):
        self._files = files

    def __len__(self) -> int:
        return len(self._files)

    def __getitem__(self, k: int) -> RayGrid:
        header, path = self._files[k]
        grid, frame_index = rkio.load_raxel(path)
        now = (grid.height_r, grid.width_r, frame_index)
        if now != header:
            raise ValueError(
                f"{path} changed during the decode: its header now states grid "
                f"{now[:2]} and frame {frame_index}, not grid {header[:2]} and "
                f"frame {header.frame_index}"
            )
        return grid


def cmd_decode(args) -> None:
    names = sorted(n for n in os.listdir(args.raxel_dir) if n.endswith(".rxl"))
    if not names:
        raise ValueError(f"no .rxl files in {args.raxel_dir}")
    paths = [os.path.join(args.raxel_dir, name) for name in names]
    # first pass, headers only: the grids are loaded as the decode reads them
    files = sorted(
        ((rkio.load_raxel_header(path), path) for path in paths),
        key=lambda pair: pair[0].frame_index,
    )
    headers = [header for header, _ in files]
    indices = [header.frame_index for header in headers]
    if len(set(indices)) != len(indices):
        raise ValueError("duplicate frame indices in directory")
    shape = headers[0][:2]
    for header in headers:
        if header[:2] != shape:
            raise ShapeMismatchError(
                f"frame {header.frame_index} grid {header[:2]} differs from {shape}"
            )
    images = _GridFiles(files)

    width = args.width if args.width is not None else 2 * shape[1]
    height = args.height if args.height is not None else 2 * shape[0]
    _check_image_size(width, height)
    if args.reference is not None:
        if args.reference not in indices:
            raise ValueError(f"no frame with index {args.reference}")
        reference_pos = indices.index(args.reference)
    else:
        reference_pos = _detect_reference(images, width, height)

    decoded, failures = decode_trajectory(images, reference_pos, width, height)
    for failure in failures:
        print(
            f"warning: frame {indices[failure.position]} failed: {failure.error}",
            file=sys.stderr,
        )
    trajectory = decoded_trajectory(decoded, failures, indices, reference_pos, width, height)
    rkio.save_trajectory(args.out_trajectory, trajectory)


# -------------------------------------------------------------- roundtrip

def _cycle_report(trajectory, kind_name: str, magnitude: float, seed: int):
    spec = PerturbationSpec(PerturbationKind(kind_name), magnitude, seed)
    return cycle_consistency_run(trajectory, spec)


def _csv_row(kind: str, frames: int, magnitude: float, seed: int,
             report, mrra30: float, residual: float, settings: tuple) -> str:
    metrics = (report.mean_rotation_error, report.mean_translation_error, mrra30, residual)
    fields = [kind, str(frames), rkio._fmt(magnitude), str(seed)]
    return ",".join(fields + [rkio._fmt(x) for x in metrics] + list(settings))


def _existing_rows(path: str) -> list[str]:
    """Rows (without header) of a previous run's CSV."""
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path} does not start with the expected CSV header")
    rows = lines[1:]
    for row in rows:
        if row.count(",") != CSV_HEADER.count(","):
            raise ValueError(f"malformed CSV row: {row!r}")
    return rows


def _write_csv(path: str, rows: list[str]) -> None:
    content = "\n".join([CSV_HEADER] + rows) + "\n"
    rkio._atomic_write(path, content.encode("ascii"))


def cmd_roundtrip(args) -> None:
    trajectory = _load_trajectory(args.trajectory)
    rows = _existing_rows(args.csv) if args.csv else []
    report, mrra30, residual = _cycle_report(
        trajectory, args.noise_kind, args.magnitude, args.seed
    )
    print(f"mean_rot_err={report.mean_rotation_error:.6f}")
    print(f"mean_trans_err={report.mean_translation_error:.6f}")
    print(f"mrra30={mrra30:.6f}")
    print(f"reencode_residual={residual:.6f}")
    if args.csv:
        stem = os.path.splitext(os.path.basename(args.trajectory))[0]
        intr = trajectory.frames[0].intrinsics
        # a trajectory file records neither a field of view nor a radius
        settings = (args.noise_kind, str(intr.width), str(intr.height), "", "")
        rows.append(_csv_row(
            stem, len(trajectory), args.magnitude, args.seed, report, mrra30, residual, settings
        ))
        _write_csv(args.csv, rows)


# ---------------------------------------------------------------- metrics

def cmd_metrics(args) -> None:
    predicted = rkio.load_trajectory(args.predicted)
    ground_truth = rkio.load_trajectory(args.ground_truth)
    want, have = [f.index for f in ground_truth.frames], [f.index for f in predicted.frames]
    if have != want:
        missing, extra = sorted(set(want) - set(have)), sorted(set(have) - set(want))
        detail = f"missing {missing}, extra {extra}" if missing or extra else "in another order"
        raise ValueError(f"predicted frame indices differ from the ground truth's: {detail}")
    predicted = canonicalize(predicted, ground_truth.reference_index)
    ground_truth = canonicalize(ground_truth, ground_truth.reference_index)
    report = pose_errors(predicted, ground_truth)
    mrra30 = mrra(predicted, ground_truth, tau=30.0)
    for k, frame in enumerate(ground_truth.frames):
        print(
            f"frame {frame.index}: rot_err={report.rotation_error[k]:.6f} "
            f"trans_err={report.translation_error[k]:.6f}"
        )
    print(f"mean_rot_err={report.mean_rotation_error:.6f}")
    print(f"mean_trans_err={report.mean_translation_error:.6f}")
    print(f"mrra30={mrra30:.6f}")


# ------------------------------------------------------------------ synth

def cmd_synth(args) -> None:
    intrinsics = _default_intrinsics(args.width, args.height, args.fov)
    trajectory = generate_trajectory(
        TrajectoryKind(args.kind),
        args.frames,
        intrinsics,
        scale=args.radius,
    )
    if args.reverse:
        trajectory = reverse_trajectory(trajectory)
    rkio.save_trajectory(args.out_trajectory, trajectory)


# ------------------------------------------------------------------ bench

def _bench_cell_key(kind: str, frames: int | str, magnitude: float, seed: int | str) -> tuple:
    return (kind, str(frames), rkio._fmt(magnitude), str(seed))


def _resumable_cells(path: str, rows: list[str], settings: tuple) -> set:
    """Cell keys of a previous run's rows; ValueError naming the first sweep
    setting in which a row differs from this run's."""
    keys = set()
    for row in rows:
        cols = row.split(",")
        for name, recorded, wanted in zip(SETTING_COLUMNS, cols[-len(SETTING_COLUMNS):], settings):
            if recorded != wanted:
                raise ValueError(
                    f"{path} holds a row with {name} {recorded or '(none)'}, but this run "
                    f"has {name} {wanted}; resume with the same settings or use a new file"
                )
        keys.add(_bench_cell_key(cols[0], cols[1], float(cols[2]), cols[3]))
    return keys


def cmd_bench(args) -> None:
    # --seeds 0 computes no cell: it checks and rewrites a finished file
    if args.seeds < 0:
        raise ValueError(f"seed count {args.seeds} is negative")
    if args.seeds == 0 and not os.path.exists(args.out):
        raise ValueError(f"--seeds 0 computes no cell and {args.out} does not exist yet")
    settings = (args.noise_kind, str(args.width), str(args.height),
                rkio._fmt(args.fov), rkio._fmt(args.radius))
    rows = _existing_rows(args.out)
    have = _resumable_cells(args.out, rows, settings)
    intrinsics = _default_intrinsics(args.width, args.height, args.fov)
    kept = len(rows)
    try:
        for kind_name in args.kinds:
            trajectory_by_kind = generate_trajectory(
                TrajectoryKind(kind_name),
                args.frames,
                intrinsics,
                scale=args.radius,
            )
            for magnitude in args.magnitudes:
                for seed in range(args.seeds):
                    key = _bench_cell_key(kind_name, args.frames, magnitude, seed)
                    if key in have:
                        continue
                    report, mrra30, residual = _cycle_report(
                        trajectory_by_kind, args.noise_kind, magnitude, seed
                    )
                    rows.append(_csv_row(
                        kind_name, args.frames, magnitude, seed, report, mrra30, residual,
                        settings,
                    ))
                    have.add(key)
    except BaseException:
        # a failed or interrupted cell keeps the cells computed before it,
        # so a resumed run starts at the failed one
        if len(rows) > kept:
            _write_csv(args.out, rows)
        raise
    _write_csv(args.out, rows)


# ------------------------------------------------------------------ wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raxelkit",
        description="Camera trajectories as per-pixel ray images: encode, "
        "decode, and evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="trajectory file to per-frame ray grids")
    enc.add_argument("trajectory")
    enc.add_argument("out_dir")
    enc.add_argument(
        "--representation",
        choices=[kind.value for kind in GridKind],
        default=GridKind.RAXEL.value,
    )
    enc.set_defaults(func=cmd_encode)

    dec = sub.add_parser("decode", help="ray-grid directory to trajectory file")
    dec.add_argument("raxel_dir")
    dec.add_argument("out_trajectory")
    dec.add_argument("--width", type=int, default=None,
                     help="full-resolution width (default: twice the grid width)")
    dec.add_argument("--height", type=int, default=None,
                     help="full-resolution height (default: twice the grid height)")
    dec.add_argument("--reference", type=int, default=None,
                     help="frame index of the reference (default: auto-detect)")
    dec.set_defaults(func=cmd_decode)

    rt = sub.add_parser("roundtrip", help="encode, perturb, decode, re-encode")
    rt.add_argument("trajectory")
    rt.add_argument("--noise-kind", choices=_NOISE_NAMES, default="gaussian")
    rt.add_argument("--magnitude", type=float, default=0.0)
    rt.add_argument("--seed", type=int, default=0)
    rt.add_argument("--csv", default=None, help="append a CSV row to this file")
    rt.set_defaults(func=cmd_roundtrip)

    met = sub.add_parser("metrics", help="compare two trajectory files")
    met.add_argument("predicted")
    met.add_argument("ground_truth")
    met.set_defaults(func=cmd_metrics)

    syn = sub.add_parser("synth", help="write a synthetic trajectory")
    syn.add_argument("kind", choices=_TRAJECTORY_NAMES)
    syn.add_argument("frames", type=int)
    syn.add_argument("out_trajectory")
    syn.add_argument("--radius", type=float, default=DEFAULT_RADIUS,
                     help="circle radius (arcs, orbit) or path length (line)")
    syn.add_argument("--fov", type=float, default=DEFAULT_FOV_DEG,
                     help="horizontal field of view in degrees")
    syn.add_argument("--width", type=int, default=DEFAULT_WIDTH)
    syn.add_argument("--height", type=int, default=DEFAULT_HEIGHT)
    syn.add_argument("--reverse", action="store_true",
                     help="traverse the path backwards")
    syn.set_defaults(func=cmd_synth)

    ben = sub.add_parser("bench", help="noise-robustness sweep to CSV")
    ben.add_argument("--out", default="bench.csv")
    ben.add_argument("--kinds", nargs="+", choices=_TRAJECTORY_NAMES,
                     default=list(BENCH_KINDS))
    ben.add_argument("--magnitudes", nargs="+", type=float,
                     default=list(BENCH_SIGMAS))
    ben.add_argument("--noise-kind", choices=_NOISE_NAMES,
                     default="gaussian")
    ben.add_argument("--seeds", type=int, default=BENCH_SEEDS,
                     help="seeds 0..N-1 per cell")
    ben.add_argument("--frames", type=int, default=BENCH_FRAMES)
    ben.add_argument("--width", type=int, default=DEFAULT_WIDTH)
    ben.add_argument("--height", type=int, default=DEFAULT_HEIGHT)
    ben.add_argument("--fov", type=float, default=DEFAULT_FOV_DEG)
    ben.add_argument("--radius", type=float, default=DEFAULT_RADIUS)
    ben.set_defaults(func=cmd_bench)

    return parser


def _exit_code(err: Exception) -> int:
    """4 for geometric degeneracy (also as the cause of a raxelkit error),
    3 for I/O failure, 2 for any other bad input."""
    if isinstance(err, _GEOMETRIC_ERRORS) or (
        isinstance(err, RaxelkitError) and isinstance(err.__cause__, _GEOMETRIC_ERRORS)
    ):
        return 4
    if isinstance(err, (RaxelkitError, ValueError, IndexError)):
        return 2
    return 3


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (RaxelkitError, ValueError, IndexError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return _exit_code(err)
    return 0


if __name__ == "__main__":
    sys.exit(main())
