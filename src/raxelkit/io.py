"""File formats: a human-diffable trajectory text format and a bit-exact
binary format for ray grids.

Trajectory text format, one frame per line after the header:

    raxelkit-traj v1 <width> <height> <reference_index>
    <index> <fx> <fy> <cx> <cy> <r00> <r01> <r02> <t0> <r10> ... <t2>

The 12 pose numbers are the row-major 3x4 camera-to-world matrix [R | t].
Reals carry 17 significant digits, which reproduces 64-bit floats exactly,
so saving and loading is lossless. On load, rotations are accepted up to an
orthonormality drift of 1e-6 and polar-projected back onto a rotation.

Ray grid binary format: 4-byte magic, picked by the grid kind's channel
count (``RXL1`` for 3-channel raxel images, ``RXM1`` for 6-channel maps),
three little-endian uint32 fields (height_r, width_r, frame_index), then
the row-major, channel-interleaved float64 payload. File length is checked
exactly, from the header and ``fstat`` before the payload is read, so
``load_raxel_header`` reads only the header and makes the same checks.
``save_raxel``/``load_raxel`` handle every kind; the file does not
record which 6-channel layout was saved, so the loader takes the kind.

All writers stage to a temporary file in the target directory and rename,
so a partially written file is never observable under the target name. The
file gets the mode a plain ``open`` would give it (0666 less the umask).
"""

from __future__ import annotations

import os
import secrets
import struct
from typing import NamedTuple

import numpy as np

from .errors import RaxelFileError, TrajectoryParseError
from .geometry import CameraFrame, Intrinsics, Pose, Trajectory, _freeze
from .rays import GridKind, RayGrid

TRAJ_HEADER_TAG = "raxelkit-traj"
TRAJ_VERSION = "v1"
RAXEL_MAGIC = b"RXL1"
RAYMAP_MAGIC = b"RXM1"
_MAGIC_BY_CHANNELS = {3: RAXEL_MAGIC, 6: RAYMAP_MAGIC}
_HEADER_STRUCT = struct.Struct("<III")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def format_trajectory(trajectory: Trajectory) -> str:
    """Serialize a trajectory to the text format. All frames must share the
    same image dimensions (the header carries one width/height pair)."""
    first = trajectory.frames[0].intrinsics
    for f in trajectory.frames:
        if (f.intrinsics.width, f.intrinsics.height) != (first.width, first.height):
            raise ValueError("all frames must share image dimensions to serialize")
    lines = [
        f"{TRAJ_HEADER_TAG} {TRAJ_VERSION} {first.width} {first.height} "
        f"{trajectory.reference_index}"
    ]
    for f in trajectory.frames:
        i = f.intrinsics
        rt = np.hstack([f.pose.rotation, f.pose.translation.reshape(3, 1)])
        numbers = [i.fx, i.fy, i.cx, i.cy, *rt.reshape(-1)]
        lines.append(" ".join([str(f.index)] + [_fmt(x) for x in numbers]))
    return "\n".join(lines) + "\n"


def parse_trajectory(text: str) -> Trajectory:
    """Parse the text format back into a Trajectory.

    Raises TrajectoryParseError with the offending 1-based line number;
    each failure of a frame line is a ValueError that one handler names.
    """
    lines = [ln for ln in text.splitlines()]
    if not lines:
        raise TrajectoryParseError("empty trajectory file", 1)
    header = lines[0].split()
    if len(header) != 5 or header[0] != TRAJ_HEADER_TAG or header[1] != TRAJ_VERSION:
        raise TrajectoryParseError(
            f"expected header '{TRAJ_HEADER_TAG} {TRAJ_VERSION} <width> <height> "
            f"<reference_index>', got {lines[0]!r}",
            1,
        )
    try:
        width, height, reference_index = (int(tok) for tok in header[2:])
    except ValueError:
        raise TrajectoryParseError(f"non-integer header fields in {lines[0]!r}", 1)

    frames = []
    for lineno, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if not tokens:
            continue
        try:
            if len(tokens) != 17:
                raise ValueError(
                    f"expected 17 fields (index, 4 intrinsics, 12 pose), got {len(tokens)}"
                )
            index = int(tokens[0])
            values = np.array([float(tok) for tok in tokens[1:]])
            if not np.all(np.isfinite(values)):
                raise ValueError("non-finite value")
            fx, fy, cx, cy = values[:4]
            rt = values[4:].reshape(3, 4)
            intrinsics = Intrinsics(fx=fx, fy=fy, cx=cx, cy=cy, width=width, height=height)
            pose = Pose(rt[:, :3], rt[:, 3])
            frames.append(CameraFrame(intrinsics=intrinsics, pose=pose, index=index))
        except ValueError as err:
            raise TrajectoryParseError(str(err), lineno)
    if not frames:
        raise TrajectoryParseError("no frame lines", 2)
    try:
        return Trajectory(frames=tuple(frames), reference_index=reference_index)
    except (ValueError, IndexError) as err:
        raise TrajectoryParseError(str(err), 1)


def _atomic_write(path: str, *chunks) -> None:
    """Write the bytes-like ``chunks`` in order to ``path``, atomically."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}~")
    # created as open() would create it: the kernel applies the umask to 0666
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_trajectory(path: str, trajectory: Trajectory) -> None:
    _atomic_write(path, format_trajectory(trajectory).encode("ascii"))


def load_trajectory(path: str) -> Trajectory:
    with open(path, "r", encoding="ascii") as fh:
        return parse_trajectory(fh.read())


def check_frame_index(frame_index: int) -> None:
    """ValueError for a frame index the uint32 header field cannot hold."""
    if not 0 <= frame_index <= 0xFFFFFFFF:
        raise ValueError(f"frame index {frame_index} does not fit the grid file's uint32 field")


def save_raxel(path: str, grid: RayGrid, frame_index: int) -> None:
    """Write a grid of any kind; the payload is written without copying. A
    frame index the uint32 header field cannot hold is a ValueError."""
    check_frame_index(frame_index)
    header = _MAGIC_BY_CHANNELS[grid.kind.channels] + _HEADER_STRUCT.pack(
        grid.height_r, grid.width_r, frame_index
    )
    _atomic_write(path, header, np.ascontiguousarray(grid.data, dtype="<f8"))


class GridHeader(NamedTuple):
    """What a grid file's 16-byte header states."""

    height_r: int
    width_r: int
    frame_index: int


def _read_header(fh, path: str, kind: GridKind) -> GridHeader:
    """The header of the open grid file ``fh``; raises RaxelFileError when
    the magic does not fit ``kind`` or the file's length (from fstat) is not
    exactly that of the grid the header states."""
    channels = kind.channels
    magic = _MAGIC_BY_CHANNELS[channels]
    head = fh.read(16)
    if len(head) < 16 or head[:4] != magic:
        raise RaxelFileError(f"{path}: bad magic, expected {magic!r}")
    header = GridHeader(*_HEADER_STRUCT.unpack(head[4:]))
    size = os.fstat(fh.fileno()).st_size
    expected = 16 + header.height_r * header.width_r * channels * 8
    if size != expected:
        raise RaxelFileError(
            f"{path}: payload is {size} bytes, expected exactly {expected} "
            f"for a {header.height_r}x{header.width_r}x{channels} grid"
        )
    return header


def load_raxel_header(path: str, kind: GridKind = GridKind.RAXEL) -> GridHeader:
    """Read only the header of a grid file of the stated ``kind``, with the
    checks ``load_raxel`` makes before it reads the payload."""
    with open(path, "rb", buffering=0) as fh:
        return _read_header(fh, path, kind)


def load_raxel(path: str, kind: GridKind = GridKind.RAXEL) -> tuple[RayGrid, int]:
    """Read a grid of the stated ``kind``; raises RaxelFileError when the
    magic or the exact file length does not fit it."""
    # unbuffered, so the payload is read in one allocation after the header
    with open(path, "rb", buffering=0) as fh:
        h, w, frame_index = _read_header(fh, path, kind)
        payload = fh.read()
    if len(payload) != h * w * kind.channels * 8:
        raise RaxelFileError(f"{path}: changed while it was being read")
    # a frozen view of the payload, so RayGrid keeps it uncopied
    data = _freeze(np.frombuffer(payload, dtype="<f8").reshape(h, w, kind.channels))
    return RayGrid(data, kind), frame_index
