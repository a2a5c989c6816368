"""Trajectory text format and ray-grid binary format."""

import os
from pathlib import Path

import numpy as np
import pytest

import raxelkit
from raxelkit.errors import RaxelFileError, TrajectoryParseError
from raxelkit.evaluation import TrajectoryKind, generate_trajectory
from raxelkit.geometry import (
    CameraFrame,
    Intrinsics,
    Pose,
    Trajectory,
    axis_angle_rotation,
)
from raxelkit.io import (
    format_trajectory,
    load_raxel,
    load_trajectory,
    parse_trajectory,
    save_raxel,
    save_trajectory,
)
from raxelkit.rays import (
    GridKind,
    RayGrid,
    encode_plucker,
    encode_raxel,
    encode_raymap,
)

INTR = Intrinsics(fx=700.0, fy=710.0, cx=416.0, cy=240.0, width=832, height=480)


def _orbit(n=5):
    return generate_trajectory(TrajectoryKind.ORBIT, n, INTR)


# ------------------------------------------------------------- text format


def test_text_round_trip_is_bit_exact(tmp_path):
    trajectory = _orbit(7)
    path = str(tmp_path / "t.traj")
    save_trajectory(path, trajectory)
    loaded = load_trajectory(path)
    assert loaded.reference_index == trajectory.reference_index
    assert len(loaded) == len(trajectory)
    for a, b in zip(trajectory.frames, loaded.frames):
        assert b.index == a.index
        # 17 significant digits round-trip float64 exactly, and parsing must
        # not re-project a rotation that is already orthonormal.
        assert np.array_equal(a.pose.rotation, b.pose.rotation)
        assert np.array_equal(a.pose.translation, b.pose.translation)
        assert (a.intrinsics.fx, a.intrinsics.fy) == (b.intrinsics.fx, b.intrinsics.fy)
        assert (a.intrinsics.cx, a.intrinsics.cy) == (b.intrinsics.cx, b.intrinsics.cy)
        assert (a.intrinsics.width, a.intrinsics.height) == (
            b.intrinsics.width,
            b.intrinsics.height,
        )


def test_save_twice_identical_bytes(tmp_path):
    trajectory = _orbit(4)
    p1, p2 = str(tmp_path / "a.traj"), str(tmp_path / "b.traj")
    save_trajectory(p1, trajectory)
    save_trajectory(p2, trajectory)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_header_and_frame_line_layout():
    trajectory = _orbit(2)
    lines = format_trajectory(trajectory).splitlines()
    assert lines[0] == "raxelkit-traj v1 832 480 0"
    tokens = lines[1].split()
    assert len(tokens) == 17
    assert tokens[0] == "0"
    # reference frame: identity rotation, zero translation
    assert [float(t) for t in tokens[5:]] == [
        1.0, 0.0, 0.0, 0.0,
        0.0, 1.0, 0.0, 0.0,
        0.0, 0.0, 1.0, 0.0,
    ]


def test_blank_lines_ignored(tmp_path):
    trajectory = _orbit(3)
    text = format_trajectory(trajectory)
    lines = text.splitlines()
    padded = "\n".join([lines[0], "", lines[1], "   ", lines[2], lines[3], ""]) + "\n"
    reparsed = parse_trajectory(padded)
    assert len(reparsed) == 3
    assert np.array_equal(
        reparsed.frames[1].pose.rotation, trajectory.frames[1].pose.rotation
    )


def test_trailing_newline_present():
    assert format_trajectory(_orbit(2)).endswith("\n")


def test_mixed_dims_rejected():
    other = Intrinsics(fx=700.0, fy=710.0, cx=208.0, cy=120.0, width=416, height=240)
    frames = (
        CameraFrame(intrinsics=INTR, pose=Pose.identity(), index=0),
        CameraFrame(intrinsics=other, pose=Pose.identity(), index=1),
    )
    with pytest.raises(ValueError):
        format_trajectory(Trajectory(frames=frames, reference_index=0))


def _line_number(excinfo):
    return excinfo.value.line_number


def test_parse_error_empty():
    with pytest.raises(TrajectoryParseError) as e:
        parse_trajectory("")
    assert _line_number(e) == 1


def test_parse_error_bad_header_tag():
    with pytest.raises(TrajectoryParseError) as e:
        parse_trajectory("sometag v1 832 480 0\n")
    assert _line_number(e) == 1
    assert "line 1:" in str(e.value)


def test_parse_error_wrong_version():
    with pytest.raises(TrajectoryParseError) as e:
        parse_trajectory("raxelkit-traj v2 832 480 0\n")
    assert _line_number(e) == 1


def test_parse_error_non_integer_header():
    with pytest.raises(TrajectoryParseError) as e:
        parse_trajectory("raxelkit-traj v1 832.5 480 0\n")
    assert _line_number(e) == 1


def test_parse_error_wrong_field_count_points_at_line():
    text = format_trajectory(_orbit(3))
    lines = text.splitlines()
    lines[2] = lines[2] + " 99"
    with pytest.raises(TrajectoryParseError) as e:
        parse_trajectory("\n".join(lines) + "\n")
    assert _line_number(e) == 3


def test_parse_error_non_numeric_token():
    text = format_trajectory(_orbit(2))
    lines = text.splitlines()
    tokens = lines[2].split()
    tokens[3] = "abc"
    lines[2] = " ".join(tokens)
    with pytest.raises(TrajectoryParseError) as e:
        parse_trajectory("\n".join(lines) + "\n")
    assert _line_number(e) == 3


def test_parse_error_non_finite():
    text = format_trajectory(_orbit(2))
    lines = text.splitlines()
    tokens = lines[1].split()
    tokens[2] = "nan"
    lines[1] = " ".join(tokens)
    with pytest.raises(TrajectoryParseError) as e:
        parse_trajectory("\n".join(lines) + "\n")
    assert _line_number(e) == 2


def test_parse_error_bad_rotation():
    text = format_trajectory(_orbit(2))
    lines = text.splitlines()
    tokens = lines[2].split()
    tokens[5] = "1.001"  # r00 off by 1e-3, far past the 1e-6 drift allowance
    lines[2] = " ".join(tokens)
    with pytest.raises(TrajectoryParseError) as e:
        parse_trajectory("\n".join(lines) + "\n")
    assert _line_number(e) == 3


def test_parse_error_no_frames():
    with pytest.raises(TrajectoryParseError) as e:
        parse_trajectory("raxelkit-traj v1 832 480 0\n\n")
    assert _line_number(e) == 2


def test_parse_error_reference_out_of_range():
    text = format_trajectory(_orbit(2)).replace(
        "raxelkit-traj v1 832 480 0", "raxelkit-traj v1 832 480 9"
    )
    with pytest.raises(TrajectoryParseError) as e:
        parse_trajectory(text)
    assert _line_number(e) == 1


def test_small_rotation_drift_repaired():
    # within the 1e-6 load tolerance: accepted and projected back onto SO(3)
    r = axis_angle_rotation([0.0, 1.0, 0.0], 0.3)
    r = r + 1e-8
    text = "raxelkit-traj v1 832 480 0\n0 700 710 416 240 " + " ".join(
        format(v, ".17g") for v in [*r.reshape(-1)[:3], 0.0, *r.reshape(-1)[3:6], 0.0,
                                    *r.reshape(-1)[6:], 0.0]
    ) + "\n"
    loaded = parse_trajectory(text)
    got = loaded.frames[0].pose.rotation
    assert np.abs(got.T @ got - np.eye(3)).max() < 1e-12


# ----------------------------------------------------------- binary format


def test_raxel_round_trip_bit_exact(tmp_path):
    trajectory = _orbit(3)
    image = encode_raxel(trajectory.frames[2], trajectory.frames[2].pose)
    path = str(tmp_path / "f.rxl")
    save_raxel(path, image, 2)
    loaded, frame_index = load_raxel(path)
    assert frame_index == 2
    assert loaded.data.dtype == np.float64
    assert np.array_equal(loaded.data, image.data)


def test_raxel_file_layout(tmp_path):
    data = np.arange(2 * 3 * 3, dtype=float).reshape(2, 3, 3)
    path = str(tmp_path / "f.rxl")
    save_raxel(path, RayGrid(data), 7)
    blob = Path(path).read_bytes()
    assert blob[:4] == b"RXL1"
    assert len(blob) == 16 + 2 * 3 * 3 * 8
    h = int.from_bytes(blob[4:8], "little")
    w = int.from_bytes(blob[8:12], "little")
    idx = int.from_bytes(blob[12:16], "little")
    assert (h, w, idx) == (2, 3, 7)
    assert np.array_equal(
        np.frombuffer(blob, dtype="<f8", offset=16).reshape(2, 3, 3), data
    )


def test_raxel_bad_magic(tmp_path):
    path = str(tmp_path / "f.rxl")
    save_raxel(path, RayGrid(np.zeros((2, 2, 3)) + [0, 0, 1]), 0)
    blob = bytearray(Path(path).read_bytes())
    blob[:4] = b"XXXX"
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(RaxelFileError):
        load_raxel(path)


def test_raxel_truncated(tmp_path):
    path = str(tmp_path / "f.rxl")
    save_raxel(path, RayGrid(np.zeros((2, 2, 3)) + [0, 0, 1]), 0)
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[:-8])
    with pytest.raises(RaxelFileError):
        load_raxel(path)


def test_raxel_trailing_bytes(tmp_path):
    path = str(tmp_path / "f.rxl")
    save_raxel(path, RayGrid(np.zeros((2, 2, 3)) + [0, 0, 1]), 0)
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob + b"\x00" * 4)
    with pytest.raises(RaxelFileError):
        load_raxel(path)


def test_raxel_rejects_raymap_magic(tmp_path):
    trajectory = _orbit(2)
    raymap = encode_plucker(trajectory.frames[1], trajectory.frames[1].pose)
    path = str(tmp_path / "f.rxl")
    save_raxel(path, raymap, 1)
    with pytest.raises(RaxelFileError):
        load_raxel(path)


@pytest.mark.parametrize(
    "kind, encode, magic",
    [
        (GridKind.RAXEL, encode_raxel, b"RXL1"),
        (GridKind.PLUCKER, encode_plucker, b"RXM1"),
        (GridKind.RAYMAP, encode_raymap, b"RXM1"),
    ],
    ids=[kind.value for kind in GridKind],
)
def test_raymap_round_trip(tmp_path, kind, encode, magic):
    trajectory = _orbit(3)
    grid = encode(trajectory.frames[1], trajectory.frames[1].pose)
    path = str(tmp_path / "f.rxm")
    save_raxel(path, grid, 1)
    assert Path(path).read_bytes()[:4] == magic
    loaded, frame_index = load_raxel(path, kind)
    assert frame_index == 1
    assert loaded.kind is kind
    assert loaded.data.shape[2] == kind.channels
    assert np.array_equal(loaded.data, grid.data)


def test_grid_names_from_before_the_merge_are_gone():
    for module in (raxelkit, raxelkit.rays, raxelkit.io):
        for name in ("RaxelImage", "RayMap6", "RayMapKind", "save_raymap", "load_raymap"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_package_all_resolves_without_repeats():
    assert len(set(raxelkit.__all__)) == len(raxelkit.__all__)
    for name in raxelkit.__all__:
        assert hasattr(raxelkit, name), name


def test_raymap_kind_is_callers_statement(tmp_path):
    data = np.zeros((2, 2, 6))
    data[..., 2] = 1.0
    path = str(tmp_path / "f.rxm")
    save_raxel(path, RayGrid(data, GridKind.RAYMAP), 0)
    loaded, _ = load_raxel(path, GridKind.RAYMAP)
    assert loaded.kind is GridKind.RAYMAP


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = str(tmp_path / "t.traj")
    save_trajectory(path, _orbit(3))
    save_trajectory(path, _orbit(4))  # overwrite in place
    assert sorted(os.listdir(tmp_path)) == ["t.traj"]
    assert len(load_trajectory(path)) == 4


@pytest.mark.parametrize("umask", [0o022, 0o002])
def test_written_files_respect_umask(tmp_path, umask):
    previous = os.umask(umask)
    try:
        traj_path = str(tmp_path / "t.traj")
        grid_path = str(tmp_path / "f.rxl")
        save_trajectory(traj_path, _orbit())
        save_raxel(grid_path, RayGrid(np.zeros((2, 3, 3))), 0)
    finally:
        os.umask(previous)
    for path in (traj_path, grid_path):
        assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask


def test_large_frame_index_round_trips(tmp_path):
    path = str(tmp_path / "f.rxl")
    save_raxel(path, RayGrid(np.zeros((1, 1, 3)) + [0, 0, 1]), 4_000_000_000)
    _, idx = load_raxel(path)
    assert idx == 4_000_000_000
