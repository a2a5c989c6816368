"""End-to-end command-line tests: exit codes, output bytes, determinism."""

import os
import subprocess
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from raxelkit import cli, evaluation, rays
from raxelkit import io as rkio
from raxelkit.cli import main
from raxelkit.errors import (
    DegenerateGeometryError,
    InsufficientInliersError,
    NonFiniteInputError,
    RaxelkitError,
    ShapeMismatchError,
    TrajectoryParseError,
)
from raxelkit.evaluation import TrajectoryKind, generate_trajectory
from raxelkit.geometry import (
    Intrinsics, Trajectory, canonicalize, compose, geodesic_rotation_distance, inverse,
)
from raxelkit.io import load_raxel, load_trajectory, save_raxel, save_trajectory
from raxelkit.rays import RayGrid, ray_grid


def run(*argv):
    return main([str(a) for a in argv])


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


# ------------------------------------------------------------------- synth


def test_synth_writes_expected_header(tmp_path):
    out = tmp_path / "t.traj"
    assert run("synth", "orbit", 9, out) == 0
    text = out.read_text()
    assert text.splitlines()[0] == "raxelkit-traj v1 832 480 0"
    assert len(load_trajectory(str(out))) == 9


def test_synth_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.traj", tmp_path / "b.traj"
    run("synth", "arcleft", 7, a)
    run("synth", "arcleft", 7, b)
    assert _read(a) == _read(b)


def test_synth_reverse(tmp_path):
    fwd, rev = tmp_path / "f.traj", tmp_path / "r.traj"
    run("synth", "line", 5, fwd)
    run("synth", "line", 5, rev, "--reverse")
    f = load_trajectory(str(fwd))
    r = load_trajectory(str(rev))
    assert r.reference_index == 4
    assert np.array_equal(r.frames[0].pose.translation, f.frames[4].pose.translation)


def test_synth_fov_sets_focal(tmp_path):
    out = tmp_path / "t.traj"
    run("synth", "still", 3, out, "--fov", 90, "--width", 100, "--height", 80)
    intr = load_trajectory(str(out)).frames[0].intrinsics
    assert intr.fx == pytest.approx(50.0, rel=1e-12)
    assert intr.fy == pytest.approx(50.0, rel=1e-12)
    assert (intr.cx, intr.cy) == (50.0, 40.0)


def test_synth_bad_frame_count(tmp_path):
    assert run("synth", "orbit", 0, tmp_path / "t.traj") == 2


# ----------------------------------------------------------------- encode


def test_encode_writes_one_file_per_frame(tmp_path):
    traj = tmp_path / "t.traj"
    run("synth", "orbit", 5, traj, "--width", 64, "--height", 48)
    grids = tmp_path / "grids"
    assert run("encode", traj, grids) == 0
    assert sorted(os.listdir(grids)) == [f"frame_{k}.rxl" for k in range(5)]
    for name in os.listdir(grids):
        assert _read(grids / name)[:4] == b"RXL1"


def test_encode_plucker_and_raymap_magic(tmp_path):
    traj = tmp_path / "t.traj"
    run("synth", "line", 3, traj, "--width", 64, "--height", 48)
    for rep in ("plucker", "raymap"):
        out = tmp_path / rep
        assert run("encode", traj, out, "--representation", rep) == 0
        for name in os.listdir(out):
            assert _read(out / name)[:4] == b"RXM1"


def test_encode_looks_encoders_up_through_the_module(tmp_path, monkeypatch):
    # wrappers installed on the cli module's bindings, as a tracer does, see every frame
    calls = []
    original = cli.encode_plucker
    monkeypatch.setattr(
        cli, "encode_plucker", lambda frame, pose: calls.append(frame.index) or original(frame, pose)
    )
    traj = tmp_path / "t.traj"
    run("synth", "orbit", 4, traj, "--width", 64, "--height", 48)
    assert run("encode", traj, tmp_path / "g", "--representation", "plucker") == 0
    assert calls == [0, 1, 2, 3]


def test_encode_still_frames_differ_only_in_index(tmp_path):
    traj = tmp_path / "t.traj"
    run("synth", "still", 4, traj, "--width", 64, "--height", 48)
    grids = tmp_path / "grids"
    run("encode", traj, grids)
    blobs = [_read(grids / f"frame_{k}.rxl") for k in range(4)]
    for k, blob in enumerate(blobs):
        assert blob[:12] == blobs[0][:12]
        assert blob[16:] == blobs[0][16:]
        assert int.from_bytes(blob[12:16], "little") == k


def test_encode_malformed_input_writes_nothing(tmp_path, capsys):
    bad = tmp_path / "bad.traj"
    bad.write_text("not a trajectory\n")
    out = tmp_path / "grids"
    assert run("encode", bad, out) == 2
    assert not out.exists()
    assert "line 1" in capsys.readouterr().err


def test_encode_checks_every_frame_index_before_writing(tmp_path, capsys):
    traj, far = tmp_path / "t.traj", tmp_path / "far.traj"
    run("synth", "orbit", 2, traj, "--width", 64, "--height", 48)
    frames = load_trajectory(str(traj)).frames
    save_trajectory(str(far), Trajectory((frames[0], replace(frames[1], index=2**32)), 0))
    out = tmp_path / "grids"
    capsys.readouterr()
    assert run("encode", far, out) == 2
    assert capsys.readouterr().err == (
        "error: frame index 4294967296 does not fit the grid file's uint32 field\n"
    )
    assert not out.exists()


def test_encode_missing_input_is_io_error(tmp_path):
    assert run("encode", tmp_path / "absent.traj", tmp_path / "g") == 3


# ----------------------------------------------------------------- decode


def _synth_encode(tmp_path, kind="orbit", frames=5, width=64, height=48, **synth_flags):
    traj = tmp_path / "gt.traj"
    argv = ["synth", kind, frames, traj, "--width", width, "--height", height]
    for flag, value in synth_flags.items():
        argv += [f"--{flag}", value]
    run(*argv)
    grids = tmp_path / "grids"
    run("encode", traj, grids)
    return traj, grids


def _pose_agreement(pred, gt):
    """Worst rotation/translation error between two canonicalized files."""
    p = canonicalize(load_trajectory(str(pred)), 0)
    g = canonicalize(load_trajectory(str(gt)), 0)
    assert len(p) == len(g)
    rot = max(
        geodesic_rotation_distance(a.pose, b.pose)
        for a, b in zip(p.frames, g.frames)
    )
    trans = max(
        float(np.linalg.norm(a.pose.translation - b.pose.translation))
        for a, b in zip(p.frames, g.frames)
    )
    return rot, trans


def test_decode_recovers_poses_and_focal(tmp_path):
    traj, grids = _synth_encode(tmp_path)
    out = tmp_path / "pred.traj"
    assert run("decode", grids, out) == 0
    rot, trans = _pose_agreement(out, traj)
    assert rot < 1e-9 and trans < 1e-9
    gt_intr = load_trajectory(str(traj)).frames[0].intrinsics
    for frame in load_trajectory(str(out)).frames:
        assert abs(frame.intrinsics.fx - gt_intr.fx) / gt_intr.fx < 1e-6
        assert abs(frame.intrinsics.fy - gt_intr.fy) / gt_intr.fy < 1e-6


def test_decode_explicit_reference_matches_auto(tmp_path):
    _, grids = _synth_encode(tmp_path)
    auto, explicit = tmp_path / "a.traj", tmp_path / "e.traj"
    assert run("decode", grids, auto) == 0
    assert run("decode", grids, explicit, "--reference", 0) == 0
    assert _read(auto) == _read(explicit)


def test_decode_deterministic_bytes(tmp_path):
    _, grids = _synth_encode(tmp_path, kind="arcright")
    a, b = tmp_path / "a.traj", tmp_path / "b.traj"
    run("decode", grids, a)
    run("decode", grids, b)
    assert _read(a) == _read(b)


def test_decode_unknown_reference_index(tmp_path, capsys):
    _, grids = _synth_encode(tmp_path)
    assert run("decode", grids, tmp_path / "p.traj", "--reference", 42) == 2
    assert "42" in capsys.readouterr().err


def test_decode_empty_dir(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run("decode", empty, tmp_path / "p.traj") == 2


def test_decode_missing_dir(tmp_path):
    assert run("decode", tmp_path / "absent", tmp_path / "p.traj") == 3


def test_decode_mixed_grid_sizes(tmp_path, capsys):
    _, grids = _synth_encode(tmp_path)
    odd = np.zeros((10, 16, 3))
    odd[..., 2] = 1.0
    save_raxel(str(grids / "frame_9.rxl"), RayGrid(odd), 9)
    assert run("decode", grids, tmp_path / "p.traj") == 2
    assert "differs" in capsys.readouterr().err


def test_decode_corrupt_file(tmp_path):
    _, grids = _synth_encode(tmp_path)
    path = grids / "frame_2.rxl"
    path.write_bytes(_read(path)[:-4])
    assert run("decode", grids, tmp_path / "p.traj") == 2


def test_decode_duplicate_indices(tmp_path):
    _, grids = _synth_encode(tmp_path, frames=3)
    blob = _read(grids / "frame_1.rxl")
    (grids / "frame_9.rxl").write_bytes(blob)  # same embedded index 1
    assert run("decode", grids, tmp_path / "p.traj") == 2


def test_decode_all_degenerate(tmp_path, capsys):
    grids = tmp_path / "grids"
    grids.mkdir()
    const = np.zeros((24, 32, 3))
    const[..., 2] = 1.0
    for k in range(3):
        save_raxel(str(grids / f"frame_{k}.rxl"), RayGrid(const.copy()), k)
    assert run("decode", grids, tmp_path / "p.traj") == 4
    capsys.readouterr()
    assert run("decode", grids, tmp_path / "p.traj", "--reference", 0) == 4


@pytest.mark.parametrize("fill, code, cause", [
    ("nan", 2, "target contains non-finite coordinates"),
    ("constant", 4, "focal inlier fractions 0.000/0.000 below 0.1"),
])
def test_decode_without_a_qualifying_reference_reports_the_first_failure(
    tmp_path, capsys, fill, code, cause
):
    # when every candidate fails, the exit code follows the first failure:
    # non-finite pixels are bad input (2), as with --reference 0; flat rays
    # are degenerate geometry (4)
    _, grids = _synth_encode(tmp_path)
    for path in grids.iterdir():
        image, index = load_raxel(str(path))
        data = image.data.copy()
        if fill == "nan":
            data[5, 7, 2] = np.nan
        else:
            data[...] = (0.0, 0.0, 1.0)
        save_raxel(str(path), RayGrid(data), index)
    out = tmp_path / "p.traj"
    capsys.readouterr()
    assert run("decode", grids, out) == code
    assert capsys.readouterr().err == (
        f"error: no frame can be the reference; the first candidate failed: {cause}\n"
    )
    assert not out.exists()
    if fill == "nan":
        assert run("decode", grids, out, "--reference", 0) == 2


@pytest.mark.parametrize("case", ["no-files", "duplicates", "grid-differs", "no-such-index"])
def test_decode_usage_errors_keep_their_messages(tmp_path, capsys, case):
    _, grids = _synth_encode(tmp_path, frames=3)
    extra = ()
    if case == "no-files":
        for path in grids.iterdir():
            path.unlink()
        expected = f"error: no .rxl files in {grids}\n"
    elif case == "duplicates":
        (grids / "frame_9.rxl").write_bytes(_read(grids / "frame_1.rxl"))
        expected = "error: duplicate frame indices in directory\n"
    elif case == "grid-differs":
        save_raxel(str(grids / "frame_9.rxl"), RayGrid(np.zeros((10, 16, 3)) + [0, 0, 1]), 9)
        expected = "error: frame 9 grid (10, 16) differs from (24, 32)\n"
    else:
        extra = ("--reference", 42)
        expected = "error: no frame with index 42\n"
    capsys.readouterr()
    assert run("decode", grids, tmp_path / "p.traj", *extra) == 2
    assert capsys.readouterr().err == expected


def test_decode_names_a_failed_reference_frame(tmp_path, capsys):
    # frame 4 of an arc encoded against frame 0 is not an identity-pose frame
    _, grids = _synth_encode(tmp_path, kind="arcleft", frames=9, width=96, height=64)
    capsys.readouterr()
    assert run("decode", grids, tmp_path / "o.traj", "--reference", 4) == 4
    err = capsys.readouterr().err
    assert "error: reference frame 4 failed: focal estimates" in err
    assert not (tmp_path / "o.traj").exists()


def test_decode_drops_failed_frame_with_warning(tmp_path, capsys):
    _, grids = _synth_encode(tmp_path)
    const = np.zeros((24, 32, 3))
    const[..., 2] = 1.0
    save_raxel(str(grids / "frame_9.rxl"), RayGrid(const), 9)
    out = tmp_path / "p.traj"
    assert run("decode", grids, out) == 0
    err = capsys.readouterr().err
    assert "frame 9" in err
    assert len(load_trajectory(str(out))) == 5  # the 5 healthy frames survive


def test_decode_drops_non_finite_frame_with_warning(tmp_path, capsys):
    traj, grids = _synth_encode(tmp_path)
    path = str(grids / "frame_2.rxl")
    image, index = load_raxel(path)
    data = image.data.copy()
    data[5, 7, 2] = np.nan
    save_raxel(path, RayGrid(data), index)
    out = tmp_path / "p.traj"
    assert run("decode", grids, out) == 0
    assert "frame 2" in capsys.readouterr().err
    decoded = load_trajectory(str(out))
    assert [f.index for f in decoded.frames] == [0, 1, 3, 4]
    assert decoded.reference_index == 0


def test_decode_non_positive_focal_fails_frames_not_the_command(tmp_path, capsys):
    # frame 4 of an arc is not the identity-pose reference: decoding against
    # it gives negative focal votes, which are per-frame failures (exit 4)
    _, grids = _synth_encode(tmp_path, kind="arcleft", frames=9, width=96, height=64)
    out = tmp_path / "p.traj"
    assert run("decode", grids, out, "--reference", 4) == 4
    err = capsys.readouterr().err
    assert "warning: frame 4 failed" in err and "not positive" in err
    assert not out.exists()


def test_decode_auto_reference_adds_at_most_one_grid_to_cache(tmp_path):
    # on an arc, several candidates pass the identity-pose focal test
    _, grids = _synth_encode(tmp_path, kind="arcleft", frames=9)
    ray_grid.cache_clear()
    assert run("decode", grids, tmp_path / "p.traj") == 0
    assert ray_grid.cache_info().currsize <= 1


def test_decode_dims_that_do_not_fit_the_grid_are_a_usage_error(tmp_path, capsys):
    _, grids = _synth_encode(tmp_path)
    out = tmp_path / "p.traj"
    assert run("decode", grids, out, "--width", 100) == 2
    err = capsys.readouterr().err
    assert "24x50" in err and "24x32" in err
    assert not out.exists()


def test_detect_reference_raises_on_dims_that_do_not_fit(tmp_path):
    _, grids = _synth_encode(tmp_path)
    images = [load_raxel(str(path))[0] for path in sorted(grids.iterdir())]
    with pytest.raises(ShapeMismatchError, match="24x50"):
        cli._detect_reference(images, 100, 48)


@pytest.mark.parametrize("command, extra", [
    ("decode", ("--width", 3, "--height", 3)),
    ("decode", ("--width", 3, "--height", 3, "--reference", 0)),
    # decoded at twice the grid size, 2x2: the one pixel sits on the
    # principal point, where detection's focal vote cannot recover a focal
    ("decode", ()),
    ("roundtrip", ()),
], ids=["decode-auto", "decode-reference", "decode-auto-default-size", "roundtrip"])
def test_grids_too_small_to_register_are_a_usage_error(tmp_path, capsys, command, extra):
    # a 3x3 image has a 1x1 raxel grid: one point, where registration needs 3
    traj, grids = _synth_encode(tmp_path, frames=3, width=3, height=3)
    out = tmp_path / "out"
    capsys.readouterr()
    if command == "decode":
        argv = (grids, out, *extra)
    else:
        argv = (traj, "--csv", out)
    assert run(command, *argv) == 2
    assert capsys.readouterr().err == "error: source needs at least 3 points, got 1\n"
    assert not out.exists()


def test_decode_takes_a_single_frame_as_the_reference_unscored(tmp_path):
    # one 1x1 grid: too few points to register, which one frame never needs
    _, grids = _synth_encode(tmp_path, frames=1, width=3, height=3)
    auto, explicit = tmp_path / "auto.traj", tmp_path / "explicit.traj"
    assert run("decode", grids, auto, "--width", 3, "--height", 3) == 0
    assert run("decode", grids, explicit, "--width", 3, "--height", 3, "--reference", 0) == 0
    assert _read(auto) == _read(explicit)


@pytest.mark.parametrize("value", [np.inf, -np.inf], ids=["+inf", "-inf"])
@pytest.mark.parametrize("width, height, code, detected", [
    (64, 48, 0, "warning: frame 2 failed: target contains non-finite coordinates\n"),
    # a 1-wide grid: every pixel sits on cx, so no candidate has a focal
    (2, 6, 4, "error: no frame can be the reference; the first candidate failed: "
              "focal inlier fractions 0.000/0.667 below 0.1\n"),
], ids=["64x48", "2x6"])
def test_auto_detection_skips_an_infinite_pixel_without_a_warning(
        tmp_path, capsys, value, width, height, code, detected):
    # detection refuses the non-finite candidate before its focal vote,
    # whose products would warn "invalid value" out of main; the decode
    # exits as it does with --reference 0
    _, grids = _synth_encode(tmp_path, width=width, height=height)
    path = str(grids / "frame_2.rxl")
    image, index = load_raxel(path)
    data = image.data.copy()
    data[-1, -1, 1] = value
    save_raxel(path, RayGrid(data), index)
    auto, explicit = tmp_path / "auto.traj", tmp_path / "explicit.traj"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("decode", grids, auto) == code
        assert capsys.readouterr().err.startswith(detected)
        assert run("decode", grids, explicit, "--reference", 0) == code
    if code == 0:
        assert _read(auto) == _read(explicit)


def test_decode_respects_explicit_dims(tmp_path):
    traj, grids = _synth_encode(tmp_path)
    out = tmp_path / "p.traj"
    assert run("decode", grids, out, "--width", 64, "--height", 48) == 0
    rot, _ = _pose_agreement(out, traj)
    assert rot < 1e-9


@pytest.mark.parametrize("extra, reads", [((), 2), (("--reference", 0), 1)],
                         ids=["auto", "reference"])
def test_decode_loads_each_grid_once_per_pass(tmp_path, monkeypatch, extra, reads):
    # detection is one pass over the files and the decode another
    _, grids = _synth_encode(tmp_path)
    loads, load = [], rkio.load_raxel

    def counting_load(path, *rest):
        loads.append(os.path.basename(path))
        return load(path, *rest)

    monkeypatch.setattr(rkio, "load_raxel", counting_load)
    assert run("decode", grids, tmp_path / "p.traj", *extra) == 0
    assert sorted(loads) == sorted(f"frame_{k}.rxl" for k in range(5) for _ in range(reads))


def test_decode_holds_about_one_grid_at_a_time(tmp_path, traced_peak_grids):
    # all 41 grids held at once would be over 41 grid sizes
    traj, grids = tmp_path / "gt.traj", tmp_path / "grids"
    run("synth", "orbit", 41, traj, "--width", 256, "--height", 192, "--reverse")
    run("encode", traj, grids)
    grid_bytes = 96 * 128 * 3 * 8
    out = tmp_path / "p.traj"

    def decode():
        assert run("decode", grids, out) == 0

    decode()  # the first pass fills the caches
    assert traced_peak_grids(decode, grid_bytes) < 10
    assert load_trajectory(str(out)).reference_index == 40


def test_decode_names_a_file_rewritten_after_detection(tmp_path, monkeypatch, capsys):
    _, grids = _synth_encode(tmp_path)
    path = grids / "frame_2.rxl"
    image, _ = load_raxel(str(path))
    detect = cli._detect_reference

    def detect_then_rewrite(images, width, height):
        position = detect(images, width, height)
        save_raxel(str(path), image, 7)
        return position

    monkeypatch.setattr(cli, "_detect_reference", detect_then_rewrite)
    out = tmp_path / "p.traj"
    capsys.readouterr()
    assert run("decode", grids, out) == 2
    assert capsys.readouterr().err == (
        f"error: {path} changed during the decode: its header now states grid (24, 32) "
        "and frame 7, not grid (24, 32) and frame 2\n"
    )
    assert not out.exists()


# -------------------------------------------------------------- roundtrip


def test_roundtrip_clean_is_zero(tmp_path, capsys):
    traj = tmp_path / "t.traj"
    run("synth", "orbit", 5, traj, "--width", 64, "--height", 48)
    capsys.readouterr()
    assert run("roundtrip", traj) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "mean_rot_err=0.000000"
    assert out[1] == "mean_trans_err=0.000000"
    assert out[2] == "mrra30=1.000000"
    assert out[3] == "reencode_residual=0.000000"


def test_roundtrip_stdout_deterministic(tmp_path, capsys):
    traj = tmp_path / "t.traj"
    run("synth", "arcleft", 5, traj, "--width", 64, "--height", 48)
    capsys.readouterr()
    run("roundtrip", traj, "--magnitude", 0.01, "--seed", 5)
    first = capsys.readouterr().out
    run("roundtrip", traj, "--magnitude", 0.01, "--seed", 5)
    assert capsys.readouterr().out == first
    assert first.startswith("mean_rot_err=0.0")


def test_roundtrip_csv_appends(tmp_path, capsys):
    traj = tmp_path / "t.traj"
    run("synth", "orbit", 5, traj, "--width", 64, "--height", 48)
    csv = tmp_path / "out.csv"
    run("roundtrip", traj, "--magnitude", 0.001, "--csv", csv)
    run("roundtrip", traj, "--magnitude", 0.01, "--csv", csv)
    lines = csv.read_text().splitlines()
    assert lines[0] == (
        "kind,frames,magnitude,seed,mean_rot_err_rad,mean_trans_err,"
        "mrra30,reencode_residual,noise_kind,width,height,fov,radius"
    )
    assert len(lines) == 3
    assert lines[1].startswith("t,5,0.001")
    assert lines[2].startswith("t,5,0.01")


def test_roundtrip_negative_magnitude(tmp_path, capsys):
    traj = tmp_path / "t.traj"
    run("synth", "orbit", 5, traj, "--width", 64, "--height", 48)
    assert run("roundtrip", traj, "--magnitude", -0.5) == 2


def test_roundtrip_infinite_bit_depth_is_a_usage_error(tmp_path, capsys):
    traj = tmp_path / "t.traj"
    run("synth", "orbit", 5, traj, "--width", 64, "--height", 48)
    assert run("roundtrip", traj, "--noise-kind", "quantize", "--magnitude", "inf") == 2
    assert "must be finite" in capsys.readouterr().err


def test_roundtrip_degenerate_rays_exit_4(tmp_path, capsys):
    # a near-zero field of view makes every ray almost parallel, which
    # leaves focal recovery without inliers even on clean data
    traj = tmp_path / "t.traj"
    run("synth", "orbit", 3, traj, "--fov", 1e-7, "--width", 64, "--height", 48)
    assert run("roundtrip", traj) == 4


def test_roundtrip_dropout_and_quantize_kinds(tmp_path, capsys):
    traj = tmp_path / "t.traj"
    run("synth", "orbit", 5, traj, "--width", 64, "--height", 48)
    capsys.readouterr()
    assert run("roundtrip", traj, "--noise-kind", "dropout", "--magnitude", 0.1) == 0
    assert run("roundtrip", traj, "--noise-kind", "quantize", "--magnitude", 12) == 0
    out = capsys.readouterr().out
    assert out.count("mrra30=") == 2


# ---------------------------------------------------------------- metrics


def test_metrics_identical_files(tmp_path, capsys):
    traj = tmp_path / "t.traj"
    run("synth", "orbit", 4, traj, "--width", 64, "--height", 48)
    capsys.readouterr()
    assert run("metrics", traj, traj) == 0
    out = capsys.readouterr().out.splitlines()
    frame_lines = [ln for ln in out if ln.startswith("frame ")]
    assert len(frame_lines) == 4
    for ln in frame_lines:
        assert "rot_err=0.000000" in ln and "trans_err=0.000000" in ln
    assert "mean_rot_err=0.000000" in out
    assert "mean_trans_err=0.000000" in out
    assert "mrra30=1.000000" in out


def test_metrics_length_mismatch(tmp_path, capsys):
    a, b = tmp_path / "a.traj", tmp_path / "b.traj"
    run("synth", "orbit", 4, a, "--width", 64, "--height", 48)
    run("synth", "orbit", 6, b, "--width", 64, "--height", 48)
    assert run("metrics", a, b) == 2


def test_metrics_names_a_frame_the_decoder_dropped(tmp_path, capsys):
    gt, grids, decoded = tmp_path / "gt.traj", tmp_path / "grids", tmp_path / "d.traj"
    run("synth", "orbit", 9, gt, "--reverse", "--width", 64, "--height", 48)
    run("encode", gt, grids)
    path = str(grids / "frame_3.rxl")
    image, index = load_raxel(path)
    data = image.data.copy()
    data[4, 4, 0] = np.nan
    save_raxel(path, RayGrid(data), index)
    assert run("decode", grids, decoded) == 0
    capsys.readouterr()
    assert run("metrics", decoded, gt) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing [3]" in err


def test_metrics_refuses_a_one_frame_trajectory_naming_the_file(tmp_path, capsys):
    traj = tmp_path / "one.traj"
    run("synth", "orbit", 1, traj, "--width", 64, "--height", 48)
    capsys.readouterr()
    assert run("metrics", traj, traj) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {traj} has 1 frame; mRRA needs at least 2 frames\n"


def test_metrics_rejects_frames_in_another_order(tmp_path, capsys):
    traj, shuffled = tmp_path / "t.traj", tmp_path / "s.traj"
    run("synth", "orbit", 4, traj, "--width", 64, "--height", 48)
    t = load_trajectory(str(traj))
    save_trajectory(str(shuffled), Trajectory(t.frames[::-1], len(t) - 1 - t.reference_index))
    capsys.readouterr()
    assert run("metrics", traj, shuffled) == 2
    assert "another order" in capsys.readouterr().err


def test_metrics_detects_rotation_gap(tmp_path, capsys):
    fwd, rev = tmp_path / "f.traj", tmp_path / "r.traj"
    run("synth", "arcleft", 5, fwd)
    run("synth", "arcright", 5, rev)
    capsys.readouterr()
    assert run("metrics", fwd, rev) == 0
    out = capsys.readouterr().out
    mean_rot = float(out.split("mean_rot_err=")[1].splitlines()[0])
    assert mean_rot > 0.1


# ------------------------------------------------------------------ bench


BENCH_ARGS = (
    "--kinds", "orbit", "--magnitudes", 0.001, 0.01, "--seeds", 2,
    "--frames", 5, "--width", 64, "--height", 48,
)


def test_bench_grid_and_resumability(tmp_path):
    csv = tmp_path / "b.csv"
    assert run("bench", "--out", csv, *BENCH_ARGS) == 0
    first = _read(csv)
    lines = first.decode().splitlines()
    assert len(lines) == 1 + 2 * 2  # header + magnitudes x seeds
    assert lines[0].startswith("kind,frames,magnitude,seed,")
    # a second run finds every cell present and rewrites the same bytes
    assert run("bench", "--out", csv, *BENCH_ARGS) == 0
    assert _read(csv) == first


def test_bench_fills_only_missing_cells(tmp_path):
    csv = tmp_path / "b.csv"
    run("bench", "--out", csv, *BENCH_ARGS)
    lines = csv.read_text().splitlines()
    removed = lines[2]
    csv.write_text("\n".join([lines[0], lines[1], lines[3], lines[4]]) + "\n")
    run("bench", "--out", csv, *BENCH_ARGS)
    refilled = csv.read_text().splitlines()
    assert sorted(refilled[1:]) == sorted(lines[1:])
    assert removed in refilled


def test_bench_zero_seeds_rewrites_only_an_existing_file(tmp_path, capsys):
    csv = tmp_path / "b.csv"
    zero = ("bench", "--out", csv, *BENCH_ARGS, "--seeds", 0)
    assert run(*zero) == 2
    assert capsys.readouterr().err == (
        f"error: --seeds 0 computes no cell and {csv} does not exist yet\n"
    )
    assert not csv.exists()
    run("bench", "--out", csv, *BENCH_ARGS)
    first = _read(csv)
    assert run(*zero) == 0
    assert _read(csv) == first


@pytest.mark.parametrize("command", ["bench", "roundtrip"])
def test_one_frame_cycle_is_refused_before_any_work(tmp_path, capsys, monkeypatch, command):
    traj, csv = tmp_path / "t.traj", tmp_path / "b.csv"
    run("synth", "orbit", 1, traj, "--width", 64, "--height", 48)
    decodes = []
    monkeypatch.setattr(evaluation, "decode_trajectory", lambda *args: decodes.append(args))
    capsys.readouterr()
    if command == "bench":
        argv = ("bench", "--out", csv, *BENCH_ARGS, "--frames", 1)
        message = "error: --frames 1 is under 2, the fewest a cycle can score\n"
    else:
        argv = ("roundtrip", traj, "--csv", csv)
        message = "error: cycle consistency needs at least 2 frames, got 1\n"
    assert run(*argv) == 2
    assert capsys.readouterr().err == message
    assert not csv.exists() and decodes == []


def test_bench_keeps_the_cells_before_a_failed_one(tmp_path, monkeypatch):
    csv, whole = tmp_path / "b.csv", tmp_path / "whole.csv"
    cell = ("--kinds", "orbit", "--seeds", 1, "--frames", 5, "--width", 64, "--height", 48)
    # a sigma of 1e200 overflows the registration of the second cell
    assert run("bench", "--out", csv, "--magnitudes", 0.01, 1e200, *cell) == 2
    lines = csv.read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("orbit,5,0.01,0,")
    computed = []
    real = cli.cycle_consistency_run
    monkeypatch.setattr(cli, "cycle_consistency_run",
                        lambda t, spec: computed.append(spec.magnitude) or real(t, spec))
    assert run("bench", "--out", csv, "--magnitudes", 0.01, 0.05, *cell) == 0
    assert computed == [0.05]
    assert run("bench", "--out", whole, "--magnitudes", 0.01, 0.05, *cell) == 0
    assert _read(csv) == _read(whole)


@pytest.mark.parametrize("noise, magnitudes, message", [
    ("gaussian", (0.01, -1), "noise sigma must be >= 0, got -1.0"),
    ("quantize", (8, 3.5), "bit depth must be an integer in [1, 16], got 3.5"),
])
@pytest.mark.parametrize("seeds", [2, 0])
def test_bench_refuses_a_bad_magnitude_before_the_first_cell(tmp_path, capsys, monkeypatch,
                                                            noise, magnitudes, message, seeds):
    # a bad magnitude late in --magnitudes used to be refused only after the
    # cells before it ran and were written, and never under --seeds 0
    csv = tmp_path / "b.csv"
    if seeds == 0:
        run("bench", "--out", csv, *BENCH_ARGS, "--noise-kind", noise, "--magnitudes", 8)
    before = csv.read_bytes() if csv.exists() else None
    cells = []
    monkeypatch.setattr(cli, "cycle_consistency_run", lambda *args: cells.append(args))
    capsys.readouterr()
    assert run("bench", "--out", csv, *BENCH_ARGS, "--seeds", seeds,
               "--noise-kind", noise, "--magnitudes", *magnitudes) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert cells == []
    assert (csv.read_bytes() if csv.exists() else None) == before


def test_bench_names_a_resumed_row_whose_magnitude_is_not_a_number(tmp_path, capsys):
    csv = tmp_path / "b.csv"
    run("bench", "--out", csv, *BENCH_ARGS)
    lines = csv.read_text().splitlines()
    bad = lines[1].replace("orbit,5,0.001,", "orbit,5,abc,")
    csv.write_text("\n".join([lines[0], bad, *lines[2:]]) + "\n")
    before = csv.read_bytes()
    capsys.readouterr()
    assert run("bench", "--out", csv, *BENCH_ARGS) == 2
    assert capsys.readouterr().err == f"error: malformed CSV row: {bad!r}\n"
    assert csv.read_bytes() == before


@pytest.mark.parametrize("interrupted_call", [1, 2])
def test_bench_keeps_the_cells_before_an_interrupt(tmp_path, monkeypatch, interrupted_call):
    csv = tmp_path / "b.csv"
    calls = []
    real = cli.cycle_consistency_run

    def interrupt(t, spec):
        calls.append(spec)
        if len(calls) == interrupted_call:
            raise KeyboardInterrupt
        return real(t, spec)

    monkeypatch.setattr(cli, "cycle_consistency_run", interrupt)
    with pytest.raises(KeyboardInterrupt):
        run("bench", "--out", csv, *BENCH_ARGS)
    if interrupted_call == 1:
        assert not csv.exists()  # no cell computed, no file written
    else:
        lines = csv.read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("orbit,5,0.001,0,")


def _threads_at_each_read(monkeypatch, interrupted_read=None):
    """Patch every clean-grid read of the cycle to record the threads alive
    beyond the current ones, and to raise KeyboardInterrupt at read number
    ``interrupted_read``; returns the list of recorded thread sets."""
    before = set(threading.enumerate())
    seen = []
    read = rays.encode_raxel

    def recording(frame, pose_rel):
        seen.append(set(threading.enumerate()) - before)
        if len(seen) == interrupted_read:
            raise KeyboardInterrupt
        return read(frame, pose_rel)

    monkeypatch.setattr(rays, "encode_raxel", recording)
    return seen


@pytest.mark.parametrize("magnitude, code", [("0.01", 0), ("1e200", 2)])
def test_no_thread_outlives_a_cycle(tmp_path, monkeypatch, magnitude, code):
    traj = tmp_path / "t.traj"
    run("synth", "orbit", 5, traj, "--width", 64, "--height", 48)
    before = set(threading.enumerate())
    seen = _threads_at_each_read(monkeypatch)
    assert run("roundtrip", traj, "--magnitude", magnitude) == code
    # the noise worker ran beside the decode's five reads (a failure adds reads after it)
    assert len(seen) >= 5 and all(seen[1:5])
    assert set(threading.enumerate()) == before


def test_interrupted_read_leaves_no_thread_and_bench_keeps_its_rows(tmp_path, monkeypatch):
    csv, first = tmp_path / "b.csv", tmp_path / "first.csv"
    cell = ("--kinds", "orbit", "--seeds", 1, "--frames", 5, "--width", 64, "--height", 48)
    assert run("bench", "--out", first, "--magnitudes", 0.01, *cell) == 0
    before = set(threading.enumerate())
    # read 8 is the second cell's third frame, read while the worker draws its noise
    seen = _threads_at_each_read(monkeypatch, interrupted_read=8)
    with pytest.raises(KeyboardInterrupt):
        run("bench", "--out", csv, "--magnitudes", 0.01, 0.05, *cell)
    assert len(seen) == 8 and seen[7]
    assert set(threading.enumerate()) == before
    assert _read(csv) == _read(first)


def test_bench_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at 832x480 the per-pixel products are large enough for BLAS to split
    # across threads if a single call covered a whole grid
    outputs = []
    for threads in (None, "1"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"threads-{threads}.csv"
        subprocess.run(
            [sys.executable, "-m", "raxelkit", "bench", "--out", str(out), "--kinds", "orbit",
             "--magnitudes", "0.01", "--seeds", "2", "--frames", "5"],
            env=env, check=True, timeout=300,
        )
        outputs.append(_read(out))
    assert outputs[0] == outputs[1]


def test_bench_cell_matches_roundtrip(tmp_path, capsys):
    csv = tmp_path / "b.csv"
    run(
        "bench", "--out", csv, "--kinds", "orbit", "--magnitudes", 0.01,
        "--seeds", 1, "--frames", 5, "--width", 64, "--height", 48,
    )
    row = csv.read_text().splitlines()[1].split(",")

    traj = tmp_path / "orbit.traj"
    run("synth", "orbit", 5, traj, "--width", 64, "--height", 48)
    rt_csv = tmp_path / "rt.csv"
    run("roundtrip", traj, "--magnitude", 0.01, "--csv", rt_csv)
    rt_row = rt_csv.read_text().splitlines()[1].split(",")
    # identical trajectory, identical perturbation: identical metric bytes;
    # roundtrip knows the noise kind and image size, not the fov or radius
    assert row[4:11] == rt_row[4:11]
    assert rt_row[11:] == ["", ""]


@pytest.mark.parametrize("changed, setting", [
    (("--noise-kind", "dropout"), "noise_kind"),
    (("--width", 96, "--height", 64), "width"),
    (("--fov", 50), "fov"),
    (("--radius", 2.5), "radius"),
])
def test_bench_refuses_resume_with_other_settings(tmp_path, capsys, changed, setting):
    csv = tmp_path / "b.csv"
    cell = ("--kinds", "orbit", "--magnitudes", 0.01, "--seeds", 1,
            "--frames", 5, "--width", 64, "--height", 48)
    assert run("bench", "--out", csv, *cell) == 0
    first = _read(csv)
    assert first.decode().splitlines()[1].endswith(",gaussian,64,48,60,2")
    capsys.readouterr()
    assert run("bench", "--out", csv, *cell, *changed) == 2
    assert f"with {setting} " in capsys.readouterr().err
    assert _read(csv) == first


def test_roundtrip_fills_the_settings_it_knows(tmp_path):
    traj = tmp_path / "t.traj"
    run("synth", "orbit", 5, traj, "--width", 64, "--height", 48)
    csv = tmp_path / "r.csv"
    assert run("roundtrip", traj, "--noise-kind", "dropout", "--magnitude", 0.1,
               "--csv", csv) == 0
    assert csv.read_text().splitlines()[1].endswith(",dropout,64,48,,")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("magnitude, cause", [
    ("1e200", "overflows"),
    ("1e308", "produced non-finite pixels"),
])
def test_roundtrip_huge_sigma_names_the_perturbation(tmp_path, capsys, magnitude, cause):
    traj = tmp_path / "t.traj"
    run("synth", "orbit", 5, traj, "--width", 64, "--height", 48)
    capsys.readouterr()
    assert run("roundtrip", traj, "--magnitude", magnitude) == 2
    err = capsys.readouterr().err
    assert "gaussian perturbation" in err and cause in err


@pytest.mark.filterwarnings("error")
def test_roundtrip_overflowing_trajectory_does_not_blame_the_perturbation(tmp_path, capsys):
    # the clean grids overflow registration, whatever the noise
    traj = tmp_path / "t.traj"
    run("synth", "orbit", 5, traj, "--width", 64, "--height", 48, "--radius", "1e300")
    capsys.readouterr()
    assert run("roundtrip", traj) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: frame 1 failed to decode: the trajectory's coordinates")
    assert "perturbation" not in err and "overflows" in err


@pytest.mark.parametrize("noise, magnitude, frame, code", [
    ("gaussian", "1e200", 11, 2),
    ("dropout", "0.99", 10, 4),
])
def test_roundtrip_names_a_failed_frame_by_its_index(tmp_path, capsys, noise, magnitude, frame,
                                                    code):
    traj = tmp_path / "t.traj"
    run("synth", "orbit", 5, traj, "--width", 64, "--height", 48)
    t = load_trajectory(str(traj))
    renumbered = tuple(replace(f, index=f.index + 10) for f in t.frames)
    save_trajectory(str(traj), Trajectory(renumbered, t.reference_index))
    capsys.readouterr()
    assert run("roundtrip", traj, "--noise-kind", noise, "--magnitude", magnitude) == code
    assert f"error: frame {frame} failed to decode" in capsys.readouterr().err


def test_bench_rejects_foreign_csv(tmp_path):
    csv = tmp_path / "b.csv"
    csv.write_text("time,user\n1,2\n")
    assert run("bench", "--out", csv, *BENCH_ARGS) == 2


def test_roundtrip_rejects_foreign_csv(tmp_path):
    traj = tmp_path / "t.traj"
    run("synth", "orbit", 5, traj, "--width", 64, "--height", 48)
    csv = tmp_path / "r.csv"
    csv.write_text("time,user\n1,2\n")
    assert run("roundtrip", traj, "--csv", csv) == 2
    assert _read(csv) == b"time,user\n1,2\n"


# ------------------------------------------------------------------ misc


def _raised_from(cause):
    try:
        raise RaxelkitError("frame 3 failed to decode") from cause
    except RaxelkitError as err:
        return err


def _error_id(param):
    if not isinstance(param, Exception):
        return str(param)
    cause = f"_from_{type(param.__cause__).__name__}" if param.__cause__ else ""
    return type(param).__name__ + cause


@pytest.mark.parametrize(
    "error, code",
    [
        (DegenerateGeometryError("flat"), 4),
        (InsufficientInliersError("few"), 4),
        (_raised_from(DegenerateGeometryError("flat")), 4),
        (_raised_from(InsufficientInliersError("few")), 4),
        (_raised_from(NonFiniteInputError("nan")), 2),
        (TrajectoryParseError("bad", 3), 2),
        (NonFiniteInputError("nan"), 2),
        (ValueError("bad"), 2),
        (IndexError("bad"), 2),
        (OSError("disk"), 3),
    ],
    ids=_error_id,
)
def test_exit_code_per_exception_class(tmp_path, monkeypatch, capsys, error, code):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_metrics", fail)
    assert run("metrics", tmp_path / "a.traj", tmp_path / "b.traj") == code
    assert capsys.readouterr().err.startswith("error: ")


_SMALL_BENCH = ("bench", "--out", "{out}", "--kinds", "orbit", "--magnitudes", 0.01,
                "--seeds", 1, "--frames", 5, "--width", 64, "--height", 48)


@pytest.mark.parametrize("argv", [
    *[("synth", "orbit", 5, "{out}", "--fov", fov) for fov in ("0", "nan", "inf", "180")],
    *[(*_SMALL_BENCH, "--fov", fov) for fov in ("0", "nan", "inf", "180")],
    ("encode", "{far}", "{out}"),
    ("roundtrip", "{traj}", "--magnitude", "inf"),
    ("roundtrip", "{traj}", "--magnitude", "nan"),
    ("synth", "orbit", 5, "{out}", "--width", -4),
    (*_SMALL_BENCH, "--width", -4),
    ("synth", "orbit", 5, "{out}", "--radius", "nan"),
    (*_SMALL_BENCH, "--radius", "nan"),
    ("synth", "orbit", 5, "{out}", "--radius", "inf"),
    (*_SMALL_BENCH, "--radius", "inf"),
    (*_SMALL_BENCH, "--seeds", -3),
    (*_SMALL_BENCH, "--seeds", 0),
], ids=lambda argv: f"{argv[0]} {argv[-2]} {argv[-1]}")
def test_hostile_arguments_exit_with_a_documented_code(tmp_path, capsys, argv):
    # every failure leaves main through its exit-code table, never as a traceback
    traj, far = tmp_path / "t.traj", tmp_path / "far.traj"
    run("synth", "orbit", 5, traj, "--width", 64, "--height", 48)
    frames = load_trajectory(str(traj)).frames
    # a frame index the grid file's uint32 header field cannot hold
    save_trajectory(str(far), Trajectory((frames[0], replace(frames[1], index=2**32)), 0))
    capsys.readouterr()
    argv = [str(a).format(traj=traj, far=far, out=tmp_path / "out") for a in argv]
    assert main(argv) in (2, 3, 4)
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["synth", "bench"])
@pytest.mark.parametrize("fov", ["0", "nan", "inf", "180"])
def test_fov_outside_0_to_180_is_refused_before_any_work(tmp_path, capsys, command, fov):
    out = tmp_path / "out"
    argv = ("synth", "orbit", 5, out) if command == "synth" else _SMALL_BENCH
    assert run(*[str(a).format(out=out) for a in argv], "--fov", fov) == 2
    assert capsys.readouterr().err == (
        f"error: field of view {fov} is not strictly between 0 and 180 degrees\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "bench"])
@pytest.mark.parametrize("radius", ["inf", "nan"])
def test_non_finite_radius_is_refused_before_the_path_is_built(tmp_path, capsys, command,
                                                               radius):
    # inf times the zero of a circle's y axis would warn; warnings are errors here
    out = tmp_path / "out"
    argv = ("synth", "orbit", 5, out) if command == "synth" else _SMALL_BENCH
    assert run(*[str(a).format(out=out) for a in argv], "--radius", radius) == 2
    assert capsys.readouterr().err == f"error: radius or path length {radius} is not finite\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "bench", "decode"])
@pytest.mark.parametrize("flag, value, size", [
    ("--width", -4, "-4x48"), ("--width", 0, "0x48"), ("--height", -4, "64x-4"),
])
def test_non_positive_image_size_is_named(tmp_path, capsys, command, flag, value, size):
    out, traj, grids = tmp_path / "out", tmp_path / "t.traj", tmp_path / "g"
    argv = {
        "synth": ("synth", "orbit", 5, out, "--width", 64, "--height", 48),
        "bench": _SMALL_BENCH,
        # a 64x48 encode: the size not given is read from the grid
        "decode": ("decode", grids, out),
    }[command]
    if command == "decode":
        run("synth", "orbit", 5, traj, "--width", 64, "--height", 48)
        run("encode", traj, grids)
        capsys.readouterr()
    assert run(*[str(a).format(out=out) for a in argv], flag, value) == 2
    assert capsys.readouterr().err == f"error: image size {size} is not positive\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "bench", "decode", "encode", "roundtrip"])
def test_one_pixel_image_side_is_refused(tmp_path, capsys, command):
    # a 1-pixel side halves to an empty raxel grid
    out, traj = tmp_path / "out", tmp_path / "t.traj"
    if command in ("encode", "roundtrip"):
        intr = Intrinsics(fx=50.0, fy=50.0, cx=0.5, cy=24.0, width=1, height=48)
        save_trajectory(str(traj), generate_trajectory(TrajectoryKind.ORBIT, 5, intr))
    if command == "decode":
        _synth_encode(tmp_path)
        capsys.readouterr()
    argv = {
        "synth": ("synth", "orbit", 5, out, "--width", 1, "--height", 48),
        "bench": (*_SMALL_BENCH, "--width", 1),
        "decode": ("decode", tmp_path / "grids", out, "--width", 1),
        "encode": ("encode", traj, out),
        "roundtrip": ("roundtrip", traj, "--csv", out),
    }[command]
    assert run(*[str(a).format(out=out) for a in argv]) == 2
    assert capsys.readouterr().err == (
        "error: image size 1x48 has a side under 2 pixels, "
        "which leaves its half-resolution grid empty\n"
    )
    assert not out.exists()


def test_detection_skips_a_candidate_whose_focal_vote_overflows_its_rays(tmp_path, capsys):
    # found by the CLI fuzz: a 1e300 pixel in a 2x2 grid votes a focal of
    # about 1e-300, whose identity ray grid overflowed with a numpy warning
    traj, grids = tmp_path / "t.traj", tmp_path / "g"
    run("synth", "arcright", 3, traj, "--width", 4, "--height", 4, "--radius", 0)
    run("encode", traj, grids)
    grid, index = load_raxel(str(grids / "frame_1.rxl"))
    data = grid.data.copy()
    data[-1, -1, 0] = 1e300
    save_raxel(str(grids / "frame_1.rxl"), RayGrid(data), index)
    capsys.readouterr()
    # the other two candidates are degenerate: every camera sits at the origin
    assert run("decode", grids, tmp_path / "p.traj") == 4
    assert capsys.readouterr().err.startswith("error: no frame can be the reference; ")


def test_width_too_large_for_a_float_is_a_usage_error(tmp_path, capsys):
    # the focal divides the width as a float; the OverflowError used to escape main
    out = tmp_path / "t.traj"
    assert run("synth", "orbit", 3, out, "--width", 10**400) == 2
    assert capsys.readouterr().err == "error: int too large to convert to float\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["encode", "roundtrip"])
def test_image_too_large_to_allocate_is_a_usage_error(tmp_path, capsys, command):
    # a 1000000x1000000 grid is refused by the allocator at once, with a
    # MemoryError that used to escape main; encode made its directory first
    traj, out = tmp_path / "t.traj", tmp_path / "out"
    assert run("synth", "orbit", 3, traj, "--width", 2000000, "--height", 2000000) == 0
    capsys.readouterr()
    argv = ("encode", traj, out) if command == "encode" else ("roundtrip", traj, "--csv", out)
    assert run(*argv) == 2
    assert capsys.readouterr().err.startswith("error: Unable to allocate ")
    assert not out.exists()


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 2


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "raxelkit", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "raxelkit" in result.stdout
    for name in ("encode", "decode", "roundtrip", "metrics", "synth", "bench"):
        assert name in result.stdout


def test_console_script_pipeline(tmp_path):
    traj = tmp_path / "t.traj"
    result = subprocess.run(
        [sys.executable, "-m", "raxelkit", "synth", "orbit", "5", str(traj),
         "--width", "64", "--height", "48"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0 and result.stdout == ""
    result = subprocess.run(
        [sys.executable, "-m", "raxelkit", "roundtrip", str(traj)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "mrra30=1.000000" in result.stdout
