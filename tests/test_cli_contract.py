"""The command-line contract under hostile input, fuzzed.

Each example runs synth, bench, roundtrip, encode, decode and metrics
in-process through ``cli.main``, with warnings as errors, on drawn inputs:
a trajectory kind, 1-4 frames, 1-7 pixel image sides, edge values of the
field of view and the radius, each noise kind at edge magnitudes, an
optional ``--reference``, and one damaged grid (a NaN, +-inf or 1e300
pixel, or all zeros). Every command must return 0, 2, 3 or 4 without an
exception escaping ``main``, print ``error:`` when it fails, and leave no
file it created when it fails; ``bench`` is excepted from the last rule,
since it keeps the rows it computed before a failing cell.

A failing example replays from its seed (``derandomize=True``); each defect
it finds gets its own named regression test in ``test_cli.py``.
"""

import contextlib
import io
import os
import tempfile
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from raxelkit import io as rkio
from raxelkit.cli import main
from raxelkit.evaluation import PerturbationKind, TrajectoryKind
from raxelkit.rays import RayGrid

CONTRACT_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
EXIT_CODES = (0, 2, 3, 4)


@st.composite
def hostile_runs(draw):
    return {
        "kind": draw(st.sampled_from(sorted(kind.value for kind in TrajectoryKind))),
        "frames": draw(st.integers(1, 4)),
        "width": draw(st.integers(1, 7)),
        "height": draw(st.integers(1, 7)),
        "fov": draw(st.sampled_from(["60", "0", "1e-9", "179.999", "180", "nan"])),
        "radius": draw(st.sampled_from(["2", "0", "-1", "1e-300", "1e300", "inf"])),
        "noise": draw(st.sampled_from(sorted(kind.value for kind in PerturbationKind))),
        "magnitude": draw(st.sampled_from(["0", "1e-3", "0.99", "16", "1e200", "-1", "nan"])),
        "reference": draw(st.none() | st.integers(-1, 4)),
        "damage": draw(st.sampled_from([None, "nan", "inf", "-inf", "1e300", "zeros"])),
        "damaged_frame": draw(st.integers(0, 3)),
    }


def _files(root):
    return {os.path.join(d, name) for d, dirs, names in os.walk(root) for name in dirs + names}


def _damage(grids, frame, damage):
    """Rewrite one grid file of ``grids`` with ``damage``."""
    names = sorted(os.listdir(grids))
    path = os.path.join(grids, names[frame % len(names)])
    grid, index = rkio.load_raxel(path)
    data = np.zeros_like(grid.data) if damage == "zeros" else grid.data.copy()
    if damage != "zeros":
        data[-1, -1, 0] = float(damage)
    rkio.save_raxel(path, RayGrid(data), index)


def _check_contract(root, argv, keeps_files=False):
    """Run one command; check its exit code, its error line and the files it left."""
    before = _files(root)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # an exception escaping main fails the example
    assert code in EXIT_CODES, (argv, code)
    if code != 0:
        assert "error: " in err.getvalue(), (argv, code, err.getvalue())
        if not keeps_files:
            assert _files(root) <= before, (argv, sorted(_files(root) - before))
    return code


@CONTRACT_SETTINGS
@given(hostile_runs())
def test_every_command_keeps_the_cli_contract(run):
    size = ["--width", str(run["width"]), "--height", str(run["height"])]
    shape = [f"--fov={run['fov']}", f"--radius={run['radius']}"]
    noise = [f"--noise-kind={run['noise']}"]
    with warnings.catch_warnings(), tempfile.TemporaryDirectory() as root:
        warnings.simplefilter("error")
        traj, grids, pred = (os.path.join(root, name) for name in ("t.traj", "grids", "p.traj"))
        _check_contract(root, ["synth", run["kind"], str(run["frames"]), traj, *size, *shape])
        _check_contract(root, ["bench", "--out", os.path.join(root, "b.csv"),
                               "--kinds", run["kind"], f"--magnitudes={run['magnitude']}",
                               "--seeds", "1", "--frames", str(run["frames"]),
                               *size, *shape, *noise], keeps_files=True)
        _check_contract(root, ["roundtrip", traj, *noise, f"--magnitude={run['magnitude']}",
                               "--csv", os.path.join(root, "r.csv")])
        encoded = _check_contract(root, ["encode", traj, grids]) == 0
        if encoded and run["damage"] is not None:
            _damage(grids, run["damaged_frame"], run["damage"])
        reference = [] if run["reference"] is None else [f"--reference={run['reference']}"]
        _check_contract(root, ["decode", grids, pred, *reference])
        _check_contract(root, ["metrics", pred, traj])
