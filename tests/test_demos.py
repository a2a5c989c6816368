"""Every script in demos/ runs to completion and prints; the Plucker demo
slides its origins along the pixel rays; the attention demo's held video
stream is computed once per run and matches a fresh one; README's library
quick start runs and recovers the trajectory as its comments state."""

import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from raxelkit import attention

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_representations_slides_origins_along_the_pixel_rays(capsys):
    ns = runpy.run_path(str(ROOT / "demos" / "representations.py"))
    capsys.readouterr()
    offsets = ns["origins"] - ns["pose"].translation
    assert np.abs(np.cross(offsets, ns["d"])).max() < 1e-12


def test_attention_block_holds_the_video_stream(capsys, monkeypatch):
    # the demo counts by rebinding these names; put them back afterwards
    for name in ("self_attention", "_queries", "_keys_values"):
        monkeypatch.setattr(attention, name, getattr(attention, name))
    ns = runpy.run_path(str(ROOT / "demos" / "attention_block.py"))
    capsys.readouterr()
    assert np.array_equal(ns["held"], ns["fresh"])
    # video_out is discarded unread: its stage 2 never runs
    assert ns["fresh_ran"] == {"stage 1": 8, "stage 2": 8}
    assert ns["held_ran"] == {"stage 1": 1, "stage 2": 1}
    assert ns["fresh_read_ran"] == {"stage 1": 8, "stage 2": 16}
    # reading video_out projects the held video's queries at every step
    assert ns["held_read_ran"] == {"stage 1": 1, "stage 2": 9}


def test_readme_library_quick_start_runs_as_documented(capsys):
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    ns = {}
    exec(compile(code, "README.md", "exec"), ns)
    assert capsys.readouterr().out.strip()
    frame, truth = ns["frame"], ns["gt"].frames[5]
    assert np.abs(frame.pose.rotation - truth.pose.rotation).max() < 1e-12
    assert np.abs(frame.pose.translation - truth.pose.translation).max() < 1e-12
    assert abs(frame.fx_hat / 700.0 - 1.0) < 1e-13
    assert abs(frame.fy_hat / 680.0 - 1.0) < 1e-13
