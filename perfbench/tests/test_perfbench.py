"""Tests of the benchmark itself: span arithmetic, binding restoration, the
metric catalogue, and every workload at a tiny size with its checks.

    python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from metrics import END_TO_END, LAYERS, PER_LAYER  # noqa: E402
from spans import Tracer, find_bindings, self_times, summarize  # noqa: E402

rk = run.import_raxelkit(ROOT)
MODULES = [getattr(rk, layer) for layer in LAYERS]

TINY_SWEEP = wl.SweepConfig(width=64, height=48, frames=5, kinds=("orbit", "line"),
                            sigmas=(0.001, 0.01))
TINY_FILES = wl.FilesConfig(width=64, height=48, frames=9)
TINY_GENERATE = wl.GenerateConfig(width=64, height=48, frames=5, patches=2,
                                  d_model=12, heads=2, steps=3)


def tiny(name, tmp_path, seed=7):
    cls, cfg = {
        "sweep": (wl.Sweep, TINY_SWEEP),
        "files": (wl.Files, TINY_FILES),
        "generate": (wl.Generate, TINY_GENERATE),
    }[name]
    tmp_path.mkdir(parents=True, exist_ok=True)
    workload = cls(rk, seed, str(tmp_path), cfg)
    workload.setup()
    return workload


def all_bindings():
    return {(m.__name__, attr): obj for m in [rk, *MODULES] for attr, obj in vars(m).items()}


# ------------------------------------------------------------ span arithmetic

def test_self_time_of_nested_tree():
    spans = [
        ["root", "t", 0.0, 10.0, -1],
        ["a", "t", 1.0, 4.0, 0],
        ["c", "t", 2.0, 3.0, 1],
        ["b", "t", 5.0, 8.0, 0],
        ["b", "t", 8.5, 9.0, 0],
    ]
    assert self_times(spans) == pytest.approx([3.5, 2.0, 1.0, 3.0, 0.5])
    assert sum(self_times(spans)) == pytest.approx(10.0)
    stats = summarize(spans)
    assert stats["b"].calls == 2
    assert stats["b"].total_s == pytest.approx(3.5)
    assert stats["a"].total_s == pytest.approx(3.0)
    assert stats["a"].self_s == pytest.approx(2.0)


def test_self_time_counts_overlapping_or_overhanging_children_once():
    spans = [
        ["root", "t", 0.0, 10.0, -1],
        ["a", "t", 1.0, 4.0, 0],
        ["b", "t", 3.0, 6.0, 0],    # overlaps a
        ["d", "t", 9.0, 12.0, 0],   # runs past its parent's end
    ]
    # covered: [1, 6] and [9, 10]
    assert self_times(spans)[0] == pytest.approx(4.0)


# ------------------------------------------------------------------- tracer

def test_bindings_cover_every_module_binding_of_a_function():
    vias = {b.via for b in find_bindings(rk, MODULES) if b.attr == "register"}
    assert {"raxelkit", "registration", "decode", "cli"} <= vias
    names = {b.attr for b in find_bindings(rk, MODULES)}
    assert "Pose" not in names and "ray_grid" in names


def test_tracer_records_nested_spans_and_restores_bindings(tmp_path):
    before = all_bindings()
    tracer = Tracer(rk, MODULES)
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            assert rk.decode.register is not before[("raxelkit.decode", "register")]
            wl.run_cli(rk, "synth", "orbit", 5, tmp_path / "t.traj",
                       "--width", 64, "--height", 48)
            raise ZeroDivisionError
    after = all_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0][4] == -1
    synth = names.index("cli.cmd_synth")
    assert tracer.spans[synth][4] == 0
    assert "evaluation.generate_trajectory" in names


def test_traced_rounds_restore_bindings_and_report_every_per_layer_metric(tmp_path):
    before = all_bindings()
    workload = tiny("files", tmp_path)
    metrics, failures, attempted, failed = run.trace_rounds(rk, workload, 0.0)
    after = all_bindings()
    assert all(after[k] is before[k] for k in before)
    assert failures == [] and failed == 0 and attempted == 2 * workload.round_size
    assert set(metrics) == {name for name, _, _, _ in PER_LAYER}
    assert metrics["cli.reference_scoring.candidates"] == TINY_FILES.frames
    assert 1.0 < metrics["registration.register.calls_per_frame"] <= 2.0
    assert metrics["io.bytes_written"] > 0 and metrics["io.bytes_read"] > 0


def test_benchmark_json_lists_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (n, u, b) for n, u, b, _ in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (n, u, b) for n, u, b, _ in PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


# ---------------------------------------------------------------- workloads

@pytest.mark.parametrize("name", ["sweep", "files", "generate"])
def test_workload_runs_tiny_with_checks_passing(name, tmp_path):
    workload = tiny(name, tmp_path)
    workload.start_pass("test")
    times, _, failures, ops = run.run_pass(workload, workload.round_size + 1)
    failures += workload.finish()
    assert failures == []
    assert ops == len(times) == workload.round_size + 1
    work, samples = workload.work(times)
    assert work >= len(times) and samples


def test_sweep_measure_reports_end_to_end_metrics(tmp_path):
    workload = tiny("sweep", tmp_path)
    human, failures, attempted, failed = run.measure(workload, 0.0)
    assert failures == [] and (attempted, failed) == (1, 0)
    assert human["throughput_per_s"][0] > 0 and human["rot_err_p50_rad"][0] > 0


def test_files_check_catches_a_wrong_reference(tmp_path, monkeypatch):
    workload = tiny("files", tmp_path)
    # the frame next to the true reference decodes cleanly, so only the
    # reference check can notice the wrong pick
    at = next(i for i, spec in enumerate(workload.specs) if spec[:2] == ("arcleft", False))
    monkeypatch.setattr(rk.cli, "_detect_reference", lambda images, w, h: 1)
    workload.start_pass("test")
    workload.op(at)
    with pytest.raises(wl.CheckFailed, match="reference"):
        workload.check(at)


def test_generate_check_catches_a_moved_frozen_slot(tmp_path):
    workload = tiny("generate", tmp_path)
    workload.start_pass("test")
    workload.op(0)
    x_init, x_out, report, grad = workload.pending
    x_out = x_out.copy()
    x_out[0] += 1e-12
    workload.pending = (x_init, x_out, report, grad)
    with pytest.raises(wl.CheckFailed, match="frozen"):
        workload.check(0)


def test_inputs_follow_the_seed(tmp_path):
    a = tiny("files", tmp_path / "a", seed=1)
    b = tiny("files", tmp_path / "b", seed=1)
    c = tiny("files", tmp_path / "c", seed=2)
    assert a.specs == b.specs != c.specs


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
