"""The three workloads: sweep, files and generate.

Each workload is one closed-loop caller in one process: it issues its next
operation only when the previous one has returned. Inputs come from the
benchmark seed alone. A workload exposes

* ``setup()``: make inputs from the seed and warm up (timed, repeated);
* ``start_pass(label)``: fresh output state for one measured pass;
* ``op(i)``: operation ``i`` (timed); ``check(i)``: verify it (untimed);
* ``finish()``: end-of-pass checks, returning a list of failure messages;
* ``round_size``: operations in one traced round, a fixed unit of work so
  that per-layer sums compare across commits.

Why each workload exists, which layers it loads and which it bypasses is
written in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from metrics import dsca_flops

KINDS = ("arcleft", "arcright", "orbit", "line")
FILES_WARMUP_FRAMES = 9
FILES_TOLERANCE = 1e-9      # decoded vs ground-truth pose entries


class CheckFailed(Exception):
    """An output of the program under test is wrong."""


def run_cli(rk, *argv) -> str:
    """``raxelkit <argv>`` in-process; returns its stdout, raises on a
    non-zero exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rk.cli.main([str(a) for a in argv])
    if code != 0:
        raise CheckFailed(f"raxelkit {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def grid_bytes(width: int, height: int, channels: int = 3) -> int:
    return (height // 2) * (width // 2) * channels * 8


def _default_intrinsics(rk, width: int, height: int, fov_deg: float = 60.0):
    focal = (width / 2.0) / math.tan(math.radians(fov_deg) / 2.0)
    return rk.geometry.Intrinsics(
        fx=focal, fy=focal, cx=width / 2.0, cy=height / 2.0, width=width, height=height
    )


class Workload:
    name = ""
    unit = ""            # what one operation is
    work_unit = ""       # what the throughput counts
    round_size = 1
    tracer = None        # set by the runner during traced passes

    def __init__(self, rk, seed: int, workdir: str):
        self.rk, self.seed, self.workdir = rk, seed, workdir

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def check(self, i: int) -> None:
        pass

    def finish(self) -> list[str]:
        return []

    def fingerprint(self) -> bytes:
        """Digest of the pass's outputs; tracing must not change it."""
        return b""

    def work(self, op_times) -> tuple[int, list]:
        """(work units done, latency samples) of a measured pass."""
        return len(op_times), op_times


# ------------------------------------------------------------------- sweep

@dataclass(frozen=True)
class SweepConfig:
    width: int = 832
    height: int = 480
    frames: int = 21
    kinds: tuple = KINDS
    sigmas: tuple = (0.001, 0.005, 0.01, 0.05)


class Sweep(Workload):
    """``raxelkit bench`` over the default grid, one CLI call per cell into a
    shared CSV (the documented resume), then the full command once more,
    which must compute nothing and rewrite the CSV byte-identically."""

    name, unit, work_unit = "sweep", "cycle", "cycle"

    def __init__(self, rk, seed, workdir, cfg: SweepConfig = SweepConfig()):
        super().__init__(rk, seed, workdir)
        self.cfg = cfg
        self.round_size = len(cfg.kinds) * len(cfg.sigmas)
        self.grid_bytes_per_frame = grid_bytes(cfg.width, cfg.height)

    def _bench(self, path, kinds, sigmas, seeds):
        c = self.cfg
        run_cli(
            self.rk, "bench", "--out", path, "--kinds", *kinds,
            "--magnitudes", *map(repr, sigmas), "--seeds", seeds,
            "--frames", c.frames, "--width", c.width, "--height", c.height,
            "--radius", self.radius,
        )

    def setup(self):
        rng = random.Random(self.seed)
        self.radius = repr(round(rng.uniform(1.5, 2.5), 6))
        self.cells = [(k, s) for k in self.cfg.kinds for s in self.cfg.sigmas]
        rng.shuffle(self.cells)
        warm = os.path.join(self.workdir, "warmup.csv")
        kind, sigma = self.cells[0]
        self._bench(warm, [kind], [sigma], 1)
        os.remove(warm)

    def start_pass(self, label):
        self.csv = os.path.join(self.workdir, f"{label}.csv")
        if os.path.exists(self.csv):
            os.remove(self.csv)
        self.computed = []

    def op(self, i):
        kind, sigma = self.cells[i % len(self.cells)]
        noise_seed = i // len(self.cells)
        # --seeds N runs noise seeds 0..N-1; all but the newest are in the CSV
        self._bench(self.csv, [kind], [sigma], noise_seed + 1)
        self.computed.append((kind, sigma, noise_seed))

    def _rows(self):
        with open(self.csv, newline="") as fh:
            return list(csv.DictReader(fh))

    def finish(self):
        failures = []
        with open(self.csv, "rb") as fh:
            before = fh.read()
        complete_rounds = len(self.computed) // len(self.cells)
        original = self.rk.cli.cycle_consistency_run

        def refuse(*args, **kwargs):
            raise RuntimeError("the repeated full bench command recomputed a cell")

        self.rk.cli.cycle_consistency_run = refuse
        try:
            self._bench(self.csv, self.cfg.kinds, self.cfg.sigmas, complete_rounds)
        except (RuntimeError, CheckFailed) as err:
            failures.append(f"sweep: repeated full command: {err}")
        finally:
            self.rk.cli.cycle_consistency_run = original
        with open(self.csv, "rb") as fh:
            if fh.read() != before:
                failures.append("sweep: repeated full command changed the CSV bytes")

        rows = self._rows()
        keys = [(r["kind"], float(r["magnitude"]), int(r["seed"])) for r in rows]
        if len(rows) != len(self.computed) or sorted(keys) != sorted(self.computed):
            failures.append(
                f"sweep: {len(rows)} CSV rows for {len(self.computed)} cells computed"
            )
        for r in rows:
            values = [float(r[k]) for k in
                      ("mean_rot_err_rad", "mean_trans_err", "mrra30", "reencode_residual")]
            if not all(math.isfinite(v) for v in values) or not 0.0 <= values[2] <= 1.0:
                failures.append(f"sweep: bad CSV row {r}")
        return failures

    def rot_err_p50_rad(self) -> float:
        """Median over the cells of noise seed 0 of mean_rot_err_rad; a
        deterministic function of the benchmark seed."""
        errs = [float(r["mean_rot_err_rad"]) for r in self._rows() if r["seed"] == "0"]
        return statistics.median(errs) if errs else 0.0

    def fingerprint(self):
        with open(self.csv, "rb") as fh:
            return hashlib.sha256(fh.read()).digest()


# ------------------------------------------------------------------- files

@dataclass(frozen=True)
class FilesConfig:
    width: int = 416
    height: int = 240
    frames: int = 81


class Files(Workload):
    """The CLI file codec: synth, encode (raxel), encode --representation
    plucker (write-only), decode with reference auto-detection, metrics;
    all in a temporary directory removed after each trajectory."""

    name, unit, work_unit = "files", "trajectory", "frame"

    def __init__(self, rk, seed, workdir, cfg: FilesConfig = FilesConfig()):
        super().__init__(rk, seed, workdir)
        self.cfg = cfg
        self.round_size = len(KINDS)
        self.grid_bytes_per_frame = grid_bytes(cfg.width, cfg.height)

    def setup(self):
        rng = random.Random(self.seed)
        pairs = [(k, rev) for k in KINDS for rev in (False, True)]
        rng.shuffle(pairs)
        self.specs = [
            (kind, rev, repr(round(rng.uniform(1.5, 2.5), 6)),
             repr(round(rng.uniform(50.0, 70.0), 6)))
            for kind, rev in pairs
        ]
        self.start_pass("warmup")
        self._pipeline(self.specs[0], FILES_WARMUP_FRAMES)
        self.check(0)

    def start_pass(self, label):
        self.digests = []
        self.rot_errors = []

    def _pipeline(self, spec, frames):
        kind, reverse, radius, fov = spec
        d = tempfile.mkdtemp(prefix="files-", dir=self.workdir)
        self.pending = (d, spec, frames)
        gt, out = os.path.join(d, "gt.traj"), os.path.join(d, "decoded.traj")
        raxels, plucker = os.path.join(d, "raxel"), os.path.join(d, "plucker")
        c, rk = self.cfg, self.rk
        try:
            run_cli(rk, "synth", kind, frames, gt, "--width", c.width, "--height",
                    c.height, "--radius", radius, "--fov", fov,
                    *(["--reverse"] if reverse else []))
            run_cli(rk, "encode", gt, raxels)
            run_cli(rk, "encode", gt, plucker, "--representation", "plucker")
            run_cli(rk, "decode", raxels, out)
            run_cli(rk, "metrics", out, gt)
        except BaseException:
            shutil.rmtree(d, ignore_errors=True)
            raise

    def op(self, i):
        self._pipeline(self.specs[i % len(self.specs)], self.cfg.frames)

    def check(self, i):
        d, spec, frames = self.pending
        try:
            self._check(d, spec, frames)
        finally:
            shutil.rmtree(d, ignore_errors=True)

    def _check(self, d, spec, frames):
        rk, tol = self.rk, FILES_TOLERANCE
        gt = rk.io.load_trajectory(os.path.join(d, "gt.traj"))
        with open(os.path.join(d, "decoded.traj"), "rb") as fh:
            text = fh.read()
        decoded = rk.io.parse_trajectory(text.decode("ascii"))
        expected = rk.geometry.canonicalize(gt, gt.reference_index)
        if decoded.reference_index != gt.reference_index:
            raise CheckFailed(
                f"files {spec}: auto-detected reference position "
                f"{decoded.reference_index}, true {gt.reference_index}"
            )
        if [f.index for f in decoded.frames] != [f.index for f in expected.frames]:
            raise CheckFailed(f"files {spec}: decoded frame indices differ")
        rot = max(abs(a.pose.rotation - b.pose.rotation).max()
                  for a, b in zip(decoded.frames, expected.frames))
        trans = max(abs(a.pose.translation - b.pose.translation).max()
                    for a, b in zip(decoded.frames, expected.frames))
        if not (rot <= tol and trans <= tol):
            raise CheckFailed(
                f"files {spec}: decode differs from ground truth by "
                f"{rot:.3e} (rotation) / {trans:.3e} (translation) > {tol:.0e}"
            )
        plucker = os.path.join(d, "plucker")
        want = 16 + grid_bytes(self.cfg.width, self.cfg.height, 6)
        sizes = [os.path.getsize(os.path.join(plucker, n)) for n in os.listdir(plucker)]
        if len(sizes) != frames or set(sizes) != {want}:
            raise CheckFailed(f"files {spec}: plucker grids missing or mis-sized")
        self.rot_errors.append(statistics.mean(
            rk.geometry.geodesic_rotation_distance(a.pose, b.pose)
            for a, b in zip(decoded.frames, expected.frames)
        ))
        self.digests.append(hashlib.sha256(text).digest())

    def rot_err_p50_rad(self) -> float:
        return statistics.median(self.rot_errors) if self.rot_errors else 0.0

    def work(self, op_times):
        return len(op_times) * self.cfg.frames, op_times

    def fingerprint(self):
        return b"".join(self.digests)


# ---------------------------------------------------------------- generate

@dataclass(frozen=True)
class GenerateConfig:
    width: int = 832
    height: int = 480
    frames: int = 21
    patches: int = 8          # spatial patches per side
    d_model: int = 96
    heads: int = 4
    steps: int = 8


class Generate(Workload):
    """Frozen-reference Euler sampling over ray tokens; the velocity field
    is one attention.dsca_block per step. Each sample ends with flow.loss
    and flow.loss_gradient."""

    name, unit, work_unit = "generate", "sample", "step"

    def __init__(self, rk, seed, workdir, cfg: GenerateConfig = GenerateConfig()):
        super().__init__(rk, seed, workdir)
        self.cfg = cfg
        self.round_size = 2
        self.grid_bytes_per_frame = grid_bytes(cfg.width, cfg.height)

    def setup(self):
        rk, c = self.rk, self.cfg
        rng = np.random.default_rng(self.seed)
        kind = rk.evaluation.TrajectoryKind(KINDS[self.seed % len(KINDS)])
        intr = _default_intrinsics(rk, c.width, c.height)
        traj = rk.evaluation.generate_trajectory(
            kind, c.frames, intr, scale=float(rng.uniform(1.5, 2.5))
        )
        raxels = rk.rays.encode_trajectory_raxels(traj)
        slots, p = rk.flow.latent_length(c.frames), c.patches
        pooled = np.stack([
            img.data[: img.height_r // p * p, : img.width_r // p * p]
            .reshape(p, img.height_r // p, p, img.width_r // p, 3).mean(axis=(1, 3))
            for img in raxels
        ])                                               # (frames, p, p, 3)
        # slot 0 is the reference frame; slot k >= 1 holds frames 4k-3 .. 4k
        groups = [[0] * 4] + [list(range(4 * k - 3, 4 * k + 1)) for k in range(1, slots)]
        feats = np.stack([np.concatenate(pooled[g], axis=-1) for g in groups])
        proj = rng.normal(size=(12, c.d_model)) / np.sqrt(12.0)
        self.x1 = (feats.reshape(-1, 12) @ proj).ravel()
        n = slots * p * p
        self.positions = np.array(
            [(t, i, j) for t in range(slots) for i in range(p) for j in range(p)]
        )
        self.video = rk.attention.TokenSeq(
            rng.normal(size=(n, c.d_model)), self.positions, rk.attention.Modality.VIDEO
        )
        self.params = rk.attention.init_dsca_params(self.seed, c.d_model, c.heads)
        width = p * p * c.d_model
        self.group_spans = [(k * width, (k + 1) * width) for k in range(slots)]
        self.mask = rk.flow.FreezeMask((True,) + (False,) * (slots - 1))
        self.flops_per_block = dsca_flops(n, n, c.d_model, self.params.video.ff_in.shape[1])
        self.start_pass("warmup")
        self.op(0)
        self.check(0)

    def start_pass(self, label):
        self.step_times = []
        self.digests = []

    def _velocity(self, x, t):
        rk = self.rk
        with self.span("perfbench.velocity"):
            t0 = time.perf_counter()
            ray = rk.attention.TokenSeq(
                x.reshape(-1, self.cfg.d_model), self.positions, rk.attention.Modality.RAY
            )
            _, ray_out = rk.attention.dsca_block(self.video, ray, self.params)
            v = (ray_out.tokens - ray.tokens).ravel()
            self.step_times.append(time.perf_counter() - t0)
        return v

    def op(self, i):
        rk = self.rk
        rng = np.random.default_rng([self.seed, i])
        x_init = rng.normal(size=self.x1.shape)
        a, b = self.group_spans[0]
        x_init[a:b] = self.x1[a:b]
        x_out = rk.flow.euler_sample(
            x_init, self._velocity, self.cfg.steps, self.mask, self.group_spans
        )
        batch = rk.flow.FlowBatch(x0=x_init, x1=self.x1, t=0.5)
        prediction = x_out - x_init
        report = rk.flow.loss(prediction, batch)
        grad = rk.flow.loss_gradient(prediction, batch)
        self.pending = (x_init, x_out, report, grad)

    def check(self, i):
        x_init, x_out, report, grad = self.pending
        a, b = self.group_spans[0]
        if not np.array_equal(x_out[a:b], x_init[a:b]):
            raise CheckFailed("generate: frozen reference slot changed")
        if not (np.all(np.isfinite(x_out)) and np.all(np.isfinite(grad))
                and math.isfinite(report.total)):
            raise CheckFailed("generate: non-finite sample, loss or gradient")
        self.digests.append(hashlib.sha256(x_out.tobytes()).digest())

    def rot_err_p50_rad(self) -> float:
        return 0.0

    def work(self, op_times):
        return len(self.step_times), self.step_times

    def fingerprint(self):
        return b"".join(self.digests)


WORKLOADS = {"sweep": Sweep, "files": Files, "generate": Generate}
