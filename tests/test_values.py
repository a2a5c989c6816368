"""Every value type that holds arrays keeps one rule: its arrays are
read-only, a caller's writeable memory is copied, fresh arrays are kept
uncopied, and pickling or deep-copying goes through the constructor, so
the copy keeps the rule too."""

import copy
import dataclasses
import os
import pickle

import numpy as np
import pytest

from raxelkit.attention import (
    BranchParams,
    DscaBlockParams,
    Modality,
    TokenSeq,
    dsca_block,
    init_dsca_params,
)
from raxelkit.decode import decode_trajectory
from raxelkit.evaluation import (
    PerturbationKind,
    PerturbationSpec,
    PoseErrorReport,
    TrajectoryKind,
    generate_trajectory,
    perturb,
    pose_errors,
)
from raxelkit.flow import FlowBatch
from raxelkit.geometry import Intrinsics, Pose
from raxelkit.io import load_raxel, save_raxel
from raxelkit.rays import RayGrid, encode_plucker, encode_raxel, encode_trajectory_raxels

INTR = Intrinsics(fx=90.0, fy=95.0, cx=40.0, cy=24.0, width=80, height=48)
ORBIT = generate_trajectory(TrajectoryKind.ORBIT, 5, INTR)
ARC = generate_trajectory(TrajectoryKind.ARC_LEFT, 5, INTR)


def block_outputs():
    """``dsca_block``'s (video_out, ray_out), neither read yet."""
    params = init_dsca_params(0, 12, 2, d_ff=24)
    positions = np.array([[0, 0, 0], [0, 1, 0], [1, 0, 0]])
    video = TokenSeq(np.ones((3, 12)), positions, Modality.VIDEO)
    ray = TokenSeq(np.zeros((3, 12)), positions, Modality.RAY)
    return dsca_block(video, ray, params)


def values():
    decoded, _ = decode_trajectory(encode_trajectory_raxels(ORBIT), 0, INTR.width, INTR.height)
    rng = np.random.default_rng(3)
    video_out, ray_out = block_outputs()
    return {
        "Trajectory": ORBIT,
        "DecodedFrame": decoded[2],
        "RayGrid": encode_plucker(ORBIT.frames[1], ORBIT.frames[1].pose),
        "PoseErrorReport": pose_errors(ARC, ORBIT),
        "FlowBatch": FlowBatch(x0=rng.normal(size=6), x1=rng.normal(size=6), t=0.25),
        "unread video_out": video_out,
        "unread ray_out": ray_out,
    }


COPIERS = {
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    "pickle5": lambda v: pickle.loads(pickle.dumps(v, protocol=5)),
    "deepcopy": copy.deepcopy,
    "replace": dataclasses.replace,
}


def assert_same_value(got, want):
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert not got.flags.writeable
    elif dataclasses.is_dataclass(want):
        for f in dataclasses.fields(want):
            assert_same_value(getattr(got, f.name), getattr(want, f.name))
    elif isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_value(g, w)
    else:
        assert got == want


@pytest.mark.parametrize("copier", COPIERS.values(), ids=COPIERS.keys())
@pytest.mark.parametrize("name", ["Trajectory", "DecodedFrame", "RayGrid", "PoseErrorReport",
                                  "FlowBatch", "unread video_out", "unread ray_out"])
def test_round_trip_gives_an_equal_value_with_read_only_arrays(name, copier):
    value = values()[name]
    assert_same_value(copier(value), value)


@pytest.mark.parametrize("copier", COPIERS.values(), ids=COPIERS.keys())
def test_an_unread_block_output_copies_as_the_eager_tokens(copier):
    eager = [out.tokens for out in block_outputs()]
    for got, want in zip([copier(out) for out in block_outputs()], eager):
        assert type(got) is TokenSeq
        assert_same_value(got.tokens, want)


def test_ray_grid_copies_a_read_only_view_of_writeable_memory():
    base = np.zeros((4, 5, 3))
    view = base.view()
    view.flags.writeable = False
    grid = RayGrid(view)
    base[:] = 5.0
    assert np.all(grid.data == 0.0)
    assert not grid.data.flags.writeable


def test_flow_batch_copies_the_callers_arrays():
    x0, x1 = np.zeros(4), np.ones(4)
    batch = FlowBatch(x0=x0, x1=x1, t=0.5)
    x0 += 2.0
    x1 += 2.0
    assert np.all(batch.x0 == 0.0) and np.all(batch.x1 == 1.0)
    with pytest.raises(ValueError, match="read-only"):
        batch.x0[0] = 1.0


def address(arr):
    return arr.__array_interface__["data"][0]


@pytest.fixture
def handed(monkeypatch):
    """Addresses of the arrays handed to RayGrid's constructor."""
    seen = []
    real = RayGrid.__post_init__

    def spy(self):
        seen.append(address(np.asarray(self.data)))
        real(self)

    monkeypatch.setattr(RayGrid, "__post_init__", spy)
    return seen


def producers(tmp_path):
    frame = ORBIT.frames[3]
    clean = encode_raxel(frame, frame.pose)

    def loaded():
        path = os.path.join(tmp_path, "g.rxl")
        save_raxel(path, clean, 3)
        return load_raxel(path)[0]

    yield "encode_raxel", lambda: encode_raxel(frame, frame.pose)
    yield "encode_plucker", lambda: encode_plucker(frame, frame.pose)
    for kind, magnitude in ((PerturbationKind.GAUSSIAN_PER_PIXEL, 0.01),
                            (PerturbationKind.UNIFORM_QUANTIZE, 8),
                            (PerturbationKind.PIXEL_DROPOUT, 0.3)):
        spec = PerturbationSpec(kind, magnitude, seed=1)
        yield f"perturb {kind.value}", lambda spec=spec: perturb(clean, spec)
    yield "load_raxel", loaded


def test_fresh_arrays_reach_ray_grid_uncopied(handed, tmp_path):
    for name, produce in producers(tmp_path):
        grid = produce()
        assert address(grid.data) == handed[-1], name
        assert not grid.data.flags.writeable, name


def stored_arrays(value):
    """Every array a value type stores, its nested value types' included."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from stored_arrays(getattr(value, f.name))
    elif isinstance(value, tuple):
        for item in value:
            yield from stored_arrays(item)


def branch_from_writeable_arrays(d):
    return BranchParams(*(np.eye(d) for _ in range(10)), np.ones(d), np.ones(d), np.ones(d))


def built_from_writeable_input():
    d = 6
    return {
        "Pose": Pose(np.eye(3), np.zeros(3)),
        "RayGrid": RayGrid(np.zeros((4, 5, 3))),
        "PoseErrorReport": PoseErrorReport(np.zeros(4), np.ones(4), 0.0, 1.0),
        "FlowBatch": FlowBatch(x0=np.zeros(3), x1=np.ones(3), t=0.5),
        "TokenSeq": TokenSeq(np.zeros((2, d)), np.array([[0, 0, 0], [1, 0, 0]]), Modality.RAY),
        "BranchParams": branch_from_writeable_arrays(d),
        "DscaBlockParams": DscaBlockParams(
            branch_from_writeable_arrays(d), branch_from_writeable_arrays(d),
            np.zeros(d), np.zeros(d), head_count=1,
        ),
    }


def produced_by_the_library():
    params = init_dsca_params(0, 12, 2, d_ff=24)
    return {**values(), "DscaBlockParams": params, "dsca_block": block_outputs()}


@pytest.mark.parametrize("name", list(built_from_writeable_input()))
def test_a_stored_array_cannot_be_made_writeable_again(name):
    # the kept attention state trusts that a value's arrays never change
    arrays = list(stored_arrays(built_from_writeable_input()[name]))
    assert arrays
    for arr in arrays:
        with pytest.raises(ValueError):
            arr.flags.writeable = True


@pytest.mark.parametrize("name", list(produced_by_the_library()))
def test_arrays_the_library_makes_cannot_be_made_writeable_again(name):
    for arr in stored_arrays(produced_by_the_library()[name]):
        with pytest.raises(ValueError):
            arr.flags.writeable = True


def stored_from_read_only(name, arr):
    """The array a value type stores for the read-only 3x3 ``arr``."""
    if name == "Pose":
        return Pose(arr, np.zeros(3)).rotation
    if name == "TokenSeq":
        return TokenSeq(arr, np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]]), Modality.RAY).tokens
    return BranchParams(arr, *(np.eye(3) for _ in range(9)), *(np.ones(3) for _ in range(3))
                        ).self_query


@pytest.mark.parametrize("view", [False, True], ids=["owner", "view"])
@pytest.mark.parametrize("name", ["Pose", "TokenSeq", "BranchParams"])
def test_a_callers_read_only_array_is_copied(name, view):
    # the caller owns the memory, so it can make it writeable again
    owner = np.eye(3)
    owner.flags.writeable = False
    stored = stored_from_read_only(name, owner.view() if view else owner)
    owner.flags.writeable = True
    owner[0, 0] = 5.0
    assert np.array_equal(stored, np.eye(3))
