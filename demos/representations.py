"""Three ways to write a camera as a 2D grid of rays.

raxel   (3ch): world ray direction per pixel; origin = frame translation.
plucker (6ch): [direction, moment = direction x origin]; unchanged if the
               camera slides along its own rays, so it identifies the LINE
               each pixel sees, not the camera point.
raymap  (6ch): [origin, direction]; origin channels are constant across
               the image, spending 3 channels on one shared vector.
"""

import numpy as np

from raxelkit import (
    CameraFrame,
    Intrinsics,
    Pose,
    axis_angle_rotation,
    encode_plucker,
    encode_raxel,
    encode_raymap,
)

intrinsics = Intrinsics(fx=500.0, fy=500.0, cx=160.0, cy=120.0, width=320, height=240)
pose = Pose(axis_angle_rotation([0, 1, 0], 0.4), np.array([0.3, -0.1, 1.2]))
frame = CameraFrame(intrinsics=intrinsics, pose=pose, index=0)

raxel = encode_raxel(frame, pose)
plucker = encode_plucker(frame, pose)
raymap = encode_raymap(frame, pose)
print(f"raxel {raxel.data.shape}, plucker {plucker.data.shape}, raymap {raymap.data.shape}")

d = plucker.data[..., :3]
m = plucker.data[..., 3:]
print(f"plucker moment is perpendicular to direction: "
      f"max |d.m| = {np.abs(np.einsum('ijk,ijk->ij', d, m)).max():.2e}")

# slide the camera 0.7 units along each pixel's own ray: plucker cannot tell.
# Sliding along rays means each pixel's origin moves by 0.7*direction;
# the encoded origin is shared, so emulate it per-pixel:
dirs = raxel.data
origins = pose.translation + 0.7 * dirs
moments = np.cross(dirs, origins)
drift = np.abs(moments - m).max()
print(f"sliding every origin 0.7 along its ray moves the moment by {drift:.2e}")

o = raymap.data[..., :3]
print(f"raymap origin channels are constant: spread = {np.ptp(o.reshape(-1, 3), axis=0)}")
print("raxel keeps the full pose in 3 channels by fixing origin = translation")
