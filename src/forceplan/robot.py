"""Serial arm kinematics.

All arms here are revolute-only chains.  Joint ``i`` sits at a fixed
translation ``link_offsets[i]`` from the previous joint frame and rotates
about the unit axis ``joint_axes[i]`` expressed in its own frame; the end
effector adds a final fixed translation.  Forward kinematics returns the
end-effector pose in the arm base frame.

The geometric Jacobian maps joint rates to the end-effector twist in base
axes with the linear rows first, so ``tau = J.T @ [f, tau_w]`` gives the
joint torques needed to exert the wrench ``[f, tau_w]`` (expressed in base
axes about the end-effector origin) on the environment;
``stability.torque_stable`` checks them against the torque limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spatial import Transform, matrix_rotvec, rotvec_matrix

__all__ = [
    "SerialArm",
    "fk",
    "jacobian",
    "ik",
    "default_arm",
    "planar_two_link_arm",
]

_IK_DAMPING = 1e-2
_IK_TOL = 1e-4
_IK_RESTARTS = 8
_IK_MAX_ITERS = 200


def _axis_rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    return rotvec_matrix(axis * angle)


@dataclass(frozen=True, eq=False)
class SerialArm:
    """Fixed description of a revolute serial arm."""

    joint_axes: np.ndarray
    link_offsets: np.ndarray
    torque_limits: np.ndarray
    position_limits: np.ndarray
    ee_offset: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        axes = np.asarray(self.joint_axes, dtype=float).reshape(-1, 3).copy()
        offsets = np.asarray(self.link_offsets, dtype=float).reshape(-1, 3).copy()
        torques = np.asarray(self.torque_limits, dtype=float).reshape(-1).copy()
        limits = np.asarray(self.position_limits, dtype=float).reshape(-1, 2).copy()
        ee = np.asarray(self.ee_offset, dtype=float).reshape(3).copy()
        n = axes.shape[0]
        if offsets.shape[0] != n or torques.shape[0] != n or limits.shape[0] != n:
            raise ValueError("per-joint arrays must share one length")
        norms = np.linalg.norm(axes, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("joint axes must be unit vectors")
        if np.any(torques <= 0):
            raise ValueError("torque limits must be positive")
        if np.any(limits[:, 0] >= limits[:, 1]):
            raise ValueError("position limits must satisfy low < high")
        for arr in (axes, offsets, torques, limits, ee):
            arr.flags.writeable = False
        object.__setattr__(self, "joint_axes", axes)
        object.__setattr__(self, "link_offsets", offsets)
        object.__setattr__(self, "torque_limits", torques)
        object.__setattr__(self, "position_limits", limits)
        object.__setattr__(self, "ee_offset", ee)

    @property
    def dof(self) -> int:
        return self.joint_axes.shape[0]

    def mid_config(self) -> np.ndarray:
        return 0.5 * (self.position_limits[:, 0] + self.position_limits[:, 1])

    def within_limits(self, q: np.ndarray) -> bool:
        q = np.asarray(q, dtype=float)
        return bool(
            np.all(q >= self.position_limits[:, 0] - 1e-9)
            and np.all(q <= self.position_limits[:, 1] + 1e-9)
        )


def _chain_frames(arm: SerialArm, q: np.ndarray):
    """Joint origins and world axes in base coordinates, plus the EE pose."""
    q = np.asarray(q, dtype=float).reshape(arm.dof)
    R = np.eye(3)
    p = np.zeros(3)
    origins = np.zeros((arm.dof, 3))
    axes = np.zeros((arm.dof, 3))
    for i in range(arm.dof):
        p = p + R @ arm.link_offsets[i]
        origins[i] = p
        axes[i] = R @ arm.joint_axes[i]
        R = R @ _axis_rotation(arm.joint_axes[i], q[i])
    p_ee = p + R @ arm.ee_offset
    return origins, axes, R, p_ee


def fk(arm: SerialArm, q) -> Transform:
    """End-effector pose in the arm base frame."""
    _, _, R, p_ee = _chain_frames(arm, q)
    return Transform(R, p_ee)


def _frames_jacobian(origins, axes, p_ee) -> np.ndarray:
    """Geometric Jacobian from the joint frames ``_chain_frames`` returns.

    Column i is (a_i x (p_ee - o_i), a_i), with the cross product written
    out as ``np.cross`` computes it, for all joints at once.  J is filled
    in C order: the BLAS products of ``ik`` sum in an order that follows
    the layout, and its iterates depend on that to the last bit.
    """
    a, d = axes.T, (p_ee - origins).T
    J = np.empty((6, len(axes)))
    J[0] = a[1] * d[2] - a[2] * d[1]
    J[1] = a[2] * d[0] - a[0] * d[2]
    J[2] = a[0] * d[1] - a[1] * d[0]
    J[3:] = a
    return J


def jacobian(arm: SerialArm, q) -> np.ndarray:
    """Geometric Jacobian, linear rows stacked over angular rows (6 x n)."""
    origins, axes, _, p_ee = _chain_frames(arm, q)
    return _frames_jacobian(origins, axes, p_ee)


def _pose_error(target: Transform, R: np.ndarray, p: np.ndarray) -> np.ndarray:
    e_p = target.translation - p
    e_r = matrix_rotvec(target.rotation @ R.T)
    return np.concatenate([e_p, e_r])


def ik(arm: SerialArm, target: Transform):
    """Damped least-squares inverse kinematics.

    Deterministic: the first start is the mid configuration and the other
    restarts draw from a fixed seed sequence.  Returns a configuration
    within position limits whose pose error norm is below ``_IK_TOL``, or
    None when no restart converges.  A target farther from the first joint
    than the links can stretch is None at once: no restart can converge.
    """
    reach = np.linalg.norm(arm.link_offsets[1:], axis=1).sum()
    reach += np.linalg.norm(arm.ee_offset) + _IK_TOL
    if np.linalg.norm(target.translation - arm.link_offsets[0]) > reach:
        return None
    rng = np.random.default_rng(20_000)
    lo = arm.position_limits[:, 0]
    hi = arm.position_limits[:, 1]
    seeds = [arm.mid_config()]
    for _ in range(_IK_RESTARTS - 1):
        seeds.append(np.clip(seeds[0] + rng.normal(scale=0.6, size=arm.dof), lo, hi))
    for seed in seeds:
        q = seed.copy()
        for _ in range(_IK_MAX_ITERS):
            origins, axes, R, p_ee = _chain_frames(arm, q)
            err = _pose_error(target, R, p_ee)
            if np.linalg.norm(err) < _IK_TOL:
                if arm.within_limits(q):
                    return q
                break
            J = _frames_jacobian(origins, axes, p_ee)
            JJt = J @ J.T + (_IK_DAMPING**2) * np.eye(6)
            dq = J.T @ np.linalg.solve(JJt, err)
            step = np.linalg.norm(dq)
            if step > 0.5:
                dq *= 0.5 / step
            q = np.clip(q + dq, lo, hi)
    return None


def planar_two_link_arm(l1: float = 1.0, l2: float = 1.0, torque_limits=(30.0, 30.0)):
    """Two revolute z joints in the xy plane; handy for worked examples."""
    return SerialArm(
        joint_axes=[[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
        link_offsets=[[0.0, 0.0, 0.0], [l1, 0.0, 0.0]],
        torque_limits=list(torque_limits),
        position_limits=[[-np.pi, np.pi], [-np.pi, np.pi]],
        ee_offset=[l2, 0.0, 0.0],
    )


_DEFAULT_AXES = [
    [0.0, 0.0, 1.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
]
_DEFAULT_OFFSETS = [
    [0.0, 0.0, 0.10],
    [0.0, 0.0, 0.10],
    [0.0, 0.0, 0.25],
    [0.0, 0.0, 0.25],
    [0.0, 0.0, 0.20],
    [0.0, 0.0, 0.15],
    [0.0, 0.0, 0.10],
]
_DEFAULT_TORQUES = [87.0, 87.0, 87.0, 87.0, 12.0, 12.0, 12.0]
_DEFAULT_POSITION_LIMITS = [[-2.9, 2.9]] * 4 + [[-3.0, 3.0]] * 3
_DEFAULT_EE_OFFSET = [0.0, 0.0, 0.08]


def default_arm():
    """Seven-revolute arm with alternating z/y axes stacked along z.

    Strong shoulder joints and weaker wrist joints.
    """
    return SerialArm(
        joint_axes=_DEFAULT_AXES,
        link_offsets=_DEFAULT_OFFSETS,
        torque_limits=_DEFAULT_TORQUES,
        position_limits=_DEFAULT_POSITION_LIMITS,
        ee_offset=_DEFAULT_EE_OFFSET,
    )
