"""Quasi-static stability of wrench transmission through contact chains.

A forceful kinematic chain is the ordered list of joints (frictional
patches, arm joints, rigid attachments) that an exerted wrench must pass
through on its way from the application frame to the ground.  The chain is
stable exactly when every joint can transmit its share of the wrench, and
its margin is the minimum over the per-joint margins.

Joint test frames
-----------------
Every joint is evaluated in its own contact frame with the z axis along
the contact normal.  For patch joints the caller orients the frame so
that a transmitted force with positive z would pull the contact apart;
compression is then a non-positive z force and is resisted kinematically.
For polygon patches the joint test asks whether the contact can *react*
the transmitted wrench, so the reaction cone membership is evaluated on
the negated wrench.

Margins
-------
* circular patch: 1 minus the ellipsoidal limit-surface quadratic form,
* polygon patch: 1 for a feasible wrench (conic feasibility is scale
  invariant, so there is no finer scale to report); infeasible wrenches
  get the negated normalized cone residual,
* arm joint: 1 minus the worst torque utilization ratio,
* rigid joint: 1.

In every case margin > 0 exactly when the joint verdict is stable, with
strict inequalities at the boundary.

Batched verdicts
----------------
``circular_patch_verdicts`` and ``polygon_patch_verdicts`` give the
verdicts of ``joint_stable`` for many perturbed copies of one patch at
once, with the same arithmetic, so they agree with it exactly.  They skip
the margins, which a verdict never needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.optimize import nnls

from . import robot
from .spatial import Wrench, transform_wrench

__all__ = [
    "CircularPatchJoint",
    "PolygonPatchJoint",
    "ArmJoint",
    "RigidJoint",
    "JointModel",
    "ForcefulKinematicChain",
    "StabilityVerdict",
    "limit_surface_stable",
    "circular_patch_verdicts",
    "friction_cone_generators",
    "friction_cone_generators_batch",
    "in_convex_cone",
    "polygon_patch_verdicts",
    "torque_stable",
    "joint_stable",
    "chain_stable",
]

GRAVITY = 9.81

# Torsional friction constant of a uniform-pressure circular patch is
# proportional to its radius.
_TWIST_RADIUS_FACTOR = 0.6

_CONE_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class StabilityVerdict:
    stable: bool
    margin: float
    failing_joint: int | None = None


@dataclass(frozen=True, eq=False)
class CircularPatchJoint:
    """Circular friction patch with uniform pressure.

    ``coupled_normal_force`` is the portion of ``normal_force_N`` that is
    supplied by the commanded push rather than by a fixed preload or by
    gravity; robustness perturbations scale that portion together with the
    normal component of the applied wrench.
    """

    mu: float
    radius_r: float
    normal_force_N: float
    contact_frame: str = ""
    coupled_normal_force: float = 0.0

    def __post_init__(self):
        if self.mu < 0 or self.radius_r < 0:
            raise ValueError("friction coefficient and radius must be nonnegative")
        if self.normal_force_N < 0:
            raise ValueError("normal force must be nonnegative")
        if not 0 <= self.coupled_normal_force <= self.normal_force_N + 1e-12:
            raise ValueError("coupled normal force must lie within the total")

    @property
    def twist_constant_k(self) -> float:
        # Recomputed from the radius so a perturbed copy can never carry a
        # stale value.
        return _TWIST_RADIUS_FACTOR * self.radius_r


@dataclass(frozen=True, eq=False)
class PolygonPatchJoint:
    """Planar patch supported at polygon corners with known normal forces.

    ``preload`` is the fixed wrench, in the patch frame, that the patch
    bears on top of the transmitted wrench: a grip squeeze or a resting
    weight.
    """

    mu: float
    corners: np.ndarray
    corner_normal_forces: np.ndarray
    contact_frame: str = ""
    preload: Wrench | None = None

    def __post_init__(self):
        corners = np.asarray(self.corners, dtype=float).reshape(-1, 3).copy()
        forces = np.asarray(self.corner_normal_forces, dtype=float).reshape(-1).copy()
        if self.mu < 0:
            raise ValueError("friction coefficient must be nonnegative")
        if corners.shape[0] < 1:
            raise ValueError("patch needs at least one corner")
        if corners.shape[0] != forces.shape[0]:
            raise ValueError("one normal force per corner required")
        if np.max(np.abs(corners[:, 2])) > 1e-9:
            raise ValueError("corners must be coplanar in the patch z=0 plane")
        if np.any(forces < 0):
            raise ValueError("corner normal forces must be nonnegative")
        corners.flags.writeable = False
        forces.flags.writeable = False
        object.__setattr__(self, "corners", corners)
        object.__setattr__(self, "corner_normal_forces", forces)


@dataclass(frozen=True, eq=False)
class ArmJoint:
    """Stand-in for a serial arm held at a fixed configuration.

    Stability of this joint is the arm's torque-limit check at ``config_q``
    for the transmitted wrench expressed at the end effector in base axes.
    """

    arm: object
    config_q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.config_q, dtype=float).reshape(-1).copy()
        q.flags.writeable = False
        object.__setattr__(self, "config_q", q)


@dataclass(frozen=True, eq=False)
class RigidJoint:
    """Weld, vise clamp, or rigid grasp; transmits any wrench."""

    contact_frame: str = ""


JointModel = Union[CircularPatchJoint, PolygonPatchJoint, ArmJoint, RigidJoint]


@dataclass(frozen=True, eq=False)
class ForcefulKinematicChain:
    """Ordered joints between the wrench application frame and ground.

    ``joints`` holds ``(joint, transform)`` pairs where the transform maps
    application-frame coordinates into that joint's test frame.  A load a
    joint bears besides the transmitted wrench is the joint's own
    ``preload``.
    """

    application_frame: str
    joints: tuple = ()


def limit_surface_stable(w_planar, joint: CircularPatchJoint) -> StabilityVerdict:
    """Ellipsoidal limit-surface test for a circular patch.

    ``w_planar`` stacks the two tangential force components and the moment
    about the contact normal.  Stable strictly inside the ellipsoid

        (ft_x^2 + ft_y^2) / (N mu)^2 + m_n^2 / (N k mu)^2 < 1,   k = 0.6 r.

    Margin is 1 minus the quadratic form.  A patch with no transmissible
    capacity (zero normal force or zero friction) is unstable for any
    nonzero planar wrench, with a -inf margin sentinel.
    """
    w = np.asarray(w_planar, dtype=float).reshape(3)
    capacity = joint.normal_force_N * joint.mu
    if capacity <= 0.0:
        if np.any(np.abs(w) > 0.0):
            return StabilityVerdict(False, -np.inf)
        return StabilityVerdict(True, 1.0)
    k = joint.twist_constant_k
    form = (w[0] ** 2 + w[1] ** 2) / capacity**2
    if abs(w[2]) > 0.0:
        if k <= 0.0:
            return StabilityVerdict(False, -np.inf)
        form += w[2] ** 2 / (capacity * k) ** 2
    margin = 1.0 - form
    return StabilityVerdict(margin > 0.0, margin)


def circular_patch_verdicts(mu, radius, normal_force, force, torque_z) -> np.ndarray:
    """``joint_stable(...).stable`` of S circular patches at once.

    Sample s is the patch with ``mu[s]``, ``radius[s]`` and
    ``normal_force[s]`` transmitting the force ``force[s]`` and the moment
    ``torque_z[s]`` about its normal.  Squares go through ``float_power``,
    the libm ``pow`` behind the scalar ``x ** 2``; ``x * x`` differs from
    it in the last bit of some inputs.
    """
    fx, fy, fz = force.T
    pulled = fz > 1e-9 * np.maximum(normal_force, 1.0)
    capacity = normal_force * mu
    k = _TWIST_RADIUS_FACTOR * radius
    loaded = np.abs(np.column_stack([fx, fy, torque_z])) > 0.0
    twist = loaded[:, 2]
    with np.errstate(all="ignore"):
        planar = np.float_power(fx, 2) + np.float_power(fy, 2)
        form = planar / np.float_power(capacity, 2)
        form = form + np.where(
            twist, np.float_power(torque_z, 2) / np.float_power(capacity * k, 2), 0.0
        )
        inside = (1.0 - form > 0.0) & ~(twist & (k <= 0.0))
    return ~pulled & np.where(capacity <= 0.0, ~loaded.any(axis=1), inside)


def friction_cone_generators(joint: PolygonPatchJoint) -> np.ndarray:
    """Wrench-space generators of the patch reaction cone.

    Each loaded corner contributes the four edge directions of its
    linearized friction pyramid, scaled by the corner normal force and
    mapped to the patch frame with the corner lever arm.  Corners with
    zero normal force are dropped; with zero friction the four edges
    coincide and a single normal generator is kept.
    """
    rows = []
    mu = joint.mu
    directions = [(mu, 0.0), (-mu, 0.0), (0.0, mu), (0.0, -mu)]
    if mu == 0.0:
        directions = [(0.0, 0.0)]
    for corner, n_force in zip(joint.corners, joint.corner_normal_forces):
        if n_force <= 0.0:
            continue
        for dx, dy in directions:
            f = n_force * np.array([dx, dy, 1.0])
            rows.append(np.concatenate([f, np.cross(corner, f)]))
    if not rows:
        return np.zeros((0, 6))
    return np.vstack(rows)


def friction_cone_generators_batch(mu, corners, normal_forces) -> np.ndarray:
    """``friction_cone_generators`` of S samples of one patch at once.

    Sample s has friction ``mu[s]`` and corners ``corners[s]`` (shape
    (S, m, 3)); the corner normal forces are shared.  Row s equals the
    scalar generators bit for bit wherever ``mu[s] != 0``; a frictionless
    sample keeps one generator per corner, so take those from the scalar
    function.
    """
    loaded = ~(normal_forces <= 0.0)
    n_force = normal_forces[loaded][None, :, None]
    mu = mu[:, None, None]
    zero = np.zeros_like(mu)
    out = np.empty((len(mu), n_force.size, 4, 6))
    out[..., 0] = n_force * np.concatenate([mu, -mu, zero, zero], axis=2)
    out[..., 1] = n_force * np.concatenate([zero, zero, mu, -mu], axis=2)
    out[..., 2] = n_force * 1.0
    # The products and differences of np.cross(corner, f), written in place.
    c = corners[:, loaded, None, :]
    f = out[..., :3]
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        out[..., 3 + i] = c[..., j] * f[..., k] - c[..., k] * f[..., j]
    return out.reshape(len(mu), 4 * n_force.size, 6)


def _cone_feasible(w: np.ndarray, generators: np.ndarray):
    """NNLS phase-1 feasibility of w = sum(lambda_i g_i), lambda >= 0.

    Returns (feasible, residual) with the residual measured after scaling
    w to unit norm, so the tolerance is relative.
    """
    scale = np.linalg.norm(w)
    if scale <= _CONE_TOL:
        return True, 0.0
    w_n = w / scale
    norms = np.linalg.norm(generators, axis=1)
    keep = norms > 0.0
    if not np.any(keep):
        return False, 1.0
    basis = generators[keep] / norms[keep, None]
    _, residual = nnls(basis.T, w_n)
    return residual <= _CONE_TOL, residual


def in_convex_cone(w, generators):
    """Membership of ``w`` in the nonnegative span of ``generators``.

    Returns ``(feasible, margin)``.  Conic feasibility is scale invariant,
    so a feasible wrench reports the cap margin of 1; an infeasible
    wrench reports the negated normalized cone residual.
    """
    w = np.asarray(w, dtype=float).reshape(-1)
    generators = np.asarray(generators, dtype=float)
    if generators.size == 0:
        generators = np.zeros((0, w.shape[0]))
    feasible, residual = _cone_feasible(w, generators)
    return (True, 1.0) if feasible else (False, -residual)


def polygon_patch_verdicts(mu, corners, normal_forces, wrenches) -> np.ndarray:
    """``joint_stable(...).stable`` of S samples of one polygon patch.

    Sample s is the patch with ``mu[s]`` and ``corners[s]`` transmitting
    ``wrenches[s]`` (force over torque).  Only the verdict is computed:
    one NNLS feasibility test per sample, as in ``in_convex_cone``.
    """
    generators = friction_cone_generators_batch(mu, corners, normal_forces)
    verdicts = np.empty(len(mu), dtype=bool)
    for s in range(len(mu)):
        g = generators[s]
        if mu[s] == 0.0:
            g = friction_cone_generators(
                PolygonPatchJoint(mu[s], corners[s], normal_forces)
            )
        verdicts[s] = _cone_feasible(-wrenches[s], g)[0]
    return verdicts


def _circular_patch_stable(joint: CircularPatchJoint, w: Wrench) -> StabilityVerdict:
    f = w.force
    scale = max(joint.normal_force_N, 1.0)
    if f[2] > 1e-9 * scale:
        # Transmitted force pulls the pressing contact apart.
        return StabilityVerdict(False, -f[2] / scale)
    # Compression and the two peel moments are taken up kinematically by
    # the pressing bodies; friction carries the planar components.
    return limit_surface_stable([f[0], f[1], w.torque[2]], joint)


def _polygon_patch_stable(joint: PolygonPatchJoint, w: Wrench) -> StabilityVerdict:
    p = joint.preload
    if p is not None:
        w = Wrench(w.force + p.force, w.torque + p.torque)
    generators = friction_cone_generators(joint)
    feasible, margin = in_convex_cone(-w.as_array(), generators)
    return StabilityVerdict(feasible and margin > 0.0, margin)


def torque_stable(arm: robot.SerialArm, q, w: Wrench) -> StabilityVerdict:
    """Strict torque-limit check for exerting ``w`` at the end effector.

    ``w`` must be expressed in base axes about the end-effector origin.
    Margin is one minus the worst utilization ratio; the verdict's
    ``failing_joint`` names the 0-based arm joint with that ratio when the
    check fails.
    """
    tau = robot.jacobian(arm, q).T @ w.as_array()
    ratios = np.abs(tau) / arm.torque_limits
    worst = int(np.argmax(ratios))
    margin = 1.0 - float(ratios[worst])
    stable = ratios[worst] < 1.0
    return StabilityVerdict(stable, margin, None if stable else worst)


def joint_stable(joint: JointModel, w: Wrench) -> StabilityVerdict:
    """Verdict for a single joint given the transmitted wrench in its frame."""
    if isinstance(joint, RigidJoint):
        return StabilityVerdict(True, 1.0)
    if isinstance(joint, CircularPatchJoint):
        return _circular_patch_stable(joint, w)
    if isinstance(joint, PolygonPatchJoint):
        return _polygon_patch_stable(joint, w)
    if isinstance(joint, ArmJoint):
        return torque_stable(joint.arm, joint.config_q, w)
    raise TypeError(f"unknown joint model {type(joint).__name__}")


def chain_stable(chain: ForcefulKinematicChain, w: Wrench) -> StabilityVerdict:
    """Transmit ``w`` through every joint of the chain and combine verdicts.

    The wrench must be expressed in the chain's application frame; a wrench
    that names another frame raises ``ValueError``.  An unnamed frame is
    taken to be the application frame.  Margin is the minimum over joints,
    and ``failing_joint`` is the index of the first unstable joint.  Each
    joint sees ``w`` in its test frame; a polygon patch adds its preload.
    """
    if w.frame and w.frame != chain.application_frame:
        raise ValueError(
            f"wrench in frame {w.frame!r} but chain applies at "
            f"{chain.application_frame!r}"
        )
    margin = np.inf
    failing = None
    for idx, (joint, t_app_joint) in enumerate(chain.joints):
        verdict = joint_stable(joint, transform_wrench(w, t_app_joint))
        if verdict.margin < margin:
            margin = verdict.margin
        if not verdict.stable and failing is None:
            failing = idx
    margin = min(margin, 1.0)
    return StabilityVerdict(failing is None, float(margin), failing)
