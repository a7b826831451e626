"""Monte Carlo robustness of chain stability under model uncertainty.

Each sample perturbs friction coefficients, patch geometry, contact frame
poses, and the applied wrench, then re-runs the nominal stability check.
Sample ``i`` of seed ``s`` always uses ``default_rng(SeedSequence((s, i)))``
and draws in a fixed order that depends only on the chain's joint types,
never on parameter values.  Two evaluations that share a seed therefore see
identical noise, so comparisons across force levels, materials, or masses
are pointwise (common random numbers) and estimated curves inherit the
monotonicity of the underlying margins.

Normal forces split into a coupled part, which tracks the perturbed applied
normal force, and an uncoupled part (weight, grip preload) held at its
nominal value.  A polygon patch's preload stays nominal as well.

``perturbed_case`` builds one sample as a chain, and ``chain_stable`` of
that chain is the sample's verdict: together they are the scalar oracle.
``success_probability`` computes the same verdicts for all samples at
once.  Each sample draws one ``standard_normal`` vector of length
6 + 8 * (patch joints) and scales its frame slices, which yields exactly
the numbers of the documented draw order.  The joints are checked with
array operations on the (samples, 6) wrenches they transmit, in one pass
per joint; an arm's Jacobian is computed once, and a polygon patch only
asks for the cone verdict.  A sample whose numbers the array arithmetic
cannot vouch for is suspect: its wrench or a transmitted wrench is not
finite, a moved frame is one ``Transform`` would reject, a polygon corner
leaves the z = 0 plane, or (for every sample) the wrench names a foreign
frame or the chain holds an unknown joint type.  The scalar oracle gives
each suspect sample its verdict, or raises its error, first sample first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import robot
from .spatial import Transform, Wrench, compose, rotvec_matrices, rotvec_matrix
from .stability import (
    ArmJoint,
    CircularPatchJoint,
    ForcefulKinematicChain,
    PolygonPatchJoint,
    chain_stable,
    circular_patch_verdicts,
    polygon_patch_verdicts,
)

__all__ = [
    "PerturbationSpec",
    "perturbed_case",
    "success_probability",
    "cost_from_probability",
    "chain_cost",
]


@dataclass(frozen=True)
class PerturbationSpec:
    """Noise scales: *_rel are relative, frame terms absolute (m, rad)."""

    mu_rel: float = 0.1
    wrench_rel: float = 0.05
    frame_translation: float = 0.002
    frame_rotation: float = 0.017
    patch_rel: float = 0.1
    samples: int = 100

    def __post_init__(self):
        for name in ("mu_rel", "wrench_rel", "frame_translation", "frame_rotation", "patch_rel"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.samples < 1:
            raise ValueError("samples must be positive")


def _noisy_transform(t: Transform, spec: PerturbationSpec, rng) -> Transform:
    # Draw even at zero scale so the stream layout never changes.
    dp = rng.normal(0.0, spec.frame_translation, 3)
    rv = rng.normal(0.0, spec.frame_rotation, 3)
    if not (np.any(dp) or np.any(rv)):
        return t
    return compose(t, Transform(rotvec_matrix(rv), dp))


def perturbed_case(
    chain: ForcefulKinematicChain, w: Wrench, spec: PerturbationSpec, rng
):
    """One noise realization of (chain, wrench).

    Draw order: six wrench factors, then per patch joint two parameter
    draws followed by the six frame draws.  Arm joints draw nothing;
    their model carries no sampled uncertainty here.
    """
    fac = 1.0 + spec.wrench_rel * rng.standard_normal(6)
    arr = w.as_array() * fac
    w2 = Wrench(arr[:3], arr[3:], w.frame)
    fz_fac = fac[2]
    joints = []
    for joint, t in chain.joints:
        if isinstance(joint, CircularPatchJoint):
            z_mu, z_r = rng.standard_normal(2)
            t2 = _noisy_transform(t, spec, rng)
            mu = max(joint.mu * (1.0 + spec.mu_rel * z_mu), 0.0)
            r = max(joint.radius_r * (1.0 + spec.patch_rel * z_r), 1e-9)
            fixed = joint.normal_force_N - joint.coupled_normal_force
            n = max(fixed + joint.coupled_normal_force * fz_fac, 0.0)
            coupled = min(max(joint.coupled_normal_force * fz_fac, 0.0), n)
            joints.append(
                (CircularPatchJoint(mu, r, n, joint.contact_frame, coupled), t2)
            )
        elif isinstance(joint, PolygonPatchJoint):
            z_mu, z_s = rng.standard_normal(2)
            t2 = _noisy_transform(t, spec, rng)
            mu = max(joint.mu * (1.0 + spec.mu_rel * z_mu), 0.0)
            scale = max(1.0 + spec.patch_rel * z_s, 0.0)
            centroid = joint.corners.mean(axis=0)
            corners = centroid + (joint.corners - centroid) * scale
            joints.append((replace(joint, mu=mu, corners=corners), t2))
        else:
            joints.append((joint, t))
    return ForcefulKinematicChain(chain.application_frame, tuple(joints)), w2


def _draws(samples: range, width: int, seed: int) -> np.ndarray:
    """One standard normal row per sample, from that sample's own stream."""
    z = np.empty((len(samples), width))
    for row, i in enumerate(samples):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        rng.standard_normal(width, out=z[row])
    return z


def _noisy_frames(t: Transform, dp, rv):
    """Per-sample rotations and translations of ``_noisy_transform``.

    Also returns the samples whose moved frame ``Transform`` would reject.
    """
    moved = np.any(dp, axis=1) | np.any(rv, axis=1)
    rot = np.matmul(t.rotation, rotvec_matrices(rv))
    pos = np.matmul(t.rotation, dp[:, :, None])[:, :, 0] + t.translation
    with np.errstate(invalid="ignore"):
        gram = np.matmul(rot.transpose(0, 2, 1), rot)
        bad = ~(np.isfinite(rot).all(axis=(1, 2)) & np.isfinite(pos).all(axis=1))
        bad |= np.max(np.abs(gram - np.eye(3)), axis=(1, 2)) > 1e-8
        bad |= np.abs(np.linalg.det(rot) - 1.0) > 1e-8
    rot[~moved] = t.rotation
    pos[~moved] = t.translation
    return rot, pos, moved & bad


_PATCHES = (CircularPatchJoint, PolygonPatchJoint)


def _loaded_joints(chain, spec, z, fz_fac, wrench, suspect):
    """Per joint: (joint, perturbed parameters, (samples, 6) transmitted wrench).

    The wrench is the one the joint's test sees: the transmitted wrench
    plus a polygon patch's preload.  Column layout of ``z`` after the six
    wrench columns: per patch joint, the two parameter draws and then the
    six frame draws, as in ``perturbed_case``.  Arm joints keep their
    nominal frame.  Samples that the scalar oracle may reject, or
    whose verdict the array arithmetic cannot vouch for, are marked in
    ``suspect``.
    """
    col = 6
    for joint, t in chain.joints:
        rot, pos, params, extra = t.rotation, t.translation, None, None
        if isinstance(joint, _PATCHES):
            z_mu, z_p = z[:, col], z[:, col + 1]
            dp = 0.0 + spec.frame_translation * z[:, col + 2 : col + 5]
            rv = 0.0 + spec.frame_rotation * z[:, col + 5 : col + 8]
            col += 8
            rot, pos, bad = _noisy_frames(t, dp, rv)
            suspect |= bad
            mu = np.maximum(joint.mu * (1.0 + spec.mu_rel * z_mu), 0.0)
            if isinstance(joint, CircularPatchJoint):
                radius = np.maximum(joint.radius_r * (1.0 + spec.patch_rel * z_p), 1e-9)
                fixed = joint.normal_force_N - joint.coupled_normal_force
                normal = np.maximum(fixed + joint.coupled_normal_force * fz_fac, 0.0)
                params = (mu, radius, normal)
            else:
                scale = np.maximum(1.0 + spec.patch_rel * z_p, 0.0)
                centroid = joint.corners.mean(axis=0)
                corners = centroid + (joint.corners - centroid) * scale[:, None, None]
                suspect |= np.max(np.abs(corners[:, :, 2]), axis=1) > 1e-9
                params, extra = (mu, corners), joint.preload
        elif not isinstance(joint, ArmJoint):
            suspect[:] = True
        f = np.matmul(rot, wrench[:, :3, None])[:, :, 0]
        tau = np.matmul(rot, wrench[:, 3:, None])[:, :, 0] + np.cross(pos, f)
        if extra is not None:
            # Preloads are finite: a non-finite sum had a non-finite term.
            f, tau = f + extra.force, tau + extra.torque
        loaded = np.concatenate([f, tau], axis=1)
        suspect |= ~np.isfinite(loaded).all(axis=1)
        yield joint, params, loaded


# Samples per vectorised pass, so that the arrays of one pass stay a few
# hundred kB whatever the sample count.
_BLOCK = 256


def success_probability(
    chain: ForcefulKinematicChain,
    w: Wrench,
    spec: PerturbationSpec | None = None,
    seed: int = 0,
) -> float:
    """Fraction of noise samples under which the chain stays stable.

    Equals the share of ``chain_stable(*perturbed_case(chain, w, spec,
    rng)).stable`` over ``rng = default_rng(SeedSequence((seed, i)))``,
    sample by sample.
    """
    spec = PerturbationSpec() if spec is None else spec
    # Arm joints carry no noise: one Jacobian serves every sample.
    jacobians = [
        robot.jacobian(joint.arm, joint.config_q) if isinstance(joint, ArmJoint) else None
        for joint, _ in chain.joints
    ]
    stable = 0
    for lo in range(0, spec.samples, _BLOCK):
        samples = range(lo, min(lo + _BLOCK, spec.samples))
        stable += _stable_count(chain, w, spec, seed, samples, jacobians)
    return stable / spec.samples


def _stable_count(chain, w, spec, seed, samples, jacobians) -> int:
    """How many of ``samples`` keep the chain stable, in one vectorised pass."""
    patches = sum(isinstance(joint, _PATCHES) for joint, _ in chain.joints)
    z = _draws(samples, 6 + 8 * patches, seed)
    fac = 1.0 + spec.wrench_rel * z[:, :6]
    wrench = w.as_array() * fac
    suspect = ~np.isfinite(wrench).all(axis=1)
    if w.frame and w.frame != chain.application_frame:
        suspect[:] = True
    ok = np.ones(len(samples), dtype=bool)
    polygons = []
    loaded = _loaded_joints(chain, spec, z, fac[:, 2], wrench, suspect)
    for (joint, params, wj), jac in zip(loaded, jacobians):
        if isinstance(joint, CircularPatchJoint):
            ok &= circular_patch_verdicts(*params, wj[:, :3], wj[:, 5])
        elif isinstance(joint, ArmJoint):
            tau = np.matmul(jac.T, wj[:, :, None])[:, :, 0]
            ok &= np.max(np.abs(tau) / joint.arm.torque_limits, axis=1) < 1.0
        elif isinstance(joint, PolygonPatchJoint):
            polygons.append((joint, params, wj))
    # The scalar oracle gives a suspect sample its verdict, or raises its
    # error, first sample first.
    for s in np.flatnonzero(suspect):
        rng = np.random.default_rng(np.random.SeedSequence((seed, samples[s])))
        ok[s] = chain_stable(*perturbed_case(chain, w, spec, rng)).stable
    # A cone test costs one NNLS per sample, so it only runs on the samples
    # every other joint holds.
    for joint, (mu, corners), wj in polygons:
        alive = np.flatnonzero(ok & ~suspect)
        ok[alive] = polygon_patch_verdicts(
            mu[alive], corners[alive], joint.corner_normal_forces, wj[alive]
        )
    return int(np.count_nonzero(ok))


def cost_from_probability(p: float) -> float:
    """Negative log success; certain actions cost exactly zero."""
    if p <= 0.0:
        return math.inf
    if p >= 1.0:
        return 0.0
    return -math.log(p)


def chain_cost(
    chain: ForcefulKinematicChain,
    w: Wrench,
    spec: PerturbationSpec | None = None,
    seed: int = 0,
) -> float:
    return cost_from_probability(success_probability(chain, w, spec, seed))
