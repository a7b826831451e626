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
nominal value.  Gravity side wrenches stay nominal as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.transform import Rotation

from .spatial import Transform, Wrench, compose
from .stability import (
    CircularPatchJoint,
    ForcefulKinematicChain,
    PolygonPatchJoint,
    chain_stable,
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

    def to_dict(self) -> dict:
        return {
            "mu_rel": self.mu_rel,
            "wrench_rel": self.wrench_rel,
            "frame_translation": self.frame_translation,
            "frame_rotation": self.frame_rotation,
            "patch_rel": self.patch_rel,
            "samples": self.samples,
        }

    @staticmethod
    def from_dict(d: dict) -> "PerturbationSpec":
        return PerturbationSpec(**d)


def _noisy_transform(t: Transform, spec: PerturbationSpec, rng) -> Transform:
    # Draw even at zero scale so the stream layout never changes.
    dp = rng.normal(0.0, spec.frame_translation, 3)
    rv = rng.normal(0.0, spec.frame_rotation, 3)
    if not (np.any(dp) or np.any(rv)):
        return t
    return compose(t, Transform(Rotation.from_rotvec(rv).as_matrix(), dp))


def perturbed_case(
    chain: ForcefulKinematicChain, w: Wrench, spec: PerturbationSpec, rng
):
    """One noise realization of (chain, wrench).

    Draw order: six wrench factors, then per patch joint two parameter
    draws followed by the six frame draws.  Arm and rigid joints draw
    nothing; their models carry no sampled uncertainty here.
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
            joints.append(
                (
                    PolygonPatchJoint(
                        mu, corners, joint.corner_normal_forces, joint.contact_frame
                    ),
                    t2,
                )
            )
        else:
            joints.append((joint, t))
    out = ForcefulKinematicChain(
        chain.application_frame, tuple(joints), chain.gravity_wrenches
    )
    return out, w2


def success_probability(
    chain: ForcefulKinematicChain,
    w: Wrench,
    spec: PerturbationSpec | None = None,
    seed: int = 0,
) -> float:
    """Fraction of noise samples under which the chain stays stable."""
    spec = PerturbationSpec() if spec is None else spec
    ok = 0
    for i in range(spec.samples):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        c2, w2 = perturbed_case(chain, w, spec, rng)
        if chain_stable(c2, w2).stable:
            ok += 1
    return ok / spec.samples


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
