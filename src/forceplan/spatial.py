"""Rigid transforms and wrenches.

Conventions used throughout the package:

* A ``Transform`` maps coordinates in a source frame into a target frame:
  ``p_target = R @ p_source + t``.  Stored as a 3x3 rotation matrix and a
  3-vector translation.
* A ``Wrench`` stacks force before torque, ``(f, tau)``, with the torque
  taken about the origin of the frame named by ``frame``.
* Frames are plain string identifiers.  A wrench is re-expressed in
  another frame by ``transform_wrench`` under an explicit ``Transform``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Transform",
    "Wrench",
    "compose",
    "transform_wrench",
    "rot_y",
    "rot_z",
]

def _as_vec3(x) -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(3)
    return v.copy()


def rot_y(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass(frozen=True, eq=False)
class Transform:
    """Rigid transform from a source frame into a target frame."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=float).reshape(3, 3).copy()
        t = _as_vec3(self.translation)
        if not np.all(np.isfinite(R)) or not np.all(np.isfinite(t)):
            raise ValueError("transform entries must be finite")
        # Orthonormal with determinant +1; reject reflections and shears.
        if np.max(np.abs(R.T @ R - np.eye(3))) > 1e-8:
            raise ValueError("rotation matrix is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) > 1e-8:
            raise ValueError("rotation matrix must have determinant +1")
        R.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "Transform":
        return Transform()

    def to_dict(self) -> dict:
        return {
            "rotation": [[float(v) for v in row] for row in self.rotation],
            "translation": [float(v) for v in self.translation],
        }


@dataclass(frozen=True, eq=False)
class Wrench:
    """Force and torque about the origin of ``frame``."""

    force: np.ndarray
    torque: np.ndarray
    frame: str = ""

    def __post_init__(self):
        f = _as_vec3(self.force)
        tau = _as_vec3(self.torque)
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(tau))):
            raise ValueError("wrench components must be finite")
        f.flags.writeable = False
        tau.flags.writeable = False
        object.__setattr__(self, "force", f)
        object.__setattr__(self, "torque", tau)

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.force, self.torque])


def compose(a: Transform, b: Transform) -> Transform:
    """Transform applying ``b`` first, then ``a``."""
    return Transform(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def transform_wrench(w: Wrench, t: Transform) -> Wrench:
    """Re-express ``w`` under ``t`` mapping its frame into the target frame.

    The translation picks up a moment: f' = R f, tau' = R tau + t x (R f).
    """
    f = t.rotation @ w.force
    tau = t.rotation @ w.torque + np.cross(t.translation, f)
    return Wrench(f, tau)

