"""Rigid transforms and wrenches.

Conventions used throughout the package:

* A ``Transform`` maps coordinates in a source frame into a target frame:
  ``p_target = R @ p_source + t``.  Stored as a 3x3 rotation matrix and a
  3-vector translation.
* A ``Wrench`` stacks force before torque, ``(f, tau)``, with the torque
  taken about the origin of the frame named by ``frame``.
* Frames are plain string identifiers.  A wrench is re-expressed in
  another frame by ``transform_wrench`` under an explicit ``Transform``.
* A rotation vector is the axis times the angle in radians.
  ``rotvec_matrix`` (one vector), ``rotvec_matrices`` (an ``(n, 3)``
  array) and ``matrix_rotvec`` repeat the arithmetic of scipy's
  ``Rotation.from_rotvec(v).as_matrix()`` and
  ``Rotation.from_matrix(m).as_rotvec()`` operation for operation, so
  their results equal scipy's bit for bit without importing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Transform",
    "Wrench",
    "compose",
    "transform_wrench",
    "rot_y",
    "rot_z",
    "rotvec_matrix",
    "rotvec_matrices",
    "matrix_rotvec",
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


# Rotation vectors and quaternions.  A unit quaternion (x, y, z, w) holds
# sin(angle / 2) times the axis and cos(angle / 2); at angles up to 1e-3 the
# ratios of sines to angles are Taylor series, as in scipy.
_SMALL_ANGLE = 1e-3


def _small_angle_scale(angle2):
    """sin(angle / 2) / angle from angle ** 2, to fourth order."""
    return 0.5 - angle2 / 48 + angle2 * angle2 / 3840


def _quat_matrix(x, y, z, w):
    """Rotation matrix of the unit quaternion (x, y, z, w); works on arrays."""
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    return (
        x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw),
        2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw),
        2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2,
    )


def rotvec_matrix(v) -> np.ndarray:
    """Rotation matrix of one rotation vector."""
    x, y, z = map(float, v)
    angle = math.sqrt(x * x + y * y + z * z)
    if angle <= _SMALL_ANGLE:
        scale = _small_angle_scale(angle * angle)
    else:
        scale = math.sin(angle / 2) / angle
    m = _quat_matrix(scale * x, scale * y, scale * z, math.cos(angle / 2))
    return np.array(m).reshape(3, 3)


def rotvec_matrices(v: np.ndarray) -> np.ndarray:
    """Rotation matrices, shape (n, 3, 3), of the rows of an (n, 3) array."""
    x, y, z = v[:, 0], v[:, 1], v[:, 2]
    angle = np.sqrt(x * x + y * y + z * z)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(
            angle <= _SMALL_ANGLE,
            _small_angle_scale(angle * angle),
            np.sin(angle / 2) / angle,
        )
    m = _quat_matrix(scale * x, scale * y, scale * z, np.cos(angle / 2))
    return np.stack(m, axis=1).reshape(-1, 3, 3)


_EYE3 = np.eye(3)
_ORTHOGONAL_TOL = 1e-12 + 1e-5 * _EYE3  # np.isclose(g, I, atol=1e-12)


def matrix_rotvec(m) -> np.ndarray:
    """Rotation vector of a rotation matrix, with an angle in [0, pi].

    A matrix whose determinant is not positive raises ``ValueError``.  One
    that is not orthogonal to 1e-12 is first replaced by the nearest
    rotation, ``U @ Vt`` of its singular value decomposition.
    """
    m = np.asarray(m, dtype=float).reshape(3, 3)
    if np.linalg.det(m) <= 0:
        raise ValueError(f"rotation matrix has a non-positive determinant: {m.tolist()}")
    if not (np.abs(m @ m.T - _EYE3) <= _ORTHOGONAL_TOL).all():
        u, _, vt = np.linalg.svd(m)
        m = u @ vt
    rows = m.tolist()
    trace = rows[0][0] + rows[1][1] + rows[2][2]
    decision = [rows[0][0], rows[1][1], rows[2][2], trace]
    i = decision.index(max(decision))
    # Shepperd's method: build from the largest of 4w^2, 4x^2, 4y^2, 4z^2.
    if i == 3:
        q = [rows[2][1] - rows[1][2], rows[0][2] - rows[2][0],
             rows[1][0] - rows[0][1], 1 + trace]
    else:
        j, k = (i + 1) % 3, (i + 2) % 3
        q = [0.0] * 4
        q[i] = 1 - trace + 2 * rows[i][i]
        q[j] = rows[j][i] + rows[i][j]
        q[k] = rows[k][i] + rows[i][k]
        q[3] = rows[k][j] - rows[j][k]
    norm = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    x, y, z, w = (c / norm for c in q)
    # Canonical sign: w > 0, else the first nonzero of x, y, z is positive.
    if (w, x, y, z) < (0.0, 0.0, 0.0, 0.0):
        x, y, z, w = -x, -y, -z, -w
    angle = 2 * math.atan2(math.sqrt(x * x + y * y + z * z), w)
    if angle <= _SMALL_ANGLE:
        angle2 = angle * angle
        scale = 2 + angle2 / 12 + 7 * angle2 * angle2 / 2880
    else:
        scale = angle / math.sin(angle / 2)
    return np.array([scale * x, scale * y, scale * z])


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

