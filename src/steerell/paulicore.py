"""Two-qubit states in Pauli form and Alice-side steering primitives.

A two-qubit state is held as the triple (a, b, T) of its Pauli expansion

    rho = (1/4) (I (x) I  +  a . sigma (x) I  +  I (x) b . sigma
                 + sum_ij T_ij sigma_i (x) sigma_j),

with a, b the local Bloch vectors and T the real 3x3 correlation matrix.
The computational basis order is |00>, |01>, |10>, |11> (Alice first).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateOutcome, NonPhysical
from .tolerances import TOL_PROB, TOL_PSD

PAULI = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)

_I2 = np.eye(2, dtype=complex)

# _PAULI_BASIS[i, j] = sigma_i (x) sigma_j with sigma_0 = I
_SIGMA = np.concatenate([_I2[None], PAULI])
_PAULI_BASIS = np.einsum("iab,jcd->ijacbd", _SIGMA, _SIGMA).reshape(4, 4, 4, 4)
# row 4i + j holds sigma_i (x) sigma_j transposed, so that
# _PAULI_ROWS @ rho.ravel() lists tr(rho sigma_i (x) sigma_j)
_PAULI_ROWS = _PAULI_BASIS.transpose(0, 1, 3, 2).reshape(16, 16)


@dataclass(frozen=True)
class TwoQubitState:
    """Pauli form of a two-qubit state: Bloch vectors a, b and correlation matrix T."""

    a: np.ndarray
    b: np.ndarray
    T: np.ndarray

    def density_matrix(self) -> np.ndarray:
        """Reconstruct the 4x4 density matrix in the computational basis."""
        coeff = np.empty((4, 4))
        coeff[0, 0] = 1.0
        coeff[0, 1:] = self.b
        coeff[1:, 0] = self.a
        coeff[1:, 1:] = self.T
        return np.tensordot(coeff, _PAULI_BASIS, axes=2) / 4.0

    def alice_purity_gap(self) -> float:
        """1 - |a|^2; zero iff Alice's reduced state is pure."""
        return 1.0 - float(self.a @ self.a)


@dataclass(frozen=True)
class SteeredEnsemble:
    """Bob's two-outcome ensemble for one projective spin measurement by Alice.

    Outcome order is (+1, -1) along the measurement axis.
    """

    axis: np.ndarray
    probabilities: np.ndarray  # (2,)
    points: np.ndarray  # (2, 3) Bloch vectors of the steered states

    def average(self) -> np.ndarray:
        """Ensemble average; equals Bob's reduced Bloch vector (no signalling)."""
        return self.probabilities @ self.points


def _as_vec3(x, name):
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    return v


def require_finite(x, name):
    """The array x; ValueError naming it unless every entry is finite. NaN
    fails every comparison, so it would pass the `> tol` guards after this.
    On Python numbers, as `cmath.isfinite` takes real and complex entries:
    a third of `np.isfinite(x).all()`'s cost on a 3-vector."""
    if not all(map(cmath.isfinite, x.ravel().tolist())):
        raise ValueError(f"{name} has non-finite entries (NaN or Inf)")
    return x


def finite_vec3(x, name):
    """x as a list of three Python floats; ValueError unless x is a finite
    3-vector."""
    return require_finite(_as_vec3(x, name), name).tolist()


def state_from_pauli(a, b, T, *, tol: float = TOL_PSD) -> TwoQubitState:
    """Build a state from Pauli data, rejecting non-physical input.

    Parameters
    ----------
    a, b : array_like, shape (3,)
        Local Bloch vectors of Alice and Bob.
    T : array_like, shape (3, 3)
        Correlation matrix.
    tol : float
        Eigenvalue floor; reconstruction eigenvalues below -tol raise NonPhysical.
    """
    a = _as_vec3(a, "a")
    b = _as_vec3(b, "b")
    T = np.asarray(T, dtype=float)
    if T.shape != (3, 3):
        raise ValueError(f"T must be 3x3, got shape {T.shape}")
    for name, x in (("a", a), ("b", b), ("T", T)):
        require_finite(x, name)
        # A Pauli coefficient x = tr(rho P) with |x| > 1 puts the weight
        # (1 - |x|)/2 of rho on a rank-2 eigenspace of P, so the least
        # eigenvalue is at most (1 - |x|)/4 and the test below would reject
        # it too; rejecting it here keeps huge entries out of the density
        # matrix, where they overflow.
        big = float(np.abs(x).max())
        if big > 1.0 + 4.0 * tol:
            raise NonPhysical(
                (1.0 - big) / 4.0,
                f"{name} has an entry of magnitude {big:.3e}; every Pauli coefficient of a state lies in [-1, 1]",
            )
    state = TwoQubitState(a=a, b=b, T=T)
    eigs = np.linalg.eigvalsh(state.density_matrix())
    if eigs[0] < -tol:
        raise NonPhysical(eigs[0])
    return state


def state_from_density(rho, *, tol: float = TOL_PSD) -> TwoQubitState:
    """Extract Pauli form from a 4x4 density matrix (checks hermiticity, trace, PSD)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got shape {rho.shape}")
    require_finite(rho, "density matrix")
    if np.abs(rho - rho.conj().T).max() > 1e-9:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-9 or abs(np.trace(rho).imag) > 1e-9:
        raise ValueError("density matrix does not have unit trace")
    eigs = np.linalg.eigvalsh(rho)
    if eigs[0] < -tol:
        raise NonPhysical(eigs[0])
    coeff = (_PAULI_ROWS @ rho.ravel()).real.reshape(4, 4)
    return TwoQubitState(a=coeff[1:, 0].copy(), b=coeff[0, 1:].copy(), T=coeff[1:, 1:].copy())


def steered_ensemble(state: TwoQubitState, axis) -> SteeredEnsemble:
    """Bob's steered ensemble for Alice's projective measurement along a unit axis.

    For outcome r in {+1, -1} the probability is (1 + r axis.a)/2 and the
    steered Bloch vector is (b + r T^t axis)/(1 + r axis.a). Computed on
    Python floats; the arrays are built once, at the end.
    """
    n = finite_vec3(axis, "axis")
    norm = math.hypot(*n)
    if norm <= TOL_PROB:
        raise ValueError("measurement axis must be a nonzero vector")
    n0, n1, n2 = (x / norm for x in n)
    (a0, a1, a2), b = state.a.tolist(), state.b.tolist()
    t0, t1, t2 = state.T.tolist()
    na = n0 * a0 + n1 * a1 + n2 * a2
    # T^t n
    tn = [n0 * x + n1 * y + n2 * z for x, y, z in zip(t0, t1, t2)]
    probs = []
    points = []
    for r in (1.0, -1.0):
        w = 1.0 + r * na
        if w <= TOL_PROB:
            raise DegenerateOutcome(f"outcome {int(r):+d} along axis has probability {w / 2.0:.3e}")
        probs.append(w / 2.0)
        points.append([(bj + r * tj) / w for bj, tj in zip(b, tn)])
    return SteeredEnsemble(axis=np.array([n0, n1, n2]), probabilities=np.array(probs), points=np.array(points))


def state_from_json_dict(obj: dict, *, tol: float = TOL_PSD) -> TwoQubitState:
    """Parse a state from its JSON object form.

    Either {"a": [...], "b": [...], "T": [[...]x3]} in Pauli form, or
    {"density_matrix": [[[re, im] x4] x4]} row-major in the computational basis.
    """
    if "density_matrix" in obj:
        raw = np.asarray(obj["density_matrix"], dtype=float)
        if raw.shape != (4, 4, 2):
            raise ValueError("density_matrix must be a 4x4 array of [re, im] pairs")
        require_finite(raw, "density_matrix")
        rho = raw[..., 0] + 1j * raw[..., 1]
        return state_from_density(rho, tol=tol)
    if not {"a", "b", "T"} <= set(obj):
        raise ValueError("state object needs keys a, b, T or density_matrix")
    return state_from_pauli(obj["a"], obj["b"], obj["T"], tol=tol)


def state_to_json_dict(state: TwoQubitState) -> dict:
    """Serialize a state to the Pauli-form JSON object."""
    return {
        "a": [float(x) for x in state.a],
        "b": [float(x) for x in state.b],
        "T": [[float(x) for x in row] for row in state.T],
    }
