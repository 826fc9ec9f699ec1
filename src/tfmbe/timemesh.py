"""Nonuniform time meshes for fractional-derivative time stepping.

A mesh is the ordered level set t_0 = 0 < t_1 < ... < t_N = T.  The builders
cover the constructions used by the experiment drivers: uniform meshes,
graded meshes t_k = T0 (k/N0)^gamma that cluster steps near t = 0 to resolve
the initial layer, and composite meshes obtained by extending a graded
prefix with a random or uniform tail.

Levels are accumulated from step sizes with the final level pinned to T
exactly, so kernel computations (which difference the levels) never see
roundoff drift at the right endpoint.  Meshes are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "TimeMesh",
    "build_uniform",
    "build_graded",
    "extend_random",
    "extend_uniform",
]


class TimeMesh:
    """Strictly increasing time levels t_0 = 0 < t_1 < ... < t_N."""

    def __init__(self, levels):
        levels = np.array(levels, dtype=float)
        if levels.ndim != 1 or levels.size < 2:
            raise ValueError("a mesh needs at least two levels")
        if levels[0] != 0.0:
            raise ValueError("the first level must be exactly 0")
        taus = np.diff(levels)
        if not np.all(taus > 0.0):
            raise ValueError("levels must be strictly increasing")
        levels.setflags(write=False)
        taus.setflags(write=False)
        self.levels = levels
        self._taus = taus

    @property
    def taus(self):
        """Step sizes tau_k = t_k - t_{k-1}, k = 1..N."""
        return self._taus

    @property
    def tau_max(self):
        return float(self._taus.max())

    @property
    def n_steps(self):
        return self.levels.size - 1

    @property
    def T(self):
        return float(self.levels[-1])

    def __repr__(self):
        return (f"TimeMesh(N={self.n_steps}, T={self.T:g}, "
                f"tau_max={self.tau_max:.3g})")


def build_uniform(T, N):
    """Uniform mesh t_k = k T / N on [0, T]."""
    return build_graded(T, N, 1.0)


def build_graded(T0, N0, gamma):
    """Graded mesh t_k = T0 (k/N0)^gamma, k = 0..N0.

    gamma = 1 reduces to the uniform mesh (bitwise, same formula path).
    gamma < 1 would coarsen toward t = 0 and is rejected.
    """
    if T0 <= 0:
        raise ValueError(f"T0 must be positive, got {T0}")
    if N0 < 1:
        raise ValueError(f"N0 must be at least 1, got {N0}")
    if gamma < 1.0:
        raise ValueError(f"grading exponent must be >= 1, got {gamma}")
    k = np.arange(N0 + 1, dtype=float)
    levels = T0 * (k / N0) ** gamma
    levels[-1] = T0
    return TimeMesh(levels)


def _extend(mesh, T, N1, new_levels):
    """``mesh`` plus the levels ``new_levels(T0)`` of N1 steps, the last pinned to T."""
    T0 = mesh.T
    if T <= T0:
        raise ValueError(f"extension target T={T} must exceed current T0={T0}")
    if N1 < 1:
        raise ValueError(f"N1 must be at least 1, got {N1}")
    levels = np.concatenate([mesh.levels, new_levels(T0)])
    levels[-1] = T
    return TimeMesh(levels)


def extend_random(mesh, T, N1, seed):
    """Append N1 random steps reaching T exactly.

    Steps are tau = (T - T0) e_k / sum(e), with e_k drawn uniformly from
    (0, 1) by a seeded PCG64 generator; the result is a pure function of
    (mesh, T, N1, seed).
    """
    def new_levels(T0):
        rng = np.random.default_rng(seed)
        eps = rng.random(N1)
        while np.any(eps == 0.0):  # open interval (0,1); a zero step is invalid
            idx = eps == 0.0
            eps[idx] = rng.random(int(idx.sum()))
        return T0 + np.cumsum((T - T0) * eps / eps.sum())

    return _extend(mesh, T, N1, new_levels)


def extend_uniform(mesh, T, N1):
    """Append N1 equal steps reaching T exactly."""
    return _extend(mesh, T, N1, lambda T0: np.linspace(T0, T, N1 + 1)[1:])
