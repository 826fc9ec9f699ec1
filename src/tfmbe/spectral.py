"""Periodic 2D Fourier pseudo-spectral discretization.

Fields are real arrays of shape (nx, nx) on the uniform periodic grid of
the square (0, 2 pi)^2; x varies along the first axis.  Differential operators
are diagonal in transform space (real FFTs with Hermitian symmetry), so a
field is carried by its half-spectrum between steps: the grid values of
its gradient come from ``gradient_from_spectrum`` and the half-spectrum of
a divergence from ``divergence_spectrum``.  The Nyquist mode of odd
derivatives is zeroed, the standard convention for real first
derivatives.  Quadrature is the scaled grid sum, which is spectrally
accurate on periodic grids; ``inner_spec`` takes the same inner product
from two half-spectra (Parseval).

Nonlinear fluxes are formed pointwise on the grid and differentiated in
transform space; no dealiasing is applied.  Every 2-D transform goes
through ``Grid2D.fft``/``Grid2D.ifft``.  The SAV step (``tfmbe.sav``)
costs 7 of them per adaptive trial (second-order step 3, estimator 2,
observables 2) and 5 per fixed-mesh step; its convolution history holds
half-spectra (their float views, whose shape it takes from the first
committed increment), so the history sum needs no transform.  The SAV
state keeps the ``Grid2D`` and ``ModelParams`` it starts with, and every
step reads them from there.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ModelViolationError

__all__ = [
    "Grid2D",
    "ModelParams",
    "slope_nonlinearity",
    "noslope_nonlinearity",
    "sav_u_functional",
    "sav_v_functional",
    "sav_radicand",
    "write_field",
    "read_field",
]

TWO_PI = 2.0 * np.pi

SLOPE = "slope"
NOSLOPE = "noslope"


class Grid2D:
    """Uniform nx x nx grid on the 2*pi-periodic square, with spectral multipliers."""

    def __init__(self, nx):
        if nx < 4 or nx % 2:
            raise ValueError(f"nx must be even and >= 4, got {nx}")
        self.nx = self.ny = int(nx)
        self.lx = self.ly = TWO_PI
        self.hx = self.hy = TWO_PI / self.nx

        kx = TWO_PI * np.fft.fftfreq(self.nx, d=self.hx)
        ky = TWO_PI * np.fft.rfftfreq(self.ny, d=self.hy)
        self.k2 = kx[:, None] ** 2 + ky[None, :] ** 2
        self.k4 = self.k2 ** 2
        # odd derivatives drop the (unpaired) Nyquist mode
        dx = 1j * kx
        dx[self.nx // 2] = 0.0
        dy = 1j * ky.copy()
        dy[-1] = 0.0
        self._dx = dx[:, None]
        self._dy = dy[None, :]
        # column weights for Parseval sums over the half-spectrum
        wcol = np.full(self.ny // 2 + 1, 2.0)
        wcol[0] = 1.0
        wcol[-1] = 1.0
        self._wcol = wcol[None, :]
        x = np.arange(self.nx) * self.hx
        self.x, self.y = np.meshgrid(x, x, indexing="ij")

    @property
    def shape(self):
        return (self.nx, self.ny)

    @property
    def area(self):
        return self.lx * self.ly

    # -- transforms ----------------------------------------------------

    def fft(self, f):
        return np.fft.rfft2(f)

    def ifft(self, fh):
        return np.fft.irfft2(fh, s=self.shape)

    # -- operators -----------------------------------------------------

    def gradient_from_spectrum(self, fh):
        """Grid values (d_x f, d_y f) of the field with half-spectrum fh."""
        return self.ifft(self._dx * fh), self.ifft(self._dy * fh)

    def divergence_spectrum(self, fx, fy):
        """Half-spectrum of d_x fx + d_y fy for grid fields fx, fy."""
        return self._dx * self.fft(fx) + self._dy * self.fft(fy)

    # -- quadrature ----------------------------------------------------

    def integrate(self, f):
        return float(np.sum(f)) * self.hx * self.hy

    def inner_spec(self, fh, gh):
        """Inner product of two real fields from their half-spectra (Parseval)."""
        s = float(np.sum(self._wcol * (fh.real * gh.real + fh.imag * gh.imag)))
        return s * self.hx * self.hy / (self.nx * self.ny)


@dataclass(frozen=True)
class ModelParams:
    """Physical and auxiliary-variable parameters of the growth models.

    M: mobility; eps2: squared interface width; beta: quadratic stabilizer
    folded into the auxiliary variable; C0: radicand shift keeping the
    square root real; model: "slope" (double-well in the gradient) or
    "noslope" (logarithmic potential).
    """

    M: float = 1.0
    eps2: float = 0.1
    beta: float = 4.0
    C0: float = 1.0
    model: str = SLOPE

    def __post_init__(self):
        if not (0 < self.M < math.inf and 0 < self.eps2 < math.inf
                and 0 < self.C0 < math.inf and 0 <= self.beta < math.inf):
            raise ValueError("require finite M, eps2, C0 > 0 and beta >= 0, got "
                             f"{self}")
        if self.model not in (SLOPE, NOSLOPE):
            raise ValueError(f"model must be 'slope' or 'noslope', got {self.model!r}")


def slope_nonlinearity(grid, phi):
    """Variational flux of the double-well potential: -div((|grad|^2 - 1) grad)."""
    gx, gy = grid.gradient_from_spectrum(grid.fft(phi))
    fac = gx * gx + gy * gy - 1.0
    return -grid.ifft(grid.divergence_spectrum(fac * gx, fac * gy))


def noslope_nonlinearity(grid, phi):
    """Variational flux of the logarithmic potential: div(grad/(1 + |grad|^2))."""
    gx, gy = grid.gradient_from_spectrum(grid.fft(phi))
    fac = 1.0 / (1.0 + gx * gx + gy * gy)
    return grid.ifft(grid.divergence_spectrum(fac * gx, fac * gy))


def sav_radicand(grid, x2, params):
    """Radicand of the auxiliary variable from the squared slope x2 = |grad phi|^2.

    slope:    int (x2 - 1 - beta)^2 / 4 + C0
    no-slope: int (log(1 + x2) + beta x2) / 2 + C0
    """
    if params.model == SLOPE:
        m = x2 - 1.0 - params.beta
        radicand = 0.25 * grid.integrate(m * m) + params.C0
    else:
        radicand = (grid.integrate(0.5 * np.log1p(x2) + 0.5 * params.beta * x2)
                    + params.C0)
    if radicand <= 0.0:
        raise ModelViolationError(
            f"nonpositive radicand {radicand}; increase C0 (= {params.C0})")
    return radicand


def sav_u_functional(grid, grad, params):
    """Normalized double-well flux used by the slope-model auxiliary variable.

    ``grad`` holds the grid values (d_x phi, d_y phi).  Returns
    (U_h, radicand): the half-spectrum of
    U = div((|grad phi|^2 - 1 - beta) grad phi) / sqrt(radicand), with
    ``sav_radicand`` of the slope model.
    """
    gx, gy = grad
    x2 = gx * gx + gy * gy
    radicand = sav_radicand(grid, x2, params)
    m = x2 - 1.0 - params.beta
    return grid.divergence_spectrum(m * gx, m * gy) / np.sqrt(radicand), radicand


def sav_v_functional(grid, grad, params):
    """Normalized logarithmic-potential flux for the no-slope auxiliary variable.

    ``grad`` holds the grid values (d_x phi, d_y phi).  Returns
    (V_h, radicand): the half-spectrum of
    V = div((1/(1 + |grad phi|^2) + beta) grad phi) / sqrt(radicand), with
    ``sav_radicand`` of the no-slope model.
    """
    gx, gy = grad
    x2 = gx * gx + gy * gy
    radicand = sav_radicand(grid, x2, params)
    fac = 1.0 / (1.0 + x2) + params.beta
    return grid.divergence_spectrum(fac * gx, fac * gy) / np.sqrt(radicand), radicand


# -- field snapshots ----------------------------------------------------

_MAGIC = b"TFMBE2D\x00"
_HEADER = struct.Struct("<8sii2d")  # 32 bytes: magic, nx, ny, lx, ly


def write_field(path, grid, f):
    """Write a field snapshot: 32-byte header + little-endian f64, row-major."""
    f = np.ascontiguousarray(np.asarray(f, dtype="<f8"))
    if f.shape != grid.shape:
        raise ValueError(f"field shape {f.shape} does not match grid {grid.shape}")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, grid.nx, grid.ny, grid.lx, grid.ly))
        fh.write(f.tobytes())


def read_field(path):
    """Read a field snapshot; returns (values, (lx, ly))."""
    with open(path, "rb") as fh:
        magic, nx, ny, lx, ly = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a field snapshot (magic {magic!r})")
        data = np.frombuffer(fh.read(8 * nx * ny), dtype="<f8")
    if data.size != nx * ny:
        raise ValueError(f"{path}: truncated snapshot")
    return data.reshape(nx, ny).astype(float), (lx, ly)
