"""Periodic 2D Fourier pseudo-spectral discretization.

Fields are real arrays of shape (nx, nx) on the uniform periodic grid of
the square (0, 2 pi)^2; x varies along the first axis.  Differential operators
are diagonal in transform space (real FFTs with Hermitian symmetry), so a
field is carried by its half-spectrum between steps.  A 2-D transform is
two 1-D passes, one along the rows and one along the columns, and
``Grid2D.fft``/``Grid2D.ifft`` take one field or a stack of them along
leading axes, so one call serves a stack.  A gradient is one (2, nx, nx)
array; the half-spectrum of a divergence comes from one forward call on
the stacked flux (``divergence_spectrum``), and the grid values of a
field and its gradient from one shared inverse pass
(``field_and_gradient``): d_y acts along the rows, so the field and d_y
of it share one column pass.  The grid keeps its gradient operator
(d_x, d_y) as one complex stack at the full half-spectrum shape, so
applying it neither casts nor broadcasts.  The Nyquist mode of odd
derivatives is zeroed, the standard convention for real first
derivatives.  Quadrature is the scaled grid sum, which is spectrally
accurate on periodic grids; ``inner_spec`` takes the same inner product
from two half-spectra (Parseval) as one BLAS dot of their flattened float
views, the left one multiplied by the grid's Parseval weights (2 for a
column that stands for its conjugate too, 1 for the first and last
columns, which have none, times the quadrature scale).  A left operand
shared by several products is weighted once (``weigh``) and each product
is then a plain ``dot``.

Nonlinear fluxes are formed pointwise on the grid and differentiated in
transform space; no dealiasing is applied.  The auxiliary-variable
functionals form their pointwise factor once (the slope model takes its
radicand from it), scale it by 1/sqrt(radicand) and multiply the stacked
gradient by it once before the forward call.  The SAV step
(``tfmbe.sav``) makes 3 transform calls per adaptive trial (two forward
calls, one per flux divergence, and the shared inverse pass of the new
field) and 2 per fixed-mesh step; its convolution history holds
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
        # the gradient operator (d_x, d_y), one stack, complex and full-shape,
        # so a multiply neither casts nor broadcasts; odd derivatives drop
        # the (unpaired) Nyquist mode
        dx = 1j * kx
        dx[self.nx // 2] = 0.0
        dy = 1j * ky
        dy[-1] = 0.0
        self._grad = np.empty((2,) + self.k2.shape, dtype=complex)
        self._grad[0] = dx[:, None]
        self._grad[1] = dy[None, :]
        # the column passes of ``field_and_gradient``, kept: a fresh stack
        # per call is a large allocation that the C allocator may hand back
        # to the system when it is freed; in a loop of calls at 128^2 and
        # 256^2, faulting its pages in again made the shared pass slower
        # than three separate inverse transforms
        self._cols = np.empty((3,) + self.k2.shape, dtype=complex)
        # Parseval weights over the flattened float view of a half-spectrum:
        # 2 for a column that stands for itself and its conjugate, 1 for the
        # unpaired first and last columns, times the quadrature scale
        weights = np.full((self.nx, 2 * ky.size), 2.0)
        weights[:, :2] = weights[:, -2:] = 1.0
        self._parseval = (weights * (self.hx * self.hy / (self.nx * self.ny))).ravel()
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
        """Half-spectrum of field f, or of each field of a stack along leading axes.

        Two 1-D passes, a real one along the rows and a complex one along
        the columns (in place): ``np.fft.rfft2`` bit for bit, but one call
        serves a stack.
        """
        fh = np.fft.rfft(f, axis=-1)
        return np.fft.fft(fh, axis=-2, out=fh)

    def ifft(self, fh):
        """Grid values of half-spectrum fh, or of each one of a stack.

        The inverse of ``fft`` as two 1-D passes, columns then rows:
        ``np.fft.irfft2`` bit for bit.
        """
        return np.fft.irfft(np.fft.ifft(fh, axis=-2), self.nx, axis=-1)

    # -- operators -----------------------------------------------------

    def field_and_gradient(self, fh):
        """Grid values f and grad = (d_x f, d_y f) of the field with half-spectrum fh.

        One shared inverse: d_y acts along the rows, so f and d_y f share
        the column pass of fh; d_x f has its own.  The two column passes
        write into one stack that the grid keeps (so a grid is not for
        concurrent use), d_y is applied to the first, and one row pass over
        the three gives f and the (2, nx, nx) gradient, views of one new
        array.
        """
        cols = self._cols
        np.fft.ifft(fh, axis=0, out=cols[0])
        np.multiply(self._grad[0], fh, out=cols[1])
        np.fft.ifft(cols[1], axis=0, out=cols[1])
        np.multiply(self._grad[1], cols[0], out=cols[2])
        values = np.fft.irfft(cols, self.nx, axis=-1)
        return values[0], values[1:]

    def divergence_spectrum(self, flux):
        """Half-spectrum of d_x fx + d_y fy for the (2, nx, nx) grid flux (fx, fy)."""
        div_h = self.fft(flux)
        div_h *= self._grad
        div_h[0] += div_h[1]
        return div_h[0]

    # -- quadrature ----------------------------------------------------

    def integrate(self, f):
        # np.sum's pairwise sum, called without np.sum's dispatch
        return float(np.add.reduce(f, axis=None)) * self.hx * self.hy

    def weigh(self, fh):
        """The flattened float view of half-spectrum fh times the Parseval weights.

        Its first two entries are the mean mode's.
        """
        return self._parseval * _flat(fh)

    def dot(self, weighted, gh):
        """Inner product of two fields given ``weigh(fh)`` and the half-spectrum gh."""
        return float(np.dot(weighted, _flat(gh)))

    def inner_spec(self, fh, gh):
        """Inner product of two real fields from their half-spectra (Parseval).

        Every column of the half-spectrum but the first and the last stands
        for itself and its conjugate, so the sum weights its float view by
        2, those two columns by 1: one weighted dot.  A left operand shared
        by several products is weighted once, ``dot(weigh(fh), gh)``.
        """
        return self.dot(self.weigh(fh), gh)


def _flat(fh):
    """The float view of a half-spectrum, flattened (a copy if it is not contiguous)."""
    if not (type(fh) is np.ndarray and fh.dtype == complex and fh.flags.c_contiguous):
        fh = np.ascontiguousarray(fh, dtype=complex)
    return fh.view(float).reshape(-1)


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
    _, grad = grid.field_and_gradient(grid.fft(phi))
    fac = _squared_slope(grad) - 1.0
    return -grid.ifft(grid.divergence_spectrum(fac * grad))


def noslope_nonlinearity(grid, phi):
    """Variational flux of the logarithmic potential: div(grad/(1 + |grad|^2))."""
    _, grad = grid.field_and_gradient(grid.fft(phi))
    fac = 1.0 / (1.0 + _squared_slope(grad))
    return grid.ifft(grid.divergence_spectrum(fac * grad))


def sav_radicand(grid, x2, params):
    """Radicand of the auxiliary variable from the squared slope x2 = |grad phi|^2.

    slope:    int (x2 - 1 - beta)^2 / 4 + C0
    no-slope: int (log(1 + x2) + beta x2) / 2 + C0
    Both integrands are nonnegative, so the radicand is at least C0 > 0.
    """
    if params.model == SLOPE:
        return _slope_radicand(grid, x2 - 1.0 - params.beta, params)
    return _noslope_radicand(grid, x2, grid.integrate(np.log1p(x2)), params)


def _slope_radicand(grid, m, params):
    """The slope model's radicand from its factor m = x2 - 1 - beta.

    The sum is numpy's pairwise one, not a BLAS dot: the SAV drift compares
    sqrt(radicand) with the auxiliary scalar to about 1e-6, so a change of
    one ulp in either reads as 1e-10 of the drift.
    """
    return 0.25 * grid.integrate(m * m) + params.C0


def _noslope_radicand(grid, x2, log_integral, params):
    """The no-slope model's radicand from x2 and the integral of log(1 + x2)."""
    return 0.5 * (log_integral + params.beta * grid.integrate(x2)) + params.C0


def _squared_slope(grad):
    """|grad phi|^2 on the grid from ``grad`` = (d_x phi, d_y phi), in one new array."""
    gx, gy = grad
    x2 = gx * gx
    x2 += gy * gy
    return x2


def sav_u_functional(grid, grad, params):
    """Normalized double-well flux used by the slope-model auxiliary variable.

    ``grad`` is the (2, nx, nx) stack of grid values (d_x phi, d_y phi).
    Returns (U_h, radicand): the half-spectrum of
    U = div((|grad phi|^2 - 1 - beta) grad phi) / sqrt(radicand), with
    ``sav_radicand`` of the slope model.  The factor in the divergence is
    formed once, gives the radicand and carries 1/sqrt(radicand).
    """
    m = _squared_slope(grad)
    m -= 1.0 + params.beta
    radicand = _slope_radicand(grid, m, params)
    m *= 1.0 / math.sqrt(radicand)
    return grid.divergence_spectrum(m * grad), radicand


def sav_v_functional(grid, grad, params):
    """Normalized logarithmic-potential flux for the no-slope auxiliary variable.

    ``grad`` is the (2, nx, nx) stack of grid values (d_x phi, d_y phi).
    Returns (V_h, radicand): the half-spectrum of
    V = div((1/(1 + |grad phi|^2) + beta) grad phi) / sqrt(radicand), with
    ``sav_radicand`` of the no-slope model.  The factor in the divergence
    is formed once and carries 1/sqrt(radicand).
    """
    fac = _squared_slope(grad)
    radicand = sav_radicand(grid, fac, params)
    fac += 1.0
    np.reciprocal(fac, out=fac)
    fac += params.beta
    fac *= 1.0 / math.sqrt(radicand)
    return grid.divergence_spectrum(fac * grad), radicand


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
    """Read a field snapshot; returns (values, (lx, ly)).

    A file that is not a snapshot, or is cut short, raises ``ValueError``.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"{path}: truncated snapshot header")
        magic, nx, ny, lx, ly = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a field snapshot (magic {magic!r})")
        if nx < 1 or ny < 1:
            raise ValueError(f"{path}: snapshot grid {nx} x {ny} is empty")
        data = fh.read(8 * nx * ny)
    if len(data) != 8 * nx * ny:
        raise ValueError(f"{path}: truncated snapshot")
    return np.frombuffer(data, dtype="<f8").reshape(nx, ny).astype(float), (lx, ly)
