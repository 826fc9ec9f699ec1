import math
import struct

import numpy as np
import pytest
import sympy as sp

from tfmbe import (Grid2D, ModelParams, noslope_nonlinearity, read_field,
                   sav_u_functional, sav_v_functional, slope_nonlinearity, write_field)


@pytest.fixture(scope="module")
def grid():
    return Grid2D(64)


def band_limited(grid, rng, kmax=5):
    f = np.zeros(grid.shape)
    for _ in range(6):
        kx, ky = rng.integers(-kmax, kmax + 1, 2)
        a, b = rng.standard_normal(2)
        f += a * np.cos(kx * grid.x + ky * grid.y) + b * np.sin(kx * grid.x + ky * grid.y)
    return f


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid2D(5)
    with pytest.raises(ValueError):
        Grid2D(2)
    g = Grid2D(8)
    assert g.hx * g.hy * g.nx * g.ny == pytest.approx(g.area)


def laplacian(grid, f):
    return grid.ifft(-grid.k2 * grid.fft(f))


def biharmonic(grid, f):
    return grid.ifft(grid.k4 * grid.fft(f))


def gradient(grid, f):
    return grid.field_and_gradient(grid.fft(f))[1]


def test_laplacian_eigenfunction(grid):
    f = np.sin(grid.x) * np.sin(grid.y)
    assert np.max(np.abs(laplacian(grid, f) + 2 * f)) < 1e-12


def test_biharmonic_eigenfunction():
    small = Grid2D(16)
    f = np.sin(small.x) * np.sin(small.y)
    assert np.max(np.abs(biharmonic(small, f) - 4 * f)) < 1e-12


def test_biharmonic_eigenfunction_roundoff_floor(grid):
    # spectral roundoff is amplified by kmax^4, so 64^2 only reaches ~1e-9
    f = np.sin(grid.x) * np.sin(grid.y)
    assert np.max(np.abs(biharmonic(grid, f) - 4 * f)) < 1e-9


def test_divergence_of_gradient_is_laplacian(grid, rng):
    f = band_limited(grid, rng)
    grad = gradient(grid, f)
    assert grad.shape == (2,) + grid.shape
    div = grid.ifft(grid.divergence_spectrum(grad))
    assert np.max(np.abs(div - laplacian(grid, f))) < 1e-11


@pytest.mark.parametrize("nx", [16, 64, 128])
def test_stacked_transforms_match_rfft2_bit_for_bit(nx, rng):
    grid = Grid2D(nx)
    fields = rng.standard_normal((3,) + grid.shape)
    spectra = grid.fft(fields)
    assert spectra.shape == (3, nx, nx // 2 + 1)
    values = grid.ifft(spectra)
    for f, fh, back in zip(fields, spectra, values):
        assert np.array_equal(fh, np.fft.rfft2(f))
        assert np.array_equal(grid.fft(f), fh)
        assert np.array_equal(back, np.fft.irfft2(fh, s=grid.shape))
        assert np.array_equal(grid.ifft(fh), back)


def _derivative_symbols(nx):
    """i kx and i ky of the half-spectrum, each with its Nyquist mode zeroed."""
    kx = np.fft.fftfreq(nx, d=1.0 / nx)
    ky = np.fft.rfftfreq(nx, d=1.0 / nx)
    kx[nx // 2] = ky[-1] = 0.0
    return 1j * kx[:, None], 1j * ky[None, :]


@pytest.mark.parametrize("nx", [16, 64, 128])
def test_shared_inverse_pass_matches_separate_inverses(nx, rng):
    """f and (d_x f, d_y f) from one pass match three separate inverse transforms.

    The field is white noise, so its Nyquist modes are not small: the odd
    derivatives must drop them as the separate transforms do.
    """
    grid = Grid2D(nx)
    fh = grid.fft(rng.standard_normal(grid.shape))
    f, grad = grid.field_and_gradient(fh)
    ikx, iky = _derivative_symbols(nx)
    for got, ref in ((f, grid.ifft(fh)), (grad[0], grid.ifft(ikx * fh)),
                     (grad[1], grid.ifft(iky * fh))):
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    # a Nyquist wave has a zero gradient on the grid, and keeps it
    nyquist = np.cos(nx // 2 * grid.x) + np.cos(nx // 2 * grid.y)
    f, grad = grid.field_and_gradient(grid.fft(nyquist))
    assert np.max(np.abs(f - nyquist)) <= 1e-13
    assert np.max(np.abs(grad)) <= 1e-13


def test_gradient_of_trigonometric_field(grid):
    f = np.sin(2 * grid.x) * np.cos(3 * grid.y)
    gx, gy = gradient(grid, f)
    assert np.max(np.abs(gx - 2 * np.cos(2 * grid.x) * np.cos(3 * grid.y))) < 1e-12
    assert np.max(np.abs(gy + 3 * np.sin(2 * grid.x) * np.sin(3 * grid.y))) < 1e-12


def test_operators_commute(grid, rng):
    f = band_limited(grid, rng)
    a = biharmonic(grid, laplacian(grid, f))
    b = laplacian(grid, biharmonic(grid, f))
    assert np.max(np.abs(a - b)) < 1e-11 * max(1.0, np.max(np.abs(a)))


def _symbolic_profile(expr_fn):
    """Evaluate a 1D symbolic reference d/dx expression on the grid axis."""
    x = sp.symbols("x")
    expr = expr_fn(x)
    return sp.lambdify(x, expr, "numpy")


def test_slope_nonlinearity_symbolic(grid):
    phi = np.sin(grid.x) * np.ones_like(grid.y)
    out = slope_nonlinearity(grid, phi)
    x = sp.symbols("x")
    flux = (sp.cos(x) ** 2 - 1) * sp.cos(x)
    ref = _symbolic_profile(lambda x_: -sp.diff((sp.cos(x_) ** 2 - 1) * sp.cos(x_), x_))
    assert np.max(np.abs(out - ref(grid.x))) < 1e-10
    assert flux is not None


def test_noslope_nonlinearity_symbolic(grid):
    phi = np.sin(grid.x) * np.ones_like(grid.y)
    out = noslope_nonlinearity(grid, phi)
    ref = _symbolic_profile(lambda x_: sp.diff(sp.cos(x_) / (1 + sp.cos(x_) ** 2), x_))
    assert np.max(np.abs(out - ref(grid.x))) < 1e-10


def test_nonlinearity_zero_field(grid):
    zero = np.zeros(grid.shape)
    assert np.max(np.abs(slope_nonlinearity(grid, zero))) == 0.0
    assert np.max(np.abs(noslope_nonlinearity(grid, zero))) == 0.0


def test_resolution_doubling_band_limited():
    # the slope flux is cubic in the gradient: exact once its modes fit
    coarse, fine = Grid2D(32), Grid2D(64)
    phi_c = np.sin(2 * coarse.x) * np.cos(coarse.y)
    phi_f = np.sin(2 * fine.x) * np.cos(fine.y)
    out_c = slope_nonlinearity(coarse, phi_c)
    out_f = slope_nonlinearity(fine, phi_f)
    assert np.max(np.abs(out_c - out_f[::2, ::2])) < 1e-10
    # the no-slope flux is rational in the gradient, so its spectrum only
    # decays; a small slope keeps the unresolved tail below the target
    phi_c = 0.02 * np.sin(2 * coarse.x) * np.cos(coarse.y)
    phi_f = 0.02 * np.sin(2 * fine.x) * np.cos(fine.y)
    out_c = noslope_nonlinearity(coarse, phi_c)
    out_f = noslope_nonlinearity(fine, phi_f)
    assert np.max(np.abs(out_c - out_f[::2, ::2])) < 1e-10


def test_u_functional_zero_field(grid):
    params = ModelParams(M=1.0, eps2=1.0, beta=1.0, C0=1.0, model="slope")
    u_h, radicand = sav_u_functional(grid, gradient(grid, np.zeros(grid.shape)),
                                     params)
    assert np.max(np.abs(u_h)) == 0.0
    expect = (1 + params.beta) ** 2 * grid.area / 4 + params.C0
    assert radicand == pytest.approx(expect, rel=1e-12)
    assert radicand == pytest.approx(4 * math.pi ** 2 + 1, rel=1e-12)


def test_u_functional_radicand_scaling(grid):
    base = ModelParams(M=1.0, eps2=1.0, beta=1.0, C0=1.0, model="slope")
    big = ModelParams(M=1.0, eps2=1.0, beta=1.0, C0=4.0, model="slope")
    zero = gradient(grid, np.zeros(grid.shape))
    _, r1 = sav_u_functional(grid, zero, base)
    _, r4 = sav_u_functional(grid, zero, big)
    ratio = math.sqrt(r4 / r1)
    assert ratio == pytest.approx(
        math.sqrt((4 * math.pi ** 2 + 4) / (4 * math.pi ** 2 + 1)), rel=1e-12)


def test_v_functional_zero_field(grid):
    params = ModelParams(M=1.0, eps2=1.0, beta=0.5, C0=1.0, model="noslope")
    v_h, radicand = sav_v_functional(grid, gradient(grid, np.zeros(grid.shape)),
                                     params)
    assert np.max(np.abs(v_h)) == 0.0
    assert radicand == pytest.approx(params.C0, rel=1e-13)


def test_v_functional_beta_zero_matches_noslope_flux(grid):
    params = ModelParams(M=1.0, eps2=1.0, beta=0.0, C0=1.0, model="noslope")
    phi = 0.3 * np.sin(grid.x) * np.sin(2 * grid.y)
    v_h, radicand = sav_v_functional(grid, gradient(grid, phi), params)
    v = grid.ifft(v_h)
    ref = noslope_nonlinearity(grid, phi) / math.sqrt(radicand)
    assert np.max(np.abs(v - ref)) < 1e-12


def test_v_functional_symbolic(grid):
    params = ModelParams(M=1.0, eps2=1.0, beta=0.7, C0=1.0, model="noslope")
    phi = np.sin(grid.x) * np.ones_like(grid.y)
    v_h, radicand = sav_v_functional(grid, gradient(grid, phi), params)
    v = grid.ifft(v_h)
    x = sp.symbols("x")
    num = sp.diff((1 / (1 + sp.cos(x) ** 2) + params.beta) * sp.cos(x), x)
    ref = sp.lambdify(x, num, "numpy")(grid.x) / math.sqrt(radicand)
    assert np.max(np.abs(v - ref)) < 1e-10


def test_functionals_zero_mean(grid, rng):
    phi = 0.2 * band_limited(grid, rng, kmax=3)
    grad = gradient(grid, phi)
    for functional, model in ((sav_u_functional, "slope"),
                              (sav_v_functional, "noslope")):
        params = ModelParams(M=1.0, eps2=1.0, beta=2.0, C0=1.0, model=model)
        f = grid.ifft(functional(grid, grad, params)[0])
        assert abs(np.mean(f)) <= 1e-11 * max(np.sqrt(grid.integrate(f * f)), 1e-30)


@pytest.mark.parametrize("model", ["slope", "noslope"])
def test_functionals_fold_normalization_into_factor(grid, rng, model):
    """The flux scaled before the transforms matches the flux divided after them."""
    params = ModelParams(M=1.0, eps2=0.1, beta=4.0, C0=1.0, model=model)
    grad = gradient(grid, 0.3 * band_limited(grid, rng, kmax=6))
    gx, gy = grad
    x2 = gx * gx + gy * gy
    if model == "slope":
        fac = x2 - 1.0 - params.beta
        radicand = 0.25 * grid.integrate(fac * fac) + params.C0
        w_h, got = sav_u_functional(grid, grad, params)
    else:
        fac = 1.0 / (1.0 + x2) + params.beta
        radicand = grid.integrate(0.5 * np.log1p(x2) + 0.5 * params.beta * x2) + params.C0
        w_h, got = sav_v_functional(grid, grad, params)
    ref = grid.divergence_spectrum(np.stack((fac * gx, fac * gy))) / np.sqrt(radicand)
    assert got == pytest.approx(radicand, rel=1e-14)
    assert np.max(np.abs(w_h - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_weighted_left_operand_gives_inner_spec(grid, rng):
    fh = grid.fft(rng.standard_normal(grid.shape))
    gh = grid.fft(rng.standard_normal(grid.shape))
    weighted = grid.weigh(fh)
    assert weighted.shape == (2 * grid.nx * (grid.ny // 2 + 1),)
    assert grid.dot(weighted, gh) == grid.inner_spec(fh, gh)
    assert grid.dot(weighted, fh) == pytest.approx(grid.integrate(grid.ifft(fh) ** 2),
                                                   rel=1e-13)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(M=-1.0)
    with pytest.raises(ValueError):
        ModelParams(C0=0.0)
    with pytest.raises(ValueError):
        ModelParams(model="cubic")


@pytest.mark.parametrize("name", ["M", "eps2", "beta", "C0"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_model_params_reject_non_finite(name, value):
    with pytest.raises(ValueError):
        ModelParams(**{name: value})


def test_inner_products(grid):
    one = np.ones(grid.shape)
    sx = np.sin(grid.x) * np.ones_like(grid.y)
    assert grid.integrate(one * one) == pytest.approx(4 * math.pi ** 2, rel=1e-13)
    assert grid.integrate(sx * sx) == pytest.approx(2 * math.pi ** 2, rel=1e-13)
    assert abs(grid.integrate(np.sin(grid.x) * np.sin(grid.y))) < 1e-13


def test_parseval_consistency(grid, rng):
    f = band_limited(grid, rng)
    g = band_limited(grid, rng)
    spec = grid.inner_spec(grid.fft(f), grid.fft(g))
    assert spec == pytest.approx(grid.integrate(f * g), rel=1e-11)


def _weighted_inner_spec(grid, fh, gh):
    """Parseval by column weights 1, 2, ..., 2, 1 over the half-spectrum."""
    wcol = np.full(fh.shape[1], 2.0)
    wcol[0] = wcol[-1] = 1.0
    s = np.sum(wcol * (fh.real * gh.real + fh.imag * gh.imag))
    return float(s) * grid.hx * grid.hy / (grid.nx * grid.ny)


@pytest.mark.parametrize("nx", [4, 6, 16, 64, 256])
def test_inner_spec_matches_weighted_sum_and_grid(nx, rng):
    grid = Grid2D(nx)
    f = rng.standard_normal(grid.shape)
    g = f + 0.5 * rng.standard_normal(grid.shape)  # keeps (f, g) away from 0
    fh, gh = grid.fft(f), grid.fft(g)
    value = grid.inner_spec(fh, gh)
    for ref in (_weighted_inner_spec(grid, fh, gh),
                grid.integrate(grid.ifft(fh) * grid.ifft(gh))):
        assert value == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_inner_spec_of_non_contiguous_spectra(grid, rng):
    fh = grid.fft(rng.standard_normal(grid.shape))
    gh = grid.fft(rng.standard_normal(grid.shape))
    # the same values, laid out column-major
    fh_t, gh_t = fh.T.copy().T, gh.T.copy().T
    assert not fh_t.flags.c_contiguous
    assert grid.inner_spec(fh_t, gh_t) == grid.inner_spec(fh, gh)
    assert grid.inner_spec(fh_t, gh) == grid.inner_spec(fh, gh)


def test_snapshot_roundtrip(tmp_path, grid, rng):
    f = band_limited(grid, rng)
    path = tmp_path / "field.bin"
    write_field(path, grid, f)
    data = path.read_bytes()
    assert len(data) == 32 + 8 * grid.nx * grid.ny
    assert data[:8] == b"TFMBE2D\x00"
    back, (lx, ly) = read_field(path)
    assert np.array_equal(back, f)
    assert (lx, ly) == (grid.lx, grid.ly)


def test_snapshot_rejects_bad_magic(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOTMAGIC" + b"\x00" * 100)
    with pytest.raises(ValueError):
        read_field(p)


@pytest.mark.parametrize("cut", [20, 32 + 8 * 64 - 4, 32 + 8 * 64 - 8],
                         ids=["header", "mid-value", "value-boundary"])
def test_snapshot_rejects_truncated_file(tmp_path, cut):
    grid = Grid2D(8)
    path = tmp_path / "field.bin"
    write_field(path, grid, np.ones(grid.shape))
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(ValueError, match=r"field\.bin: truncated snapshot"):
        read_field(path)


@pytest.mark.parametrize("shape", [(8, 4), (64,)])
def test_snapshot_rejects_field_of_wrong_shape(tmp_path, shape):
    path = tmp_path / "field.bin"
    with pytest.raises(ValueError, match=r"does not match grid \(8, 8\)"):
        write_field(path, Grid2D(8), np.ones(shape))
    assert not path.exists()


@pytest.mark.parametrize("nx,ny", [(-8, -8), (0, 8)])
def test_snapshot_rejects_empty_grid(tmp_path, nx, ny):
    path = tmp_path / "field.bin"
    header = struct.pack("<8sii2d", b"TFMBE2D\x00", nx, ny, 1.0, 1.0)
    path.write_bytes(header + b"\x00" * 8 * 64)
    with pytest.raises(ValueError, match=r"field\.bin: snapshot grid"):
        read_field(path)
