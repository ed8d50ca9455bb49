"""Print one SHA-256 per module over fixed inputs, to show that a change keeps
the library's outputs bit for bit.

    python tools/output_digest.py

It imports `tomolyap` from the `src` directory beside this script, so a copy
of it in another checkout digests that checkout's code; equal lines mean
equal outputs.  Floats are hashed by `float.hex`, arrays by dtype, shape and
bytes, and an expected error by its type and message.  It runs in a few
seconds.

- tomography: Gaussian, gridded and pure-state families (grid, directions
  and values of every tomogram, with their mass, mean and variance), both
  reconstructions of each family and their moments, the family of a
  reconstructed density (which fails its mass check: the error text), and
  the projected moments each state type gives;
- floquet: the harmonic kick's derivative series;
- oracle: the three tangent-map exponents at 2,000 steps;
- standard_map.classical and standard_map.quantum: `lattice_probes` at
  n = 30 and hbar = 0 or hbar = 1, at four base points, two of which run
  split on the lattice and two direct;
- symbolic: `symbolic_expand` at n = 8.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tomolyap import (  # noqa: E402
    GaussianDensity,
    GridDensity,
    StandardMapParams,
    TomolyapError,
    WaveFunction,
    gaussian_tomogram_family,
    harmonic_derivative_series,
    inverse_tomogram,
    lattice_probes,
    pure_state_tomogram_family,
    symbolic_expand,
    tangent_map_lyapunov,
    tomogram_mean_position,
    wigner_from_tomogram,
)
from tomolyap.oracle import CatMap, HarmonicKick, StandardMap  # noqa: E402

DIRECTIONS = 64


def feed(h, value) -> None:
    """Add `value` to the hash `h`, tagged with its kind."""
    if isinstance(value, np.ndarray):
        h.update(f"a{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (list, tuple)):
        h.update(f"l{len(value)}".encode())
        for item in value:
            feed(h, item)
    elif isinstance(value, str):
        h.update(f"s{len(value)}:{value}".encode())
    elif isinstance(value, (complex, np.complexfloating)):
        h.update(f"c{complex(value).real.hex()},{complex(value).imag.hex()}".encode())
    else:
        h.update(f"f{float(value).hex()}".encode())


def attempt(call):
    """The value of `call()`, or its error's type and message."""
    try:
        return call()
    except TomolyapError as exc:
        return f"{type(exc).__name__}: {exc}"


def coherent_state(shift_q: float, shift_p: float, dy: float = 0.004, span: float = 10.0):
    y = np.arange(-span + shift_q, span + shift_q + dy / 2, dy)
    psi = np.exp(-((y - shift_q) ** 2) / 2.0) * np.exp(1j * shift_p * y)
    return WaveFunction(y, psi / np.sqrt(np.sum(np.abs(psi) ** 2) * dy))


def family_outputs(family) -> list:
    return [[t.x, t.values, t.mu, t.nu, t.mass(), t.mean(), t.variance()] for t in family]


def reconstruction_outputs(family) -> list:
    density = inverse_tomogram(family)
    wigner = wigner_from_tomogram(family)
    return [density.q, density.values, density.mass(), density.moments(),
            wigner.q, wigner.values, wigner.mass()], density


def projected(state) -> list:
    thetas = np.arange(DIRECTIONS) * np.pi / DIRECTIONS
    return [state.projected_moments(np.cos(t), np.sin(t)) for t in thetas]


def tomography() -> list:
    out = []
    for density in (GaussianDensity(0.4, -0.3, 1.1, 0.9, 0.2), GaussianDensity()):
        family = gaussian_tomogram_family(density)
        recon, reconstructed = reconstruction_outputs(family)
        out += [projected(density), family_outputs(family), tomogram_mean_position(family[0]),
                recon, projected(reconstructed),
                attempt(lambda: family_outputs(gaussian_tomogram_family(reconstructed)))]
    q = np.linspace(-7.0, 7.0, 121)
    sampled = GaussianDensity(0.3, 0.2, 1.0, 1.2, -0.25)
    grid = GridDensity(q, q, sampled.pdf(q[:, None], q[None, :]), norm_tol=1e-4)
    family = gaussian_tomogram_family(grid, 32)
    out += [grid.moments(), projected(grid), family_outputs(family),
            reconstruction_outputs(family)[0]]
    psi = coherent_state(0.3, -0.2)
    family = pure_state_tomogram_family(psi)
    out += [psi.position_moments(), psi.momentum_moments(), family_outputs(family),
            wigner_from_tomogram(family).values]
    return out


def floquet() -> list:
    out = []
    for z, n, v1, v2 in ((5.0, 200, 1.0, 1.0), (4.5, 64, 0.3, -1.2)):
        series = harmonic_derivative_series(z, n, v1, v2)
        out += [series.g2, series.g3]
    return out


def oracle() -> list:
    maps = (StandardMap(1.0), StandardMap(1.1, tau=0.5, q0=0.7, p0=0.2), HarmonicKick(5.0),
            CatMap("h1"), CatMap("kick_only"))
    return [attempt(lambda: tangent_map_lyapunov(spec, 2000)) for spec in maps]


BASE_POINTS = (StandardMapParams(1.0, hbar=0.0),
               StandardMapParams(1.0, hbar=0.0, p0=np.pi),
               StandardMapParams(1.0, hbar=0.0, q0=1.3, p0=0.4),
               StandardMapParams(0.9, hbar=0.0, q0=1.3))


def standard_map(hbar: float) -> list:
    # the first two base points run split on the lattice, the last two
    # direct; each probe row is hashed as a pair of complex numbers
    return [[tuple(row) for row in lattice_probes(replace(params, hbar=hbar), 30)]
            for params in BASE_POINTS]


def symbolic() -> list:
    return [symbolic_expand(StandardMapParams(gamma, hbar=hbar, v1=0.7, v2=-1.3), 8)
            for gamma in (0.8, 1.0) for hbar in (0.0, 1.0)]


def main() -> None:
    for name, outputs in (("tomography", tomography), ("floquet", floquet), ("oracle", oracle),
                          ("standard_map.classical", lambda: standard_map(0.0)),
                          ("standard_map.quantum", lambda: standard_map(1.0)),
                          ("symbolic", symbolic)):
        h = hashlib.sha256()
        feed(h, outputs())
        print(f"{name:24s}{h.hexdigest()}")


if __name__ == "__main__":
    main()
