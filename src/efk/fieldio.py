"""Field serialization: CSV of grid values with a JSON header sidecar, plus
an optional little-endian float64 binary for bit-exact coefficient round trips.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .domains import annulus, ball, hyperrectangle, quadrant_square
from .radial import RadialField
from .spectral import SpectralField, from_values


def _paths(path) -> tuple[Path, Path, Path]:
    p = Path(path)
    # append extensions to the base name (never rewrite dots inside it)
    base = p.parent / p.name[: -4] if p.name.endswith(".csv") else p
    return (base.parent / (base.name + ".csv"),
            base.parent / (base.name + ".json"),
            base.parent / (base.name + ".bin"))


def _write_csv(path, names: str, columns) -> None:
    """Equal-size arrays as CSV columns under the header line `names`;
    %.17g round-trips every float64 exactly."""
    np.savetxt(path, np.column_stack([np.ravel(c) for c in columns]),
               fmt="%.17g", delimiter=",", header=names, comments="")


def save_field(field, path, beta: float | None = None, binary: bool = True) -> Path:
    """Write <path>.csv (+ .json sidecar, + .bin coefficients when binary)."""
    csv_path, json_path, bin_path = _paths(path)
    if isinstance(field, SpectralField):
        header = {
            "format": "spectral",
            "kind": field.domain.kind,
            "dim": field.domain.dim,
            "lengths": list(field.domain.lengths),
            "modes": list(field.modes),
            "beta": beta,
            "csv": csv_path.name,
            "binary": bin_path.name if binary else None,
        }
        if field.domain.dim > 2:
            raise ValueError("CSV output supports dim <= 2")
        names = ",".join("xy"[: field.domain.dim]) + ",u"
        _write_csv(csv_path, names,
                   [*np.meshgrid(*field.grids, indexing="ij"), field.values])
        if binary:
            np.asarray(field.coeffs, dtype="<f8").tofile(bin_path)
    elif isinstance(field, RadialField):
        header = {
            "format": "radial",
            "kind": field.domain.kind,
            "dim": field.domain.dim,
            "radius": field.domain.radius,
            "inner_radius": field.domain.inner_radius,
            "n_points": field.n_points,
            "beta": beta,
            "csv": csv_path.name,
            "binary": bin_path.name if binary else None,
        }
        _write_csv(csv_path, "r,u", [field.r, field.values])
        if binary:
            np.asarray(field.values, dtype="<f8").tofile(bin_path)
    else:
        raise TypeError(f"cannot serialize {type(field).__name__}")
    with open(json_path, "w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path


def load_field(path):
    """Rebuild a field from <path>.csv + sidecar (binary preferred if present)."""
    csv_path, json_path, _ = _paths(path)
    with open(json_path) as fh:
        header = json.load(fh)
    fmt = header["format"]
    folder = csv_path.parent
    if fmt == "spectral":
        if header["kind"] == "quadrant_square":
            domain = quadrant_square(header["lengths"][0])
        else:
            domain = hyperrectangle(*header["lengths"])
        modes = tuple(header["modes"])
        if header.get("binary"):
            coeffs = np.fromfile(folder / header["binary"], dtype="<f8").reshape(modes)
            return SpectralField(domain, coeffs.astype(float))
        data = np.genfromtxt(folder / header["csv"], delimiter=",", skip_header=1, ndmin=2)
        vals = data[:, -1].reshape(modes)
        return from_values(domain, vals)
    if fmt == "radial":
        if header["kind"] == "ball":
            domain = ball(header["radius"], dim=header["dim"])
        else:
            domain = annulus(header["inner_radius"], header["radius"],
                             dim=header["dim"])
        if header.get("binary"):
            vals = np.fromfile(folder / header["binary"], dtype="<f8").astype(float)
        else:
            data = np.genfromtxt(folder / header["csv"], delimiter=",", skip_header=1)
            vals = data[:, 1]
        return RadialField(domain, vals)
    raise ValueError(f"unknown field format {fmt!r}")


def load_beta(path) -> float | None:
    _, json_path, _ = _paths(path)
    with open(json_path) as fh:
        return json.load(fh).get("beta")
