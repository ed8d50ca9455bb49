"""Configuration-driven experiment runner.

Subcommands mirror the library modules:

    tomography | harmonic | cat | standard-map | oracle | compare

One table, `COMMANDS`, declares each subcommand: its help line, the function
that runs it, and its parameters with their defaults.  The flags, their types
and choices (`CHOICES`), and the config-file checks are all generated from
that entry.  A parameter's type is the type of its default: a config value of
another type, or outside the choices, fails with `file:line`.  An integer is
accepted for a float parameter and stored as a float; a boolean is never a
number.

Each run function fills a JSON result record (input echo, library version,
results) and returns its summary line and its CSV tables; it writes nothing.
`main` alone touches the output directory: after a run succeeds it creates
`--out`, writes the tables and writes the record last, so a failed run leaves
no directory and no record.  `--format json` writes only the record.
Parameters come from an optional key = value config file overridden by
command-line flags; flags win.  All floats in artifacts are rounded to 12
significant digits so identical inputs produce byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 numerical/module error or an
artifact that cannot be written (`"error": "io"`).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, TomolyapError, ValidationError
from .estimator import estimate_exponent, running_estimate
from .floquet import (
    CatVariant,
    build_cat_model,
    cat_lyapunov,
    floquet_lambda,
    harmonic_derivative_series,
    harmonic_floquet_eigenvalues,
    harmonic_lyapunov,
    verify_quadratic_deformation_vanishes,
)
from .oracle import CatMap, HarmonicKick, KickedMapSpec, StandardMap, tangent_map_lyapunov
from .standard_map import (
    StandardMapParams,
    classical_lyapunov,
    hbar_resonance,
    run_standard_map,
)
from .tomography import (
    GaussianDensity,
    forward_tomogram,
    gaussian_tomogram_family,
    inverse_tomogram,
    tomogram_mean_position,
)

FLOAT_FMT = "%.12g"
# standard-map at hbar > 0 and the compare quantum column run the lattice engine
FIRST_ORDER_NOTE = ("note: the quantum standard map here is the lattice's two-term kick, the "
                    "first-order, non-unitary recursion; tomolyap.hilbert.quantum_probes "
                    "gives the exact quantum map")


def _round12(value):
    """Round floats (recursively) to 12 significant digits for stable output."""
    if isinstance(value, float):
        return float(FLOAT_FMT % value)
    if isinstance(value, complex):
        return {"re": _round12(value.real), "im": _round12(value.imag)}
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_round12(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return _round12(float(value))
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([FLOAT_FMT % v if isinstance(v, (float, np.floating)) else v
                             for v in row])


def series_table(series) -> tuple[list[str], list]:
    """Engine time-series layout: derivatives, probe magnitude, log norm."""
    norms = series.norms()
    probes = series.probe_values
    rows = [[t,
             float(series.g2[t].real), float(series.g2[t].imag),
             float(series.g3[t].real), float(series.g3[t].imag),
             float(abs(probes[t])) if probes is not None else float("nan"),
             float(np.log(norms[t])) if norms[t] > 0 else float("-inf")]
            for t in range(len(series))]
    return ["t", "re_g2", "im_g2", "re_g3", "im_g3", "abs_probe", "log_norm"], rows


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------


def load_config(path: str | None) -> tuple[dict, dict]:
    """Parse a key = value file; JSON-style scalars, # comments allowed.

    Returns the values (a repeated key keeps its last value) and, per key,
    the lines it appears on.
    """
    values: dict = {}
    lines_of: dict = {}
    if path is None:
        return values, lines_of
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip().replace("-", "_")
        text = text.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        lines_of.setdefault(key, []).append(lineno)
        try:
            values[key] = json.loads(text)
        except json.JSONDecodeError:
            values[key] = text
    return values, lines_of


KIND_NAMES = {int: "an integer", float: "a number", str: "a string"}


def check_config_value(key: str, value, default, where: str):
    """`value` as the type of `default`, within `CHOICES[key]`; else ConfigError."""
    kind = type(default)
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{where}: {key} must be {KIND_NAMES[kind]}, got {value!r}")
    if key in CHOICES and value not in CHOICES[key]:
        raise ConfigError(f"{where}: {key} must be one of {', '.join(CHOICES[key])}, got {value!r}")
    return kind(value)


def merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Flags override values from `--config` override defaults; unknown keys fail."""
    config, lines_of = load_config(args.config)
    unknown = set(config) - set(defaults)
    if unknown:
        key = min(unknown, key=lambda k: lines_of[k][0])
        raise ConfigError(f"{args.config}:{lines_of[key][0]}: unknown key {key!r}")
    merged = {}
    for key, default in defaults.items():
        flag = getattr(args, key)
        if flag is not None:
            merged[key] = flag
        elif key in config:
            merged[key] = check_config_value(key, config[key], default,
                                             f"{args.config}:{lines_of[key][-1]}")
        else:
            merged[key] = default
    return merged


# ---------------------------------------------------------------------------
# subcommands: each fills `record` and returns the summary printed on
# success and its CSV tables, {file name: (header, rows)}
# ---------------------------------------------------------------------------


def run_harmonic(cfg: dict, record: dict) -> tuple[str, dict]:
    series = harmonic_derivative_series(cfg["z"], cfg["n"], cfg["v1"], cfg["v2"])
    estimate = estimate_exponent(series)
    eig = harmonic_floquet_eigenvalues(cfg["z"])
    record.update({
        "eigenvalues": [eig[0], eig[1]],
        "closed_form_lyapunov": harmonic_lyapunov(cfg["z"]),
        "estimate": estimate.to_dict(),
        "series_file": "harmonic_series.csv",
    })
    return (f"harmonic z={cfg['z']}: lyapunov={record['closed_form_lyapunov']:.6f} "
            f"estimate={estimate.slope:.6f} ({estimate.classification})",
            {"harmonic_series.csv": series_table(series)})


def run_cat(cfg: dict, record: dict) -> tuple[str, dict]:
    variant = CatVariant(cfg["variant"])
    model = build_cat_model(variant)
    flo = floquet_lambda(model, cfg["n_kicks"])
    record.update({
        "floquet_matrix": flo.matrix,
        "eigenvalues": sorted(flo.eigenvalues(), key=abs),
        "lyapunov": cat_lyapunov(variant),
        "deformation_vanishes": verify_quadratic_deformation_vanishes(model),
    })
    return f"cat {variant.value}: lyapunov={record['lyapunov']:.6f}", {}


def run_standard_map_cmd(cfg: dict, record: dict) -> tuple[str, dict]:
    params = StandardMapParams(**{k: v for k, v in cfg.items() if k != "n"})
    resonance = hbar_resonance(params)
    if resonance is not None:
        print(f"warning: hbar*tau/(4*pi) is within 1e-9 of {resonance[0]}/{resonance[1]}; "
              "the generic-kicking assumption fails at rational values", file=sys.stderr)
    if not params.classical:
        print(FIRST_ORDER_NOTE, file=sys.stderr)
    series, estimate = run_standard_map(params, cfg["n"])
    running = running_estimate(series)
    record.update({
        "estimate": estimate.to_dict(),
        "running_estimate_final": {"t": int(running[-1, 0]), "value": float(running[-1, 1])},
    })
    if params.classical:
        record["closed_form_lyapunov"] = classical_lyapunov(
            params.gamma if abs(params.q0) < 1e-12 else -params.gamma)
    record["series_file"] = "standard_map_series.csv"
    return (f"standard-map gamma={params.gamma} hbar={params.hbar}: "
            f"estimate={estimate.slope:.6f} ({estimate.classification})",
            {"standard_map_series.csv": series_table(series),
             "standard_map_running.csv": (["t", "lambda_hat"],
                                          [[int(t), float(v)] for t, v in running])})


# --map choice: (map class, label format over the config)
ORACLE_MAPS = {
    "standard": (StandardMap, "standard_map(gamma={gamma}, tau={tau})"),
    "harmonic": (HarmonicKick, "harmonic_kick(z={z})"),
    "cat": (CatMap, "cat_map({variant})"),
}


def run_oracle(cfg: dict, record: dict) -> tuple[str, dict]:
    cls, label_format = ORACLE_MAPS[cfg["map"]]
    label = label_format.format(**cfg)
    # the chosen map's fields that the config holds: the parameters it reads
    read = [f.name for f in fields(cls) if f.name in cfg]
    spec = cls(**{k: cfg[k] for k in read})
    record["params"] = {k: v for k, v in cfg.items() if k in ("map", "steps", *read)}
    lam = tangent_map_lyapunov(spec, cfg["steps"])
    record["lambda"] = lam
    return (f"oracle {label}: lambda={lam:.6f}",
            {"oracle_result.csv": (["spec", "n_steps", "lambda"], [[label, cfg["steps"], lam]])})


def run_tomography(cfg: dict, record: dict) -> tuple[str, dict]:
    density = GaussianDensity(cfg["mean_q"], cfg["mean_p"], cfg["sigma_q"],
                              cfg["sigma_p"], cfg["correlation"])
    tomogram = forward_tomogram(density, cfg["mu"], cfg["nu"], x_grid=cfg["x_points"])
    record.update({
        "mass": tomogram.mass(),
        "mean": tomogram.mean(),
        "variance": tomogram.variance(),
    })
    if cfg["mu"] == 1.0 and cfg["nu"] == 0.0:
        record["mean_position"] = tomogram_mean_position(tomogram)
    if cfg["homogeneity_samples"] < 0:
        raise ValidationError("homogeneity_samples must be nonnegative")
    if cfg["homogeneity_samples"] > 0:
        rng = np.random.default_rng(record["seed"] if record["seed"] is not None else 0)
        worst = 0.0
        for _ in range(cfg["homogeneity_samples"]):
            scale = rng.uniform(0.1, 10.0)
            scaled = forward_tomogram(density, scale * cfg["mu"], scale * cfg["nu"],
                                      x_grid=scale * tomogram.x)
            worst = max(worst, float(np.max(np.abs(scaled.values * scale - tomogram.values))))
        record["homogeneity_max_defect"] = worst
    if cfg["directions"] != 0:
        recon = inverse_tomogram(gaussian_tomogram_family(density, cfg["directions"]))
        mq, mp = recon.moments()
        record["reconstruction"] = {
            "directions": cfg["directions"],
            "mass": recon.mass(),
            "mean_q": mq,
            "mean_p": mp,
        }
    record["series_file"] = "tomogram.csv"
    return (f"tomography (mu={cfg['mu']}, nu={cfg['nu']}): mean={record['mean']:.6f} "
            f"mass={record['mass']:.6f}",
            {"tomogram.csv": (["X", "w"], zip(tomogram.x, tomogram.values))})


def run_compare(cfg: dict, record: dict) -> tuple[str, dict]:
    """Side-by-side exponents for the three systems sharing ln((3+sqrt5)/2)."""
    n, steps = cfg["n"], cfg["oracle_steps"]
    rows = []
    h_est = estimate_exponent(harmonic_derivative_series(cfg["z"], max(n, 200)))
    rows.append({
        "system": f"harmonic_kick(z={cfg['z']})",
        "classical_lambda": h_est.slope,
        "quantum_lambda": h_est.slope,  # quadratic kick: same evolution law
        "oracle_lambda": tangent_map_lyapunov(KickedMapSpec.harmonic_kick(cfg["z"]), steps),
        "closed_form_lambda": harmonic_lyapunov(cfg["z"]),
    })

    cat = cat_lyapunov(CatVariant.KICK_ONLY)
    rows.append({
        "system": "cat_map(kick_only)",
        "classical_lambda": cat,
        "quantum_lambda": cat,  # quadratic model: same evolution law
        "oracle_lambda": tangent_map_lyapunov(KickedMapSpec.cat_map(CatVariant.KICK_ONLY), steps),
        "closed_form_lambda": 2.0 * np.log((1.0 + np.sqrt(5.0)) / 2.0),
    })

    _, cl_est = run_standard_map(StandardMapParams(gamma=cfg["gamma"]), n)
    print(FIRST_ORDER_NOTE, file=sys.stderr)
    _, qu_est = run_standard_map(StandardMapParams(gamma=cfg["gamma"], hbar=1.0), n)
    rows.append({
        "system": f"standard_map(gamma={cfg['gamma']})",
        "classical_lambda": cl_est.slope,
        "quantum_lambda": qu_est.slope,
        "oracle_lambda": tangent_map_lyapunov(KickedMapSpec.standard_map(cfg["gamma"]), steps),
        "closed_form_lambda": classical_lyapunov(cfg["gamma"]),
    })

    record["rows"] = rows
    columns = ["system", "classical_lambda", "quantum_lambda", "oracle_lambda", "closed_form_lambda"]
    return ("\n".join(f"{r['system']}: classical={r['classical_lambda']:.6f} "
                      f"quantum={r['quantum_lambda']:.6f} oracle={r['oracle_lambda']:.6f} "
                      f"closed_form={r['closed_form_lambda']:.6f}" for r in rows),
            {"compare.csv": (columns, [[r[c] for c in columns] for r in rows])})


# ---------------------------------------------------------------------------
# the command table and the parser generated from it
# ---------------------------------------------------------------------------

CHOICES = {
    "variant": tuple(v.value for v in CatVariant),
    "map": ("standard", "harmonic", "cat"),
}

# name: (help, run, {parameter: default}); a parameter's type is its default's
COMMANDS = {
    "harmonic": ("harmonically kicked particle on the line", run_harmonic,
                 {"z": 5.0, "n": 200, "v1": 1.0, "v2": 1.0}),
    "cat": ("configurational cat models", run_cat,
            {"variant": "kick_only", "n_kicks": 1}),
    "standard-map": ("kicked rotor lattice engine; hbar = 0 selects the classical kick",
                     run_standard_map_cmd,
                     {"gamma": 1.0, "tau": 1.0, "hbar": 0.0, "q0": 0.0, "p0": 0.0,
                      "v1": 1.0, "v2": 1.0, "n": 60}),
    "oracle": ("trajectory/tangent-map exponent", run_oracle,
               {"map": "standard", "gamma": 1.0, "tau": 1.0, "z": 5.0,
                "variant": "kick_only", "q0": 0.0, "p0": 0.0, "steps": 10000}),
    "tomography": ("Gaussian forward/inverse tomography demo; directions > 0 also reconstructs",
                   run_tomography,
                   {"mean_q": 0.0, "mean_p": 0.0, "sigma_q": 1.0, "sigma_p": 1.0,
                    "correlation": 0.0, "mu": 1.0, "nu": 0.0, "x_points": 256,
                    "directions": 0, "homogeneity_samples": 0}),
    "compare": ("cross-system exponent table", run_compare,
                {"z": 5.0, "gamma": 1.0, "n": 60, "oracle_steps": 10000}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tomolyap",
        description="Classical and quantum Lyapunov exponents for kicked systems "
                    "via marginal-distribution (tomographic) dynamics.")
    parser.add_argument("--version", action="version", version=f"tomolyap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, params) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--out", default=".", help="output directory (created if missing)")
        p.add_argument("--format", choices=("csv", "json", "both"), default="both")
        p.add_argument("--seed", type=int, default=None, help="seed for randomized sweeps")
        p.add_argument("--config", default=None, help="key = value config file; flags win")
        for key, default in params.items():
            p.add_argument("--" + key.replace("_", "-"), type=type(default),
                           choices=CHOICES.get(key), default=None, help=f"default {default}")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    kind = args.command.replace("-", "_")
    _, run, defaults = COMMANDS[args.command]
    try:
        cfg = merge_config(args, defaults)
        record = {"kind": kind, "version": __version__, "seed": args.seed, "params": dict(cfg)}
        summary, tables = run(cfg, record)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TomolyapError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 3
    if args.format == "json":
        tables = {}
        record.pop("series_file", None)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, (header, rows) in tables.items():
            write_csv(out / name, header, rows)
        # the record last, so a run that fails to write leaves no record
        (out / f"{kind}_result.json").write_text(json.dumps(_round12(record), indent=2) + "\n")
    except OSError as exc:
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return 3
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
