"""Configuration-driven experiment runner.

Subcommands mirror the library modules:

    tomography | harmonic | cat | standard-map | oracle | compare

Each run writes a JSON result record (input echo, library version, results)
plus subcommand-specific CSV series into the output directory.  Parameters
come from an optional key = value config file overridden by command-line
flags; flags win.  All floats in artifacts are rounded to 12 significant
digits so identical inputs produce byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 numerical/module error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, TomolyapError
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
from .oracle import KickedMapSpec, tangent_map_lyapunov
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


def write_json(path: Path, record: dict) -> None:
    path.write_text(json.dumps(_round12(record), indent=2) + "\n")


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([FLOAT_FMT % v if isinstance(v, (float, np.floating)) else v
                             for v in row])


def write_series_csv(path: Path, series) -> None:
    """Engine time-series layout: derivatives, probe magnitude, log norm."""
    norms = series.norms()
    probes = series.probe_values
    rows = []
    for t in range(len(series)):
        rows.append([
            t,
            float(series.g2[t].real), float(series.g2[t].imag),
            float(series.g3[t].real), float(series.g3[t].imag),
            float(abs(probes[t])) if probes is not None else float("nan"),
            float(np.log(norms[t])) if norms[t] > 0 else float("-inf"),
        ])
    write_csv(path, ["t", "re_g2", "im_g2", "re_g3", "im_g3", "abs_probe", "log_norm"], rows)


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------


def load_config(path: str | None) -> tuple[dict, dict]:
    """Parse a key = value file; JSON-style scalars, # comments allowed.

    Returns the values (a repeated key keeps its last value) and the line
    each key first appears on.
    """
    values: dict = {}
    first_line: dict = {}
    if path is None:
        return values, first_line
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
        first_line.setdefault(key, lineno)
        try:
            values[key] = json.loads(text)
        except json.JSONDecodeError:
            values[key] = text
    return values, first_line


def merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Flags override values from `--config` override defaults; unknown keys fail."""
    config, first_line = load_config(args.config)
    unknown = set(config) - set(defaults)
    if unknown:
        key = min(unknown, key=first_line.__getitem__)
        raise ConfigError(f"{args.config}:{first_line[key]}: unknown key {key!r}")
    merged = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
        elif key in config:
            merged[key] = config[key]
        else:
            merged[key] = default
    return merged


def _base_record(kind: str, params: dict, seed) -> dict:
    return {"kind": kind, "version": __version__, "seed": seed, "params": dict(params)}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_harmonic(args) -> int:
    defaults = {"z": 5.0, "n": 200, "v1": 1.0, "v2": 1.0}
    cfg = merge_config(args, defaults)
    out = Path(args.out)
    series = harmonic_derivative_series(cfg["z"], int(cfg["n"]), cfg["v1"], cfg["v2"])
    estimate = estimate_exponent(series)
    eig = harmonic_floquet_eigenvalues(cfg["z"])
    record = _base_record("harmonic", cfg, args.seed)
    record.update({
        "eigenvalues": [eig[0], eig[1]],
        "closed_form_lyapunov": harmonic_lyapunov(cfg["z"]),
        "estimate": estimate.to_dict(),
    })
    if args.format in ("csv", "both"):
        write_series_csv(out / "harmonic_series.csv", series)
        record["series_file"] = "harmonic_series.csv"
    write_json(out / "harmonic_result.json", record)
    print(f"harmonic z={cfg['z']}: lyapunov={record['closed_form_lyapunov']:.6f} "
          f"estimate={estimate.slope:.6f} ({estimate.classification})")
    return 0


def cmd_cat(args) -> int:
    defaults = {"variant": "kick_only", "n_kicks": 1}
    cfg = merge_config(args, defaults)
    out = Path(args.out)
    variant = CatVariant(cfg["variant"])
    model = build_cat_model(variant)
    flo = floquet_lambda(model, int(cfg["n_kicks"]))
    eigs = sorted(flo.eigenvalues(), key=lambda x: abs(x))
    record = _base_record("cat", {"variant": variant.value, "n_kicks": int(cfg["n_kicks"])}, args.seed)
    record.update({
        "floquet_matrix": flo.matrix,
        "eigenvalues": list(eigs),
        "lyapunov": cat_lyapunov(variant),
        "deformation_vanishes": verify_quadratic_deformation_vanishes(model),
    })
    write_json(out / "cat_result.json", record)
    print(f"cat {variant.value}: lyapunov={record['lyapunov']:.6f}")
    return 0


def cmd_standard_map(args) -> int:
    defaults = {"gamma": 1.0, "tau": 1.0, "hbar": 0.0, "q0": 0.0, "p0": 0.0,
                "v1": 1.0, "v2": 1.0, "n": 60}
    cfg = merge_config(args, defaults)
    out = Path(args.out)
    params = StandardMapParams(gamma=cfg["gamma"], tau=cfg["tau"], hbar=cfg["hbar"],
                               q0=cfg["q0"], p0=cfg["p0"], v1=cfg["v1"], v2=cfg["v2"])
    resonance = hbar_resonance(params)
    if resonance is not None:
        print(f"warning: hbar*tau/(4*pi) is within 1e-9 of {resonance[0]}/{resonance[1]}; "
              "the generic-kicking assumption fails at rational values", file=sys.stderr)
    if not params.classical:
        print(FIRST_ORDER_NOTE, file=sys.stderr)
    series, estimate = run_standard_map(params, int(cfg["n"]))
    running = running_estimate(series)
    record = _base_record("standard_map", cfg, args.seed)
    record.update({
        "estimate": estimate.to_dict(),
        "running_estimate_final": {"t": int(running[-1, 0]), "value": float(running[-1, 1])},
    })
    if params.classical:
        record["closed_form_lyapunov"] = classical_lyapunov(
            params.gamma if abs(params.q0) < 1e-12 else -params.gamma)
    if args.format in ("csv", "both"):
        write_series_csv(out / "standard_map_series.csv", series)
        write_csv(out / "standard_map_running.csv", ["t", "lambda_hat"],
                  [[int(t), float(v)] for t, v in running])
        record["series_file"] = "standard_map_series.csv"
    write_json(out / "standard_map_result.json", record)
    print(f"standard-map gamma={params.gamma} hbar={params.hbar}: "
          f"estimate={estimate.slope:.6f} ({estimate.classification})")
    return 0


def cmd_oracle(args) -> int:
    defaults = {"map": "standard", "gamma": 1.0, "tau": 1.0, "z": 5.0,
                "variant": "kick_only", "q0": 0.0, "p0": 0.0, "steps": 10000}
    cfg = merge_config(args, defaults)
    out = Path(args.out)
    if cfg["map"] == "standard":
        spec = KickedMapSpec.standard_map(cfg["gamma"], cfg["tau"], cfg["q0"], cfg["p0"])
        label = f"standard_map(gamma={cfg['gamma']}, tau={cfg['tau']})"
    elif cfg["map"] == "harmonic":
        spec = KickedMapSpec.harmonic_kick(cfg["z"], cfg["q0"], cfg["p0"])
        label = f"harmonic_kick(z={cfg['z']})"
    elif cfg["map"] == "cat":
        spec = KickedMapSpec.cat_map(CatVariant(cfg["variant"]))
        label = f"cat_map({cfg['variant']})"
    else:
        raise ConfigError(f"unknown oracle map {cfg['map']!r} (standard|harmonic|cat)")
    lam = tangent_map_lyapunov(spec, int(cfg["steps"]))
    record = _base_record("oracle", cfg, args.seed)
    record.update({"lambda": lam})
    write_csv(out / "oracle_result.csv", ["spec", "n_steps", "lambda"],
              [[label, int(cfg["steps"]), lam]])
    write_json(out / "oracle_result.json", record)
    print(f"oracle {label}: lambda={lam:.6f}")
    return 0


def cmd_tomography(args) -> int:
    defaults = {"mean_q": 0.0, "mean_p": 0.0, "sigma_q": 1.0, "sigma_p": 1.0,
                "correlation": 0.0, "mu": 1.0, "nu": 0.0, "x_points": 256,
                "directions": 0, "homogeneity_samples": 0}
    cfg = merge_config(args, defaults)
    out = Path(args.out)
    density = GaussianDensity(cfg["mean_q"], cfg["mean_p"], cfg["sigma_q"],
                              cfg["sigma_p"], cfg["correlation"])
    tomogram = forward_tomogram(density, cfg["mu"], cfg["nu"], x_grid=int(cfg["x_points"]))
    record = _base_record("tomography", cfg, args.seed)
    record.update({
        "mass": tomogram.mass(),
        "mean": tomogram.mean(),
        "variance": tomogram.variance(),
    })
    if cfg["mu"] == 1.0 and cfg["nu"] == 0.0:
        record["mean_position"] = tomogram_mean_position(tomogram)
    if int(cfg["homogeneity_samples"]) > 0:
        rng = np.random.default_rng(args.seed if args.seed is not None else 0)
        worst = 0.0
        for _ in range(int(cfg["homogeneity_samples"])):
            scale = rng.uniform(0.1, 10.0)
            scaled = forward_tomogram(density, scale * cfg["mu"], scale * cfg["nu"],
                                      x_grid=scale * tomogram.x)
            worst = max(worst, float(np.max(np.abs(scaled.values * scale - tomogram.values))))
        record["homogeneity_max_defect"] = worst
    if int(cfg["directions"]) > 0:
        family = gaussian_tomogram_family(density, int(cfg["directions"]))
        recon = inverse_tomogram(family)
        mq, mp = recon.moments()
        record["reconstruction"] = {
            "directions": int(cfg["directions"]),
            "mass": recon.mass(),
            "mean_q": mq,
            "mean_p": mp,
        }
    if args.format in ("csv", "both"):
        tomogram.to_csv(out / "tomogram.csv", float_fmt=FLOAT_FMT)
        record["series_file"] = "tomogram.csv"
    write_json(out / "tomography_result.json", record)
    print(f"tomography (mu={cfg['mu']}, nu={cfg['nu']}): mean={record['mean']:.6f} "
          f"mass={record['mass']:.6f}")
    return 0


def cmd_compare(args) -> int:
    """Side-by-side exponents for the three systems sharing ln((3+sqrt5)/2)."""
    defaults = {"z": 5.0, "gamma": 1.0, "n": 60, "oracle_steps": 10000}
    cfg = merge_config(args, defaults)
    out = Path(args.out)
    n = int(cfg["n"])

    rows = []
    h_series = harmonic_derivative_series(cfg["z"], max(n, 200))
    h_est = estimate_exponent(h_series)
    rows.append({
        "system": f"harmonic_kick(z={cfg['z']})",
        "classical_lambda": h_est.slope,
        "quantum_lambda": h_est.slope,  # quadratic kick: same evolution law
        "oracle_lambda": tangent_map_lyapunov(KickedMapSpec.harmonic_kick(cfg["z"]),
                                              int(cfg["oracle_steps"])),
        "closed_form_lambda": harmonic_lyapunov(cfg["z"]),
    })

    cat = cat_lyapunov(CatVariant.KICK_ONLY)
    rows.append({
        "system": "cat_map(kick_only)",
        "classical_lambda": cat,
        "quantum_lambda": cat,  # quadratic model: same evolution law
        "oracle_lambda": tangent_map_lyapunov(KickedMapSpec.cat_map(CatVariant.KICK_ONLY),
                                              int(cfg["oracle_steps"])),
        "closed_form_lambda": 2.0 * np.log((1.0 + np.sqrt(5.0)) / 2.0),
    })

    cl_params = StandardMapParams(gamma=cfg["gamma"])
    _, cl_est = run_standard_map(cl_params, n)
    qu_params = StandardMapParams(gamma=cfg["gamma"], hbar=1.0)
    print(FIRST_ORDER_NOTE, file=sys.stderr)
    _, qu_est = run_standard_map(qu_params, n)
    rows.append({
        "system": f"standard_map(gamma={cfg['gamma']})",
        "classical_lambda": cl_est.slope,
        "quantum_lambda": qu_est.slope,
        "oracle_lambda": tangent_map_lyapunov(KickedMapSpec.standard_map(cfg["gamma"]),
                                              int(cfg["oracle_steps"])),
        "closed_form_lambda": classical_lyapunov(cfg["gamma"]),
    })

    record = _base_record("compare", cfg, args.seed)
    record["rows"] = rows
    write_json(out / "compare_result.json", record)
    write_csv(out / "compare.csv",
              ["system", "classical_lambda", "quantum_lambda", "oracle_lambda", "closed_form_lambda"],
              [[r["system"], r["classical_lambda"], r["quantum_lambda"],
                r["oracle_lambda"], r["closed_form_lambda"]] for r in rows])
    for r in rows:
        print(f"{r['system']}: classical={r['classical_lambda']:.6f} "
              f"quantum={r['quantum_lambda']:.6f} oracle={r['oracle_lambda']:.6f} "
              f"closed_form={r['closed_form_lambda']:.6f}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tomolyap",
        description="Classical and quantum Lyapunov exponents for kicked systems "
                    "via marginal-distribution (tomographic) dynamics.")
    parser.add_argument("--version", action="version", version=f"tomolyap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=".", help="output directory (created if missing)")
        p.add_argument("--format", choices=("csv", "json", "both"), default="both")
        p.add_argument("--seed", type=int, default=None, help="seed for randomized sweeps")
        p.add_argument("--config", default=None, help="key = value config file; flags win")

    p = sub.add_parser("harmonic", help="harmonically kicked particle on the line")
    common(p)
    p.add_argument("--z", type=float, default=None, help="kick strength (default 5)")
    p.add_argument("--n", type=int, default=None, help="number of periods (default 200)")
    p.add_argument("--v1", type=float, default=None)
    p.add_argument("--v2", type=float, default=None)
    p.set_defaults(func=cmd_harmonic)

    p = sub.add_parser("cat", help="configurational cat models")
    common(p)
    p.add_argument("--variant", choices=[v.value for v in CatVariant], default=None)
    p.add_argument("--n-kicks", dest="n_kicks", type=int, default=None)
    p.set_defaults(func=cmd_cat)

    p = sub.add_parser("standard-map", help="kicked rotor lattice engine")
    common(p)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--hbar", type=float, default=None, help="0 selects the classical kick")
    p.add_argument("--q0", type=float, default=None)
    p.add_argument("--p0", type=float, default=None)
    p.add_argument("--v1", type=float, default=None)
    p.add_argument("--v2", type=float, default=None)
    p.add_argument("--n", type=int, default=None, help="number of periods (default 60)")
    p.set_defaults(func=cmd_standard_map)

    p = sub.add_parser("oracle", help="trajectory/tangent-map exponent")
    common(p)
    p.add_argument("--map", choices=("standard", "harmonic", "cat"), default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--z", type=float, default=None)
    p.add_argument("--variant", choices=[v.value for v in CatVariant], default=None)
    p.add_argument("--q0", type=float, default=None)
    p.add_argument("--p0", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("tomography", help="Gaussian forward/inverse tomography demo")
    common(p)
    p.add_argument("--mean-q", dest="mean_q", type=float, default=None)
    p.add_argument("--mean-p", dest="mean_p", type=float, default=None)
    p.add_argument("--sigma-q", dest="sigma_q", type=float, default=None)
    p.add_argument("--sigma-p", dest="sigma_p", type=float, default=None)
    p.add_argument("--correlation", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--x-points", dest="x_points", type=int, default=None)
    p.add_argument("--directions", type=int, default=None,
                   help="when positive, also reconstruct from this many angles")
    p.add_argument("--homogeneity-samples", dest="homogeneity_samples", type=int, default=None)
    p.set_defaults(func=cmd_tomography)

    p = sub.add_parser("compare", help="cross-system exponent table")
    common(p)
    p.add_argument("--z", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--oracle-steps", dest="oracle_steps", type=int, default=None)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return 3
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TomolyapError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
