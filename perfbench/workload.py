"""One benchmark workload, run in a process of its own.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1
                                  [--setup-only]

`run.py` starts this script; it is not meant to be called by hand.  The
script imports the library from the checkout's `src/`, draws the workload's
inputs from the seed, and records the monotonic time at which they are ready
(set-up ends there).  With --setup-only it stops at that point.  Otherwise it
runs the workload's call sequence as a closed loop, one call after the
previous one returns, repeating the whole sequence while another repetition
still fits in --seconds (at least once).  Every call's output is checked
against an independent reference after the timed loop.  The last line of
standard output is one JSON object for `run.py`.

With --trace 1 every library call gets a span (see tracing.py), and the
repetitions alternate between spans that only time the calls and spans that
also follow allocations with tracemalloc.  Durations come from the former,
allocation peaks from the latter, and the ratio of the two repetition times
is the tracing overhead, measured in one process.  A traced run of a
standard-map workload also runs the `routes` sequence once, so that every
per-layer metric is measured in every traced run; the standard-map figures
always come from the workload's own calls.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import refs
from tracing import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("sm_quantum", "sm_generic", "routes")

# Amount of work per repetition: identical for every seed.
QUANTUM_N = 200        # ROADMAP headline and acceptance criterion 5's size
GENERIC_N = 140        # direct mode: about a fifth of QUANTUM_N's time
ROUTES_SM_N = 60       # the `compare` run length
ORACLE_STEPS = 10_000  # the `compare` oracle length
HARMONIC_N = 200       # `compare` uses max(n, 200) periods
SYMBOLIC_N = 12        # MAX_EXPANSION_ORDER: 3^12 words
DIRECTIONS = 64        # default tomography family size
REPROJECT_DIRECTIONS = 8
SYMBOLIC_CHECK_T = 10  # probes t <= 10 checked against the 3^t expansion
LATTICE_CHECK_T = 16   # probes t <= 16 checked against the dictionary lattice

RUN_SPAN = "standard_map.run_standard_map"


def import_program():
    """The library under test, from this checkout's sources only."""
    package = SRC / "tomolyap"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"library sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import tomolyap

    if Path(tomolyap.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"imported tomolyap from {tomolyap.__file__}, not from {package}")
    return tomolyap


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def _draw_hbar(T, rng, **params) -> float:
    # hbar tau/(4 pi) near a small rational is resonant kicking, which the
    # engine flags and is not meant for; redraw (deterministically) if hit
    while True:
        hbar = float(rng.uniform(0.9, 1.1))
        if T.standard_map.hbar_resonance(T.StandardMapParams(hbar=hbar, **params)) is None:
            return hbar


def _signed(rng, lo: float, hi: float) -> float:
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi))


def draw_inputs(T, np, workload: str, seed: int) -> dict:
    """Workload parameters from the seed; the amount of work never depends on it."""
    rng = np.random.default_rng([seed % 2**64, WORKLOADS.index(workload)])
    if workload == "sm_quantum":
        # gamma, hbar near criterion 5's gamma = hbar = 1; q0 = p0 = 0 puts the
        # base point in pi Z, so auto mode runs split (real-valued deviation)
        gamma = float(rng.uniform(0.9, 1.1))
        return {"gamma": gamma, "hbar": _draw_hbar(T, rng, gamma=gamma), "n": QUANTUM_N}
    if workload == "sm_generic":
        # q0 at least 0.5 away from 0 and pi, so auto mode cannot split and
        # runs direct: a complex lattice populated from t = 0, no source term
        gamma = float(rng.uniform(0.9, 1.1))
        q0 = float(rng.uniform(0.5, math.pi - 0.5))
        return {"gamma": gamma, "hbar": _draw_hbar(T, rng, gamma=gamma, q0=q0), "q0": q0,
                "n": GENERIC_N}
    # routes: gamma and z inside the hyperbolic regimes, where the oracles
    # started at the fixed point converge to the closed forms within 1e-6
    gamma = float(rng.uniform(0.8, 1.2))
    return {
        "gamma": gamma,
        "z": float(rng.uniform(4.5, 5.5)),
        "hbar": _draw_hbar(T, rng, gamma=gamma),
        # always shifted and correlated: the re-projection defect (mass about
        # 1 + 1.5e-4 against a 1e-4 tolerance) then shows on all 8 directions,
        # so the failure count does not depend on the seed
        "density": {"mean_q": _signed(rng, 0.3, 0.6), "mean_p": _signed(rng, 0.3, 0.6),
                    "sigma_q": float(rng.uniform(0.8, 1.25)),
                    "sigma_p": float(rng.uniform(0.8, 1.25)),
                    "correlation": _signed(rng, 0.15, 0.3)},
        # coherent state displaced well inside its +-10 coordinate window
        "coherent": {"shift_q": float(rng.uniform(-0.5, 0.5)),
                     "shift_p": float(rng.uniform(-0.5, 0.5))},
    }


def coherent_state(T, np, shift_q: float, shift_p: float, dy: float = 0.004, span: float = 10.0):
    """exp(-(y - q0)^2 / 2 + i p0 y) at hbar = 1, numerically normalized."""
    y = np.arange(-span + shift_q, span + shift_q + dy / 2, dy)
    psi = np.exp(-((y - shift_q) ** 2) / 2.0) * np.exp(1j * shift_p * y)
    psi = psi / np.sqrt(np.sum(np.abs(psi) ** 2) * dy)
    return T.WaveFunction(y, psi, hbar=1.0)


# ---------------------------------------------------------------------------
# call sequences
# ---------------------------------------------------------------------------


@dataclass
class Call:
    """One library call of a sequence and the check of its output.

    `fn` gets the outputs of the earlier calls of the same repetition by key;
    `check` gets this call's output and those outputs and returns an error
    message or None.  `known_defect` names the exception a documented
    library defect raises: such a call still counts as failed, but does not
    make the run incorrect.
    """

    key: str
    span: str
    fn: Callable[[dict], Any]
    check: Callable[[Any, dict], str | None]
    attrs: dict = field(default_factory=dict)
    known_defect: type | None = None


def _within(label: str, got: float, want: float, tol: float) -> str | None:
    if math.isfinite(got) and abs(got - want) < tol:
        return None
    return f"{label}: {got!r} vs reference {want!r} (tolerance {tol:g})"


def _rel_within(np, label: str, got, want, tol: float) -> str | None:
    got, want = np.asarray(got), np.asarray(want)
    rel = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    if np.all(np.isfinite(got)) and float(np.max(rel)) < tol:
        return None
    return f"{label}: relative deviation {float(np.nanmax(rel)):.3e} (tolerance {tol:g})"


def _finite_run(np, run) -> str | None:
    series, estimate = run
    arrays = (series.g2, series.g3, series.probe_values)
    if all(np.all(np.isfinite(a)) for a in arrays) and math.isfinite(estimate.slope):
        return None
    return "non-finite derivative series, probe or slope"


def standard_map_calls(T, np, inp: dict) -> list[Call]:
    params = T.StandardMapParams(gamma=inp["gamma"], hbar=inp["hbar"], q0=inp.get("q0", 0.0))
    n = inp["n"]
    if params.q0 == 0.0:
        def check(run, _):
            err = _finite_run(np, run)
            ts = range(SYMBOLIC_CHECK_T + 1)
            sym = [T.symbolic_expand(params, t) for t in ts]
            return err or _rel_within(np, "probe G(1,1,t) vs symbolic expansion, t <= 10",
                                      run[0].probe_values[: len(sym)], sym, 1e-9)
    else:
        def check(run, _):
            err = _finite_run(np, run)
            ref = refs.lattice_probes(params.gamma, params.hbar, params.tau, params.q0,
                                      params.p0, params.v1, params.v2, LATTICE_CHECK_T)
            g2, g3 = refs.derivatives_from_probes(ref, params.gamma, params.tau,
                                                  params.v1, params.v2)
            m = LATTICE_CHECK_T + 1
            series = run[0]
            return (err
                    or _rel_within(np, "probe vs dictionary lattice, t <= 16",
                                   series.probe_values[:m], ref[:, 0], 1e-9)
                    or _rel_within(np, "g2 vs dictionary lattice, t <= 16",
                                   series.g2[:m], g2, 1e-9)
                    or _rel_within(np, "g3 vs dictionary lattice, t <= 16",
                                   series.g3[:m], g3, 1e-9))
    return [Call("run", RUN_SPAN,
                 lambda r: T.run_standard_map(params, n), check, {"n": n})]


def routes_calls(T, np, inp: dict, tmp: Path) -> list[Call]:
    from tomolyap import cli

    gamma, z, hbar = inp["gamma"], inp["z"], inp["hbar"]
    dens = inp["density"]
    density = T.GaussianDensity(**dens)
    coh = inp["coherent"]
    psi = coherent_state(T, np, coh["shift_q"], coh["shift_p"])
    # the coherent state's Wigner function: a Gaussian with both spreads 1/sqrt(2)
    wig_params = {"mean_q": coh["shift_q"], "mean_p": coh["shift_p"],
                  "sigma_q": math.sqrt(0.5), "sigma_p": math.sqrt(0.5), "correlation": 0.0}
    classical = T.StandardMapParams(gamma=gamma)
    quantum = T.StandardMapParams(gamma=gamma, hbar=hbar)
    golden = 2.0 * math.log((1.0 + math.sqrt(5.0)) / 2.0)
    harmonic_ref = refs.harmonic_lyapunov(z)
    variants = list(T.CatVariant)
    specs = {
        "standard_map": (T.KickedMapSpec.standard_map(gamma), T.classical_lyapunov(gamma)),
        "harmonic_kick": (T.KickedMapSpec.harmonic_kick(z), T.harmonic_lyapunov(z)),
        "cat_map": (T.KickedMapSpec.cat_map(T.CatVariant.KICK_ONLY),
                    T.cat_lyapunov(T.CatVariant.KICK_ONLY)),
    }
    calls: list[Call] = []

    for family, (spec, closed) in specs.items():
        calls.append(Call(
            f"oracle.{family}", "oracle.tangent_map_lyapunov",
            lambda r, spec=spec: T.tangent_map_lyapunov(spec, ORACLE_STEPS),
            lambda lam, _, family=family, closed=closed:
                _within(f"{family} oracle vs closed form", lam, closed, 1e-6),
            {"family": family, "steps": ORACLE_STEPS}))

    calls += [
        Call("harmonic", "floquet.harmonic_derivative_series",
             lambda r: T.harmonic_derivative_series(z, HARMONIC_N),
             lambda s, _: None if np.all(np.isfinite(s.norms())) else "non-finite harmonic series"),
        Call("harmonic_fit", "estimator.estimate_exponent",
             lambda r: T.estimate_exponent(r["harmonic"]),
             lambda e, _: _within("harmonic fit vs closed form", e.slope, harmonic_ref, 1e-3)),
        Call("harmonic_running", "estimator.running_estimate",
             lambda r: T.running_estimate(r["harmonic"]),
             lambda rows, _: (None if np.all(np.isfinite(rows)) else "non-finite running estimate")
             or _within("final running estimate vs closed form", float(rows[-1, 1]),
                        harmonic_ref, 1e-3)),
    ]
    for v in variants:
        calls.append(Call(
            f"cat.{v.value}", "floquet.cat_lyapunov", lambda r, v=v: T.cat_lyapunov(v),
            lambda lam, _, v=v: _within(f"cat {v.value} exponent vs Taylor-series propagator",
                                        lam, refs.cat_lyapunov(T.floquet.build_cat_model(v)),
                                        1e-9)
            or (_within("kick-only exponent vs 2 ln(golden ratio)", lam, golden, 1e-6)
                if v is T.CatVariant.KICK_ONLY else None),
            {"variant": v.value}))
    for v in variants:
        calls.append(Call(
            f"deformation.{v.value}", "floquet.verify_quadratic_deformation_vanishes",
            lambda r, v=v: T.verify_quadratic_deformation_vanishes(T.floquet.build_cat_model(v)),
            lambda ok, _, v=v: None if ok is True else
                f"deformation series of quadratic model {v.value} reported non-vanishing",
            {"variant": v.value}))

    def check_classical(run, _):
        series, est = run
        closed = np.array([T.classical_closed_form(gamma, 1.0, 1.0, t)
                           for t in range(ROUTES_SM_N + 1)])
        return (_finite_run(np, run)
                or _rel_within(np, "classical g2 vs Chebyshev closed form", series.g2, closed[:, 0], 1e-8)
                or _rel_within(np, "classical g3 vs Chebyshev closed form", series.g3, closed[:, 1], 1e-8)
                or _within("classical fit vs formula", est.slope, T.classical_lyapunov(gamma), 1e-2))

    def check_quantum(run, _):
        sym = [T.symbolic_expand(quantum, t) for t in range(SYMBOLIC_CHECK_T + 1)]
        return _finite_run(np, run) or _rel_within(
            np, "quantum probe G(1,1,t) vs symbolic expansion, t <= 10",
            run[0].probe_values[: len(sym)], sym, 1e-9)

    def check_symbolic(value, r):
        if "quantum" not in r:
            return "reference lattice run failed"
        lattice = r["quantum"][0].probe_values[SYMBOLIC_N]
        return _rel_within(np, "symbolic expansion n = 12 vs lattice probe", value, lattice, 1e-9)

    def check_family(family, _):
        worst = max(float(np.max(np.abs(t.values - refs.gaussian_marginal(t.x, t.mu, t.nu, **dens))))
                    for t in family)
        ok = len(family) == DIRECTIONS and worst < 1e-9
        return None if ok else f"Gaussian family vs closed-form marginals: {worst:.3e} (tolerance 1e-9)"

    def check_density_grid(label, grid, gaussian):
        exact = refs.gaussian_pdf(grid.q[:, None], grid.p[None, :], **gaussian)
        err = float(np.max(np.abs(grid.values - exact)) / exact.max())
        return None if err < 1e-2 else f"{label}: {err:.3e} of the peak (tolerance 1e-2)"

    def check_pure(family, _):
        wigner_gaussian = T.GaussianDensity(**wig_params)
        worst = max(float(np.max(np.abs(
            t.values - T.forward_tomogram(wigner_gaussian, t.mu, t.nu, x_grid=t.x).values)))
            for t in family)
        ok = len(family) == DIRECTIONS and worst < 1e-6
        return None if ok else f"pure-state tomograms vs Wigner Gaussian line route: {worst:.3e}"

    calls += [
        Call("classical", RUN_SPAN,
             lambda r: T.run_standard_map(classical, ROUTES_SM_N), check_classical,
             {"n": ROUTES_SM_N}),
        Call("quantum", RUN_SPAN,
             lambda r: T.run_standard_map(quantum, ROUTES_SM_N), check_quantum,
             {"n": ROUTES_SM_N}),
        Call("symbolic", "symbolic.symbolic_expand",
             lambda r: T.symbolic_expand(quantum, SYMBOLIC_N), check_symbolic,
             {"terms": 3**SYMBOLIC_N}),
        Call("gauss_family", "tomography.gaussian_tomogram_family",
             lambda r: T.gaussian_tomogram_family(density, DIRECTIONS), check_family,
             {"directions": DIRECTIONS}),
        Call("gauss_density", "tomography.inverse_tomogram",
             lambda r: T.inverse_tomogram(r["gauss_family"]),
             lambda g, _: check_density_grid("Gaussian round trip", g, dens)),
        Call("gauss_wigner", "tomography.wigner_from_tomogram",
             lambda r: T.wigner_from_tomogram(r["gauss_family"]),
             lambda g, _: check_density_grid("Gaussian family Wigner reconstruction", g, dens)),
        Call("pure_family", "tomography.pure_state_tomogram_family",
             lambda r: T.pure_state_tomogram_family(psi, DIRECTIONS), check_pure,
             {"directions": DIRECTIONS}),
        Call("pure_wigner", "tomography.wigner_from_tomogram",
             lambda r: T.wigner_from_tomogram(r["pure_family"]),
             lambda g, _: check_density_grid("coherent-state Wigner reconstruction", g,
                                             wig_params)),
    ]
    for i in range(REPROJECT_DIRECTIONS):
        theta = i * math.pi / REPROJECT_DIRECTIONS
        mu, nu = math.cos(theta), math.sin(theta)

        def check_reprojection(t, _, mu=mu, nu=nu):
            expected = refs.gaussian_marginal(t.x, mu, nu, **dens)
            err = float(np.max(np.abs(t.values - expected)) / expected.max())
            return None if err < 1e-2 else f"re-projection at theta={theta:.3f}: {err:.3e} of the peak"

        calls.append(Call(
            f"reproject.{i}", "tomography.forward_tomogram",
            lambda r, mu=mu, nu=nu: T.forward_tomogram(r["gauss_density"], mu, nu),
            check_reprojection, {"theta": theta},
            # an accepted reconstruction is normalized to 1e-2, forward_tomogram
            # demands 1e-4 of its output: shifted or correlated inputs fail
            known_defect=T.ValidationError))

    def run_cli(subcommand, *flags):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([subcommand, *flags, "--out", str(tmp)])
        record = tmp / f"{subcommand}_result.json"
        return code, json.loads(record.read_text()) if code == 0 else None

    def check_cli_harmonic(out, _):
        code, record = out
        if code != 0:
            return f"harmonic subcommand exited {code}"
        return (_within("CLI harmonic closed form", record["closed_form_lyapunov"], harmonic_ref, 1e-9)
                or _within("CLI harmonic estimate", record["estimate"]["slope"], harmonic_ref, 1e-3))

    def check_cli_cat(out, _):
        code, record = out
        if code != 0:
            return f"cat subcommand exited {code}"
        if record["deformation_vanishes"] is not True:
            return "CLI cat: deformation reported non-vanishing"
        return _within("CLI kick-only exponent", record["lyapunov"], golden, 1e-6)

    calls += [
        Call("cli.harmonic", "cli.main", lambda r: run_cli("harmonic", "--z", repr(z)),
             check_cli_harmonic, {"subcommand": "harmonic"}),
        Call("cli.cat", "cli.main", lambda r: run_cli("cat"), check_cli_cat,
             {"subcommand": "cat"}),
    ]
    return calls


# ---------------------------------------------------------------------------
# running, checking, per-layer metrics
# ---------------------------------------------------------------------------


@dataclass
class Rep:
    wall: float
    outputs: dict
    errors: dict


def run_rep(calls: list[Call], tracer: Tracer | None, run_id: str) -> Rep:
    """Make the calls one after another; exceptions are results too."""
    outputs: dict = {}
    errors: dict = {}
    root = tracer.span(run_id, "sequence") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    with root:
        for call in calls:
            span = tracer.span(run_id, call.span, **call.attrs) if tracer else contextlib.nullcontext()
            with span:
                try:
                    outputs[call.key] = call.fn(outputs)
                except Exception as exc:  # a failed call is counted, not fatal
                    errors[call.key] = exc
    return Rep(time.perf_counter() - start, outputs, errors)


def check_rep(calls: list[Call], rep: Rep) -> tuple[int, list[str], list[str]]:
    """(failed calls, unexpected failures, documented known-defect failures)."""
    unexpected, known = [], []
    for call in calls:
        if call.key in rep.errors:
            exc = rep.errors[call.key]
            msg = f"{call.key}: raised {type(exc).__name__}: {exc}"
            (known if call.known_defect and isinstance(exc, call.known_defect) else unexpected).append(msg)
            continue
        try:
            err = call.check(rep.outputs[call.key], rep.outputs)
        except Exception as exc:  # a check that cannot evaluate the output fails it
            err = f"check raised {type(exc).__name__}: {exc}"
        if err:
            unexpected.append(f"{call.key}: {err}")
    return len(known) + len(unexpected), unexpected, known


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer timings of one repetition, for the layers it called."""
    m: dict[str, float] = {}
    runs = [s for s in spans if s.name == RUN_SPAN]
    if runs:
        run_s = sum(s.seconds for s in runs)
        cells = sum(refs.cone_cells(s.attrs["n"]) for s in runs)
        m["standard_map.run_s"] = run_s
        m["standard_map.cone_cells"] = cells
        m["standard_map.ns_per_cone_cell"] = run_s * 1e9 / cells
    for s in spans:
        if s.name == "oracle.tangent_map_lyapunov":
            m[f"oracle.us_per_step.{s.attrs['family']}"] = s.seconds * 1e6 / s.attrs["steps"]
        elif s.name == "tomography.gaussian_tomogram_family":
            m["tomography.gauss_ms_per_direction"] = s.seconds * 1e3 / s.attrs["directions"]
        elif s.name == "tomography.pure_state_tomogram_family":
            m["tomography.pure_ms_per_direction"] = s.seconds * 1e3 / s.attrs["directions"]
        elif s.name == "symbolic.symbolic_expand":
            m["symbolic.ns_per_term"] = s.seconds * 1e9 / s.attrs["terms"]
    fbp = [s.seconds for s in spans if s.name in ("tomography.inverse_tomogram",
                                                  "tomography.wigner_from_tomogram")]
    if fbp:
        m["tomography.fbp_ms"] = 1e3 * sum(fbp) / len(fbp)
    reproject = [s.seconds for s in spans if s.name == "tomography.forward_tomogram"]
    if reproject:
        m["tomography.reproject_ms_per_direction"] = 1e3 * sum(reproject) / len(reproject)
    for layer, name in (("floquet.", "floquet.ms"), ("estimator.", "estimator.fit_ms"),
                        ("cli.", "cli.ms")):
        busy = [s.seconds for s in spans if s.name.startswith(layer)]
        if busy:
            m[name] = 1e3 * sum(busy)
    return m


def _median_metrics(per_rep: list[dict]) -> dict[str, float]:
    keys = set().union(*per_rep)
    return {k: statistics.median(d[k] for d in per_rep if k in d) for k in sorted(keys)}


def check_cone_counter() -> None:
    """The interval bookkeeping must agree with plain set enumeration."""
    for n in range(31):
        if refs.cone_cells(n) != refs.cone_cells_by_sets(n):
            raise SystemExit(f"cone-cell counter disagrees with set enumeration at n = {n}")


def environment(np) -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                              "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                              "NUMEXPR_NUM_THREADS")}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "thread_env": threads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    T = import_program()
    import numpy as np

    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR))
    try:
        inputs = draw_inputs(T, np, args.workload, args.seed)

        def sequence(workload: str) -> list[Call]:
            if workload == "routes":
                return routes_calls(T, np, draw_inputs(T, np, "routes", args.seed), tmp)
            return standard_map_calls(T, np, inputs)

        calls = sequence(args.workload)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0

        # untraced runs time the bare sequence; traced runs alternate a
        # repetition with timing spans and one with tracemalloc spans
        tracer = Tracer() if args.trace else None
        timed: list[Rep] = []
        traced: list[Rep] = []
        measured = 0.0
        while True:
            timed.append(run_rep(calls, tracer, f"{args.workload}-{len(timed)}"))
            measured += timed[-1].wall
            if tracer:
                with tracer.memory():
                    traced.append(run_rep(calls, tracer, f"{args.workload}-memory-{len(traced)}"))
                measured += traced[-1].wall
            if measured + measured / len(timed) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        checked = [(calls, rep) for rep in timed + traced]
        per_layer = None
        if tracer:
            per_layer = {}
            if args.workload != "routes":
                routes = sequence("routes")
                checked.append((routes, run_rep(routes, tracer, "routes-pass")))
                per_layer.update(layer_metrics(tracer.run("routes-pass")))
            per_layer.update(_median_metrics([layer_metrics(tracer.run(f"{args.workload}-{i}"))
                                              for i in range(len(timed))]))
            per_layer["standard_map.peak_alloc_mb"] = max(
                s.alloc_peak_bytes for i in range(len(traced))
                for s in tracer.run(f"{args.workload}-memory-{i}") if s.name == RUN_SPAN) / 2**20
            per_layer["trace.overhead_frac"] = (statistics.median(r.wall for r in traced)
                                                / statistics.median(r.wall for r in timed) - 1.0)
            check_cone_counter()

        attempted = failed = 0
        unexpected: list[str] = []
        known: list[str] = []
        for seq, rep in checked:
            f, u, k = check_rep(seq, rep)
            attempted += len(seq)
            failed += f
            unexpected += u
            known += k
        payload = {
            "ready": ready,
            "inputs": inputs,
            "walls": [r.wall for r in timed],
            "traced_walls": [r.wall for r in traced],
            "peak_rss_mb": peak_rss_mb,
            "attempted": attempted,
            "failed": failed,
            "unexpected_failures": unexpected,
            "known_defect_failures": known,
            "per_layer": per_layer,
            "spans": tracer.to_json() if tracer else None,
            "environment": environment(np),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
