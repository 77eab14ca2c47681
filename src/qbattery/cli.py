"""Command-line front end.

Subcommands:

* ``jch`` / ``dicke``: one quench run; prints a summary and optionally
  writes the scanned energy series and a one-row results table.
* ``rabi``: closed-form single-cavity check (frequency, first peak time,
  optional sin^2 series).
* ``sweep``: run a named preset and write the results table.
* ``convergence``: compare collective-model photon cutoffs.

Flags override values read from ``--config`` (a flat JSON object whose
keys are the long flag names).  A value the command does not read prints
a notice on stderr.  All file output is plain CSV with
deterministic formatting: identical invocations produce identical bytes.
Wall-clock timings are only written when ``--timing`` is given, precisely
to keep the default output reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import DEFAULT_MAX_DIM, CapacityError
from .battery import QuenchSystem, RabiParams, SearchConfig, max_power, rabi_oracle
from .hamiltonians import Model, ModelParams, Normalization, Topology
from .sweeps import (
    SweepRow,
    convergence_check,
    preset_names,
    preset_specs,
    run_sweep,
    sweep_row,
)

__all__ = [
    "RunConfig",
    "ConfigError",
    "parse_run",
    "serialize_config",
    "format_float",
    "write_series",
    "write_table",
    "emit_plot_script",
    "emit_series_plot",
    "main",
]

TABLE_HEADER = (
    "model,topology,normalization,N,m,beta,beta_prime,kappa,n_max,dim,"
    "p_max,tau,e_max,p_scaled,cutoff_converged,wall_time_s"
)


class ConfigError(ValueError):
    """Bad or missing configuration values (from flags or the config file)."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one CLI invocation."""

    command: str
    params: ModelParams | None
    rabi: RabiParams | None
    search: SearchConfig
    preset: str | None
    multipliers: tuple[int, ...] | None
    timing: bool
    out: str | None
    series_out: str | None
    plot_out: str | None
    max_dim: int | None
    dense_limit: int | None


_MODEL_KEYS = (
    "n",
    "m",
    "beta",
    "beta_prime",
    "kappa",
    "omega_c",
    "omega_a",
    "topology",
    "normalization",
    "cutoff_mult",
    "literal_eq10",
)

_DEFAULTS: dict = {
    "n": None,
    "m": 1,
    "beta": None,
    "beta_prime": "same",
    "kappa": 0.0,
    "omega_c": 1.0,
    "omega_a": 1.0,
    "delta": 0.0,
    "topology": "line",
    "normalization": "sqrt-n",
    "cutoff_mult": None,
    "t_max": None,
    "samples": 4096,
    "rel_tol": 1e-6,
    "preset": None,
    "out": None,
    "series_out": None,
    "plot_out": None,
    "jobs": None,  # accepted and ignored: sweep points run serially
    "literal_eq10": False,
    "timing": False,
    "max_dim": None,
    "dense_limit": None,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbattery",
        description="Charging quench dynamics of cavity-array and collective quantum batteries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, help="number of cavities / two-level systems")
        p.add_argument("--m", type=int, help="photons prepared per cavity (default 1)")
        p.add_argument("--beta", type=float, help="rotating coupling strength")
        p.add_argument(
            "--beta-prime",
            help="counter-rotating coupling: a number, or 'same' to mirror beta",
        )
        p.add_argument("--kappa", type=float, help="photon hopping between cavities")
        p.add_argument("--omega-c", type=float, help="mode energy (default 1)")
        p.add_argument("--omega-a", type=float, help="two-level splitting (default 1)")
        p.add_argument("--topology", choices=["line", "ring", "all"], help="hopping graph")
        p.add_argument(
            "--normalization",
            choices=["sqrt-n", "none"],
            help="collective coupling normalization",
        )
        p.add_argument(
            "--cutoff-mult",
            help="photon cutoff multiplier(s) of n*m, e.g. '5' or '4,5'",
        )
        p.add_argument("--t-max", type=float, help="scan window length")
        p.add_argument("--samples", type=int, help="coarse scan sample count (default 4096)")
        p.add_argument("--rel-tol", type=float, help="refinement tolerance (default 1e-6)")
        p.add_argument("--out", help="results table CSV path")
        p.add_argument("--series-out", help="energy series CSV path")
        p.add_argument("--plot-out", help="plot script path")
        p.add_argument("--config", help="JSON file of flag values; flags win on conflict")
        p.add_argument("--jobs", type=int, help="accepted and ignored; sweep points run serially")
        p.add_argument(
            "--literal-eq10",
            action="store_true",
            default=None,
            help="collective model: use the alternative printed matrix convention",
        )
        p.add_argument(
            "--timing",
            action="store_true",
            default=None,
            help="include wall-clock timings in the table (breaks byte reproducibility)",
        )
        p.add_argument("--max-dim", type=int, help=f"basis size cap (default {DEFAULT_MAX_DIM})")
        p.add_argument(
            "--dense-limit",
            type=int,
            help="largest block of reachable states diagonalized densely (0: always Chebyshev)",
        )

    for name, desc in (
        ("jch", "cavity-array battery quench"),
        ("dicke", "collective battery quench"),
        ("rabi", "closed-form single-cavity oscillation check"),
        ("sweep", "run a named parameter sweep preset"),
        ("convergence", "collective-model photon cutoff comparison"),
    ):
        p = sub.add_parser(name, help=desc)
        add_shared(p)
        if name == "rabi":
            p.add_argument("--delta", type=float, help="two-level/mode detuning (default 0)")
        if name == "sweep":
            p.add_argument("--preset", choices=list(preset_names()), help="which sweep to run")
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a flat JSON object")
    values = {}
    for key, value in raw.items():
        norm = key.replace("-", "_")
        if norm not in _DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        values[norm] = value
    return values


def _merge(args: argparse.Namespace, file_values: dict) -> dict:
    merged = {}
    for key, default in _DEFAULTS.items():
        cli = getattr(args, key, None)
        if cli is not None:
            merged[key] = cli
        elif key in file_values and file_values[key] is not None:
            merged[key] = file_values[key]
        else:
            merged[key] = default
    return merged


def _parse_beta_prime(value) -> float | None:
    if value is None or (isinstance(value, str) and value.strip().lower() == "same"):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"beta-prime must be a number or 'same', got {value!r}") from None


def _parse_multipliers(value) -> tuple[int, ...] | None:
    if value is None:
        return None
    if isinstance(value, (list, tuple)):
        items = value
    else:
        items = str(value).split(",")
    try:
        mults = tuple(int(item) for item in items)
    except (TypeError, ValueError):
        raise ConfigError(f"cutoff-mult must be integers, got {value!r}") from None
    if not mults or any(m < 1 for m in mults):
        raise ConfigError("cutoff multipliers must be positive integers")
    return mults


def _require(merged: dict, key: str, command: str):
    if merged[key] is None:
        raise ConfigError(f"--{key.replace('_', '-')} is required for '{command}'")
    return merged[key]


def _build_params(command: str, merged: dict) -> ModelParams:
    model = Model.JCH if command == "jch" else Model.DICKE
    params = ModelParams(
        model=model,
        n=int(_require(merged, "n", command)),
        m=int(merged["m"]),
        beta=float(_require(merged, "beta", command)),
        beta_prime=_parse_beta_prime(merged["beta_prime"]),
        kappa=float(merged["kappa"]),
        omega_c=float(merged["omega_c"]),
        omega_a=float(merged["omega_a"]),
        topology=Topology(merged["topology"]),
        normalization=Normalization(merged["normalization"]),
        literal_elements=bool(merged["literal_eq10"]),
    )
    mults = _parse_multipliers(merged["cutoff_mult"])
    if command == "dicke" and mults is not None:
        if len(mults) != 1:
            raise ConfigError("a single run takes exactly one cutoff multiplier")
        params = params.with_cutoff(mults[0])
    return params


_COLLECTIVE_ONLY = ("beta_prime", "normalization", "cutoff_mult", "literal_eq10")
_CHAIN_ONLY = ("kappa", "topology")

# Per command, the values it does not read.  Giving one of them with a value
# other than its default prints a notice; --jobs is accepted silently everywhere.
_UNREAD = {
    "jch": _COLLECTIVE_ONLY + ("delta", "preset"),
    "dicke": _CHAIN_ONLY + ("delta", "preset"),
    "rabi": tuple(k for k in _MODEL_KEYS if k not in ("m", "beta"))
    + ("rel_tol", "preset", "out", "timing", "max_dim", "dense_limit"),
    "sweep": _MODEL_KEYS + ("t_max", "samples", "rel_tol", "delta", "series_out"),
    "convergence": _CHAIN_ONLY + ("delta", "preset", "out", "series_out", "plot_out", "timing"),
}


def parse_run(argv: list[str]) -> RunConfig:
    """Parse argv (without the program name) into a resolved RunConfig.

    Every rejected value, from a flag or the config file, raises ConfigError.
    """
    args = _build_parser().parse_args(argv)
    try:
        return _resolve(args)
    except ConfigError:
        raise
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from err


def _resolve(args: argparse.Namespace) -> RunConfig:
    file_values = _load_config_file(args.config) if args.config else {}
    merged = _merge(args, file_values)
    command = args.command

    search = SearchConfig(
        t_max=None if merged["t_max"] is None else float(merged["t_max"]),
        n_samples=int(merged["samples"]),
        rel_tol=float(merged["rel_tol"]),
    )
    params = None
    rabi = None
    preset = None
    multipliers = None
    if command in ("jch", "dicke"):
        params = _build_params(command, merged)
    elif command == "rabi":
        rabi = RabiParams(
            delta=float(merged["delta"]),
            beta=float(_require(merged, "beta", command)),
            m=int(merged["m"]),
        )
    elif command == "sweep":
        preset = _require(merged, "preset", command)
        if preset not in preset_names():
            names = ", ".join(preset_names())
            raise ConfigError(f"unknown preset {preset!r}; choose from {names}")
    elif command == "convergence":
        if merged["n"] is None or merged["beta"] is None:
            raise ConfigError(f"--n and --beta are required for '{command}'")
        params = _build_params("dicke", {**merged, "cutoff_mult": None})
        multipliers = _parse_multipliers(merged["cutoff_mult"]) or (4, 5)

    out, series_out, plot_out = merged["out"], merged["series_out"], merged["plot_out"]
    given = [p for p in (out, series_out, plot_out) if p is not None]
    if len(given) != len(set(given)):
        raise ConfigError("output paths must be distinct")
    if command == "sweep" and out is None:
        raise ConfigError("sweep needs --out for the results table")
    if command in ("jch", "dicke", "rabi") and plot_out is not None and series_out is None:
        raise ConfigError("--plot-out for a single run needs --series-out")
    max_dim = None if merged["max_dim"] is None else int(merged["max_dim"])
    if max_dim is not None and max_dim < 1:
        raise ConfigError(f"--max-dim must be at least 1, got {max_dim}")
    dense_limit = None if merged["dense_limit"] is None else int(merged["dense_limit"])
    if dense_limit is not None and dense_limit < 0:
        raise ConfigError(f"--dense-limit must be nonnegative, got {dense_limit}")
    unread = [k for k in _UNREAD[command] if merged[k] != _DEFAULTS[k]]
    if unread:
        flags = ", ".join("--" + k.replace("_", "-") for k in unread)
        print(f"notice: '{command}' ignores {flags}", file=sys.stderr)
    return RunConfig(
        command=command,
        params=params,
        rabi=rabi,
        search=search,
        preset=preset,
        multipliers=multipliers,
        timing=bool(merged["timing"]),
        out=out,
        series_out=series_out,
        plot_out=plot_out,
        max_dim=max_dim,
        dense_limit=dense_limit,
    )


def serialize_config(run: RunConfig) -> dict:
    """Flat JSON-able mapping that reparses to an identical RunConfig."""
    out: dict = {}
    p = run.params
    if p is not None:
        out["n"] = p.n
        out["m"] = p.m
        out["beta"] = p.beta
        out["beta-prime"] = "same" if p.beta_prime is None else p.beta_prime
        out["kappa"] = p.kappa
        out["omega-c"] = p.omega_c
        out["omega-a"] = p.omega_a
        out["topology"] = p.topology.value
        out["normalization"] = p.normalization.value
        out["literal-eq10"] = p.literal_elements
        if run.command == "dicke" and p.n_max is not None:
            out["cutoff-mult"] = [p.n_max // (p.n * p.m)]
    if run.rabi is not None:
        out["delta"] = run.rabi.delta
        out["beta"] = run.rabi.beta
        out["m"] = run.rabi.m
    if run.command == "convergence" and run.multipliers is not None:
        out["cutoff-mult"] = list(run.multipliers)
    if run.search.t_max is not None:
        out["t-max"] = run.search.t_max
    out["samples"] = run.search.n_samples
    out["rel-tol"] = run.search.rel_tol
    if run.preset is not None:
        out["preset"] = run.preset
    for key, value in (
        ("out", run.out),
        ("series-out", run.series_out),
        ("plot-out", run.plot_out),
        ("max-dim", run.max_dim),
        ("dense-limit", run.dense_limit),
    ):
        if value is not None:
            out[key] = value
    if run.timing:
        out["timing"] = True
    return out


# ---------------------------------------------------------------------------
# Output formatting.


def format_float(value: float) -> str:
    return f"{value:.17g}"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def write_series(series: np.ndarray, path: str) -> None:
    """Two-column CSV of the scanned energy, header ``t,energy``."""
    lines = ["t,energy"]
    for t, e in np.asarray(series):
        lines.append(f"{format_float(float(t))},{format_float(float(e))}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_table(rows: list[SweepRow], path: str, include_timing: bool = False) -> None:
    """Result rows as CSV with a fixed header; timings stay blank unless requested."""
    lines = [TABLE_HEADER]
    for r in rows:
        cells = [
            _cell(r.model),
            _cell(r.topology),
            _cell(r.normalization),
            _cell(r.n),
            _cell(r.m),
            _cell(r.beta),
            _cell(r.beta_prime),
            _cell(r.kappa),
            _cell(r.n_max),
            _cell(r.dim),
            _cell(r.p_max),
            _cell(r.tau),
            _cell(r.e_max),
            _cell(r.p_scaled),
            _cell(r.cutoff_converged),
            _cell(r.wall_time_s) if include_timing else "",
        ]
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# Column indices (1-based) in the results table, for plot scripts.
_COL_N, _COL_M, _COL_BETA, _COL_KAPPA, _COL_NMAX, _COL_PSCALED = 4, 5, 6, 8, 9, 14


def _curve(table: str, x_col: int, select: str, title: str) -> str:
    return (
        f"  '{table}' every ::1 using {x_col}:({select} ? ${_COL_PSCALED} : 1/0) "
        f"with linespoints title '{title}'"
    )


def emit_plot_script(preset: str, table_path: str, image_path: str | None = None) -> str:
    """gnuplot script for a preset's results table."""
    image = image_path if image_path is not None else f"{preset}.png"
    head = [
        "# gnuplot script; run as: gnuplot <this file>",
        "set datafile separator comma",
        "set terminal pngcairo size 960,640",
        f"set output '{image}'",
        "set key top left",
    ]
    curves: list[str] = []
    if preset == "fig2":
        head += ["set xlabel 'N'", "set ylabel 'P_max / N'"]
        for kappa in (0.0, 0.05, 0.5):
            curves.append(
                _curve(table_path, _COL_N, f"abs(${_COL_KAPPA} - {kappa:g}) < 1e-12", f"kappa = {kappa:g}")
            )
    elif preset == "fig3":
        head += ["set xlabel 'm'", "set ylabel 'P_max / sqrt(m)'"]
        for n in (2, 4):
            for kappa in (0.0, 0.05):
                select = f"${_COL_N} == {n} && abs(${_COL_KAPPA} - {kappa:g}) < 1e-12"
                curves.append(_curve(table_path, _COL_M, select, f"N = {n}, kappa = {kappa:g}"))
    elif preset == "fig4":
        head += ["set xlabel 'kappa'", "set ylabel 'P_max * kappa'", "set logscale x"]
        for n in (2, 3):
            curves.append(_curve(table_path, _COL_KAPPA, f"${_COL_N} == {n}", f"N = {n}"))
    elif preset == "fig5":
        head += ["set xlabel 'N'", "set ylabel 'P_max / N'"]
        for beta in (0.0, 0.05, 0.5, 2.0):
            select = (
                f"abs(${_COL_BETA} - {beta:g}) < 1e-12 && "
                f"${_COL_NMAX} == 5*${_COL_N}*${_COL_M}"
            )
            curves.append(_curve(table_path, _COL_N, select, f"beta = {beta:g}"))
    elif preset == "dicke_m":
        head += ["set xlabel 'm'", "set ylabel 'P_max / sqrt(m)'"]
        for beta in (0.05, 0.5, 2.0):
            select = (
                f"abs(${_COL_BETA} - {beta:g}) < 1e-12 && "
                f"${_COL_NMAX} == 5*${_COL_N}*${_COL_M}"
            )
            curves.append(_curve(table_path, _COL_M, select, f"beta = {beta:g}"))
    else:
        raise ValueError(f"unknown preset {preset!r}; choose from {', '.join(preset_names())}")
    return "\n".join(head + ["plot \\"] + [", \\\n".join(curves)]) + "\n"


def emit_series_plot(series_path: str, image_path: str | None = None) -> str:
    image = image_path if image_path is not None else "series.png"
    return "\n".join(
        [
            "# gnuplot script; run as: gnuplot <this file>",
            "set datafile separator comma",
            "set terminal pngcairo size 960,640",
            f"set output '{image}'",
            "set xlabel 't'",
            "set ylabel 'E(t)'",
            f"plot '{series_path}' every ::1 using 1:2 with lines title 'E(t)'",
        ]
    ) + "\n"


# ---------------------------------------------------------------------------
# Command drivers.


def _run_single(run: RunConfig) -> int:
    system = QuenchSystem(run.params, max_dim=run.max_dim, dense_limit=run.dense_limit)
    with warnings.catch_warnings(record=True) as notes:
        warnings.simplefilter("always")
        result = max_power(system, run.search)
    for note in notes:
        print(f"notice: {note.message}", file=sys.stderr)
    print(f"model: {run.params.model.value}   dim: {system.dim}   engine: {system.engine}")
    print(f"p_max: {format_float(result.p_max)}")
    print(f"tau: {format_float(result.tau)}")
    print(f"e_max: {format_float(result.e_max)}")
    print(f"t_e_max: {format_float(result.t_e_max)}")
    if run.series_out:
        write_series(result.series, run.series_out)
    if run.out:
        row = sweep_row(run.params, run.params.n, 0.0, dim=system.dim, result=result)
        write_table([row], run.out, include_timing=run.timing)
    if run.plot_out:
        with open(run.plot_out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(emit_series_plot(run.series_out))
    return 0


def _run_rabi(run: RunConfig) -> int:
    omega, tau = rabi_oracle(run.rabi)
    print(f"omega: {format_float(omega)}")
    print(f"tau_first_peak: {format_float(tau)}")
    if run.series_out:
        t_max = run.search.t_max if run.search.t_max is not None else 10.0 * math.pi / omega
        ts = t_max * np.arange(1, run.search.n_samples + 1) / run.search.n_samples
        write_series(np.column_stack([ts, np.sin(omega * ts) ** 2]), run.series_out)
    if run.plot_out:
        with open(run.plot_out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(emit_series_plot(run.series_out))
    return 0


def _run_sweep(run: RunConfig) -> int:
    rows: list[SweepRow] = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for spec in preset_specs(run.preset):
            rows.extend(run_sweep(spec, max_dim=run.max_dim, dense_limit=run.dense_limit))
    write_table(rows, run.out, include_timing=run.timing)
    failures = sum(1 for r in rows if r.error)
    print(f"preset: {run.preset}   rows: {len(rows)}   failed points: {failures}")
    if run.plot_out:
        with open(run.plot_out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(emit_plot_script(run.preset, run.out))
    return 0


def _run_convergence(run: RunConfig) -> int:
    converged, max_rel_diff = convergence_check(
        run.params,
        multipliers=run.multipliers,
        search=run.search,
        max_dim=run.max_dim,
        dense_limit=run.dense_limit,
    )
    print(f"converged: {'true' if converged else 'false'}")
    print(f"max_rel_diff: {format_float(max_rel_diff)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        run = parse_run(sys.argv[1:] if argv is None else argv)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        if run.command in ("jch", "dicke"):
            return _run_single(run)
        if run.command == "rabi":
            return _run_rabi(run)
        if run.command == "sweep":
            return _run_sweep(run)
        return _run_convergence(run)
    except (ValueError, LookupError, OSError, CapacityError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
