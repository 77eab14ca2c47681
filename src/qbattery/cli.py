"""Command-line front end.

Subcommands:

* ``jch`` / ``dicke``: one quench run; prints a summary and optionally
  writes the energy series on the whole scan grid and a one-row results
  table.
* ``rabi``: closed-form single-cavity check (frequency, first peak time,
  optional sin^2 series).
* ``sweep``: run a named preset and write the results table.
* ``convergence``: compare collective-model photon cutoffs.

Each flag is declared once, in ``_FLAGS``: its name, default, help, the
commands that read it and argparse keywords (its syntax rule).  That
table builds every subcommand's parser, each taking every flag, and the
parser of ``--config`` files: a flat JSON object keyed by the long flag
names, whose values become ``--name=value`` tokens (``true`` adds a
switch and ``false`` leaves it off, a ``false`` on any other flag is an
error; ``null`` adds nothing; a list joins with commas), so a file value
meets the same rule as the flag, whatever the command.  A value that a
command does not read draws a notice and is reset to its default: only
its readers check its range.
Flags given override the file, which overrides the defaults.  The results
table's columns are declared once too, in ``_COLUMNS``, and a sweep's
``--plot-out`` script draws one curve per sweep of the preset, derived
from ``preset_specs``.  All file output is plain CSV with
deterministic formatting: identical invocations produce identical bytes.
Wall-clock timings are only written when ``--timing`` is given, precisely
to keep the default output reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .battery import QuenchSystem, RabiParams, SearchConfig, max_power, rabi_oracle
from .hamiltonians import CapacityError, Model, ModelParams, Normalization, Topology
from .sweeps import (
    Scaling,
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
    "format_float",
    "write_series",
    "write_table",
    "emit_plot_script",
    "emit_series_plot",
    "main",
]

# The results table's columns: (header name, SweepRow field).
_COLUMNS = (
    ("model", "model"), ("topology", "topology"), ("normalization", "normalization"),
    ("N", "n"), ("m", "m"), ("beta", "beta"), ("beta_prime", "beta_prime"), ("kappa", "kappa"),
    ("n_max", "n_max"), ("dim", "dim"), ("p_max", "p_max"), ("tau", "tau"), ("e_max", "e_max"),
    ("p_scaled", "p_scaled"), ("cutoff_converged", "cutoff_converged"),
    ("wall_time_s", "wall_time_s"),
)
TABLE_HEADER = ",".join(name for name, _ in _COLUMNS)
# Each field's header name and 1-based column number, for plot scripts.
_HEADER = {field: name for name, field in _COLUMNS}
_COL = {field: k for k, (_, field) in enumerate(_COLUMNS, 1)}


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


# Every command, with its --help line.
_COMMANDS = (
    ("jch", "cavity-array battery quench"),
    ("dicke", "collective battery quench"),
    ("rabi", "closed-form single-cavity oscillation check"),
    ("sweep", "run a named parameter sweep preset"),
    ("convergence", "collective-model photon cutoff comparison"),
)
_ALL = tuple(command for command, _ in _COMMANDS)
_MODEL = ("jch", "dicke", "convergence")  # the commands that build a model
_RUNS = _MODEL + ("rabi",)  # the commands that scan a time grid
_COLLECTIVE = ("dicke", "convergence")
_SINGLE = ("jch", "dicke")


class _Flag(NamedTuple):
    """One flag, ``--name`` with dashes; but for ``config``, ``name`` is also a config key.

    Every command's parser takes the flag.  A command not in ``reads``
    ignores it: a value other than ``default`` draws a notice and is reset
    to ``default`` (``--jobs`` names all, to draw none).
    """

    name: str
    default: object
    help: str
    reads: tuple[str, ...]
    options: dict = {}  # further argparse keywords


def _beta_prime(value: str) -> float | None:
    """A number, or None for 'same'."""
    try:
        return None if value.strip().lower() == "same" else float(value)
    except ValueError:
        msg = f"beta-prime must be a number or 'same', got {value!r}"
        raise argparse.ArgumentTypeError(msg) from None


def _multipliers(value: str) -> tuple[int, ...]:
    try:
        return tuple(int(item) for item in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cutoff-mult must be integers, got {value!r}") from None


# Every flag, in --help order.
_FLAGS = (
    _Flag("n", None, "number of cavities / two-level systems", _MODEL, {"type": int}),
    _Flag("m", 1, "photons prepared per cavity (default 1)", _RUNS, {"type": int}),
    _Flag("beta", None, "rotating coupling strength", _RUNS, {"type": float}),
    _Flag(
        "beta_prime", None, "counter-rotating coupling: a number, or 'same' to mirror beta",
        _COLLECTIVE, {"type": _beta_prime},
    ),
    _Flag("kappa", 0.0, "photon hopping between cavities", ("jch",), {"type": float}),
    _Flag("omega_c", 1.0, "mode energy (default 1)", _MODEL, {"type": float}),
    _Flag("omega_a", 1.0, "two-level splitting (default 1)", _MODEL, {"type": float}),
    _Flag("topology", "line", "hopping graph", ("jch",), {"choices": ["line", "ring", "all"]}),
    _Flag(
        "normalization", "sqrt-n", "collective coupling normalization", _COLLECTIVE,
        {"choices": ["sqrt-n", "none"]},
    ),
    _Flag(
        "cutoff_mult", None, "photon cutoff multiplier(s) of n*m, e.g. '5' or '4,5'", _COLLECTIVE,
        {"type": _multipliers},
    ),
    _Flag("t_max", None, "scan window length", _RUNS, {"type": float}),
    _Flag("samples", 4096, "coarse scan sample count (default 4096)", _RUNS, {"type": int}),
    _Flag("rel_tol", 1e-6, "refinement tolerance (default 1e-6)", _MODEL, {"type": float}),
    _Flag("out", None, "results table CSV path", _SINGLE + ("sweep",)),
    _Flag("series_out", None, "energy series CSV path", _SINGLE + ("rabi",)),
    _Flag("plot_out", None, "plot script path", _SINGLE + ("rabi", "sweep")),
    _Flag("config", None, "JSON file of flag values; flags win on conflict", _ALL),
    _Flag("jobs", None, "accepted and ignored; sweep points run serially", _ALL, {"type": int}),
    _Flag(
        "literal_eq10", False, "collective model: use the alternative printed matrix convention",
        _COLLECTIVE, {"action": "store_true"},
    ),
    _Flag(
        "timing", False, "include wall-clock timings in the table (breaks byte reproducibility)",
        _SINGLE + ("sweep",), {"action": "store_true"},
    ),
    _Flag("delta", 0.0, "two-level/mode detuning (default 0)", ("rabi",), {"type": float}),
    _Flag("preset", None, "which sweep to run", ("sweep",), {"choices": list(preset_names())}),
)

# The value of every config key when neither a flag nor the config file sets it.
_DEFAULTS = {f.name: f.default for f in _FLAGS if f.name != "config"}
_SWITCHES = {f.name for f in _FLAGS if f.options.get("action") == "store_true"}


def _add_flags(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    for f in _FLAGS:
        parser.add_argument("--" + f.name.replace("_", "-"), help=f.help, **f.options)
    return parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbattery",
        description="Charging quench dynamics of cavity-array and collective quantum batteries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, desc in _COMMANDS:
        # Flags not given stay unset, so a config-file value can stand in for them.
        _add_flags(sub.add_parser(command, help=desc, argument_default=argparse.SUPPRESS))
    return parser


def _load_config_file(path: str) -> dict:
    """The file's values, each parsed by its flag's rule as if given as ``--name=value``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a flat JSON object")
    tokens = []
    for key, value in raw.items():
        name = key.replace("-", "_")
        if name not in _DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        # true adds the switch, null adds nothing, a list joins with commas.
        flag = "--" + name.replace("_", "-")
        if value is False and name not in _SWITCHES:
            raise ConfigError(f"config key {key!r} is not a switch and takes no false")
        if value is True:
            tokens.append(flag)
        elif value is not None and value is not False:
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            tokens.append(f"{flag}={text}")
    parser = argparse.ArgumentParser(argument_default=argparse.SUPPRESS, exit_on_error=False)
    try:
        return vars(_add_flags(parser).parse_args(tokens))
    except argparse.ArgumentError as err:
        raise ConfigError(f"config file {path}: {err}") from None


def _require(merged: dict, key: str, command: str):
    if merged[key] is None:
        raise ConfigError(f"--{key.replace('_', '-')} is required for '{command}'")
    return merged[key]


def _build_params(command: str, merged: dict) -> ModelParams:
    model = Model.JCH if command == "jch" else Model.DICKE
    params = ModelParams(
        model=model,
        n=_require(merged, "n", command),
        m=merged["m"],
        beta=_require(merged, "beta", command),
        beta_prime=merged["beta_prime"],
        kappa=merged["kappa"],
        omega_c=merged["omega_c"],
        omega_a=merged["omega_a"],
        topology=Topology(merged["topology"]),
        normalization=Normalization(merged["normalization"]),
        literal_elements=merged["literal_eq10"],
    )
    mults = merged["cutoff_mult"]
    if command == "dicke" and mults is not None:
        if len(mults) != 1:
            raise ConfigError("a single run takes exactly one cutoff multiplier")
        params = params.with_cutoff(mults[0])
    return params


def parse_run(argv: list[str]) -> RunConfig:
    """Parse argv (without the program name) into a resolved RunConfig.

    An unknown flag, or a value its flag's ``type`` or ``choices`` refuses,
    exits with argparse's usage message; from the config file it raises
    ConfigError.  A value the command ignores draws a notice and is reset
    to its default.  Every other rejected value raises ConfigError.
    """
    args = _build_parser().parse_args(argv)
    try:
        return _resolve(args)
    except ConfigError:
        raise
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from err


def _resolve(args: argparse.Namespace) -> RunConfig:
    given = vars(args)
    command = given.pop("command")
    config = given.pop("config", None)
    file_values = _load_config_file(config) if config else {}
    merged = {**_DEFAULTS, **file_values, **given}
    unread = [f.name for f in _FLAGS if command not in f.reads and merged[f.name] != f.default]
    if unread:
        flags = ", ".join("--" + k.replace("_", "-") for k in unread)
        print(f"notice: '{command}' ignores {flags}", file=sys.stderr)
        merged.update((name, _DEFAULTS[name]) for name in unread)

    search = SearchConfig(merged["t_max"], merged["samples"], merged["rel_tol"])
    params = rabi = preset = multipliers = None
    if command in _MODEL:
        params = _build_params(command, merged)
    if command == "rabi":
        rabi = RabiParams(merged["delta"], _require(merged, "beta", command), merged["m"])
    elif command == "sweep":
        preset = _require(merged, "preset", command)
    elif command == "convergence":
        multipliers = merged["cutoff_mult"] or (4, 5)
        for mult in multipliers:
            params.with_cutoff(mult)  # refuses a multiplier below 1
        if len(set(multipliers)) < 2:
            raise ConfigError("convergence needs at least two distinct cutoff multipliers")

    out, series_out, plot_out = merged["out"], merged["series_out"], merged["plot_out"]
    given = [p for p in (out, series_out, plot_out) if p is not None]
    if len(given) != len(set(given)):
        raise ConfigError("output paths must be distinct")
    if command == "sweep" and out is None:
        raise ConfigError("sweep needs --out for the results table")
    if command in ("jch", "dicke", "rabi") and plot_out is not None and series_out is None:
        raise ConfigError("--plot-out for a single run needs --series-out")
    return RunConfig(
        command=command,
        params=params,
        rabi=rabi,
        search=search,
        preset=preset,
        multipliers=multipliers,
        timing=merged["timing"],
        out=out,
        series_out=series_out,
        plot_out=plot_out,
    )


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


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_series(series: np.ndarray, path: str) -> None:
    """Two-column CSV of the energy series, header ``t,energy``."""
    lines = ["t,energy"]
    for t, e in np.asarray(series):
        lines.append(f"{format_float(float(t))},{format_float(float(e))}")
    _write(path, "\n".join(lines) + "\n")


def write_table(rows: list[SweepRow], path: str, include_timing: bool = False) -> None:
    """Result rows as CSV with a fixed header; timings stay blank unless requested."""
    lines = [TABLE_HEADER]
    for r in rows:
        cells = [
            _cell(getattr(r, field)) if include_timing or field != "wall_time_s" else ""
            for _, field in _COLUMNS
        ]
        lines.append(",".join(cells))
    _write(path, "\n".join(lines) + "\n")


_YLABELS = {
    Scaling.NONE: "P_max",
    Scaling.PER_N: "P_max / N",
    Scaling.PER_SQRT_M: "P_max / sqrt(m)",
    Scaling.TIMES_KAPPA: "P_max * kappa",
}


def emit_plot_script(preset: str, table_path: str, image_path: str | None = None) -> str:
    """gnuplot script for a preset's results table, one curve per sweep of the preset.

    The swept column is the x axis (log scale for kappa) and the scaled power
    the y axis.  Each curve selects its rows by the base values of N, kappa
    and beta that tell the preset's sweeps apart and, for a sweep with
    cutoff multipliers, by the largest cutoff.
    """
    specs = preset_specs(preset)
    axis = specs[0].axis.value
    image = image_path if image_path is not None else f"{preset}.png"
    head = [
        "# gnuplot script; run as: gnuplot <this file>",
        "set datafile separator comma",
        "set terminal pngcairo size 960,640",
        f"set output '{image}'",
        "set key top left",
        f"set xlabel '{_HEADER[axis]}'",
        f"set ylabel '{_YLABELS[specs[0].scaling]}'",
    ] + (["set logscale x"] if axis == "kappa" else [])
    keys = [key for key in ("n", "kappa", "beta") if len({getattr(s.base, key) for s in specs}) > 1]
    curves = []
    for spec in specs:
        tests, titles = [], []
        for key in keys:
            value, col = getattr(spec.base, key), _COL[key]
            tests.append(f"${col} == {value}" if key == "n" else f"abs(${col} - {value:g}) < 1e-12")
            titles.append(f"{_HEADER[key]} = {value:g}")
        if spec.cutoff_multipliers:
            n_max = f"{max(spec.cutoff_multipliers)}*${_COL['n']}*${_COL['m']}"
            tests.append(f"${_COL['n_max']} == {n_max}")
        select = " && ".join(tests) or "1"
        curves.append(
            f"  '{table_path}' every ::1 using {_COL[axis]}:({select} ? ${_COL['p_scaled']} : 1/0) "
            f"with linespoints title '{', '.join(titles) or preset}'"
        )
    return "\n".join(head + ["plot \\", ", \\\n".join(curves)]) + "\n"


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
    start = time.perf_counter()
    system = QuenchSystem(run.params)
    with warnings.catch_warnings(record=True) as notes:
        warnings.simplefilter("always")
        result = max_power(system, run.search)
    wall = time.perf_counter() - start
    for note in notes:
        print(f"notice: {note.message}", file=sys.stderr)
    print(
        f"model: {run.params.model.value}   dim: {system.dim}   block: {system.block_dim}   "
        f"engine: {system.engine}"
    )
    print(f"p_max: {format_float(result.p_max)}")
    print(f"tau: {format_float(result.tau)}")
    print(f"e_max: {format_float(result.e_max)}")
    print(f"t_e_max: {format_float(result.t_e_max)}")
    if run.series_out:
        # The search stops early; the series file covers the whole window.
        ts = run.search.grid(run.params)
        write_series(np.column_stack([ts, system.on_grid(ts)]), run.series_out)
    if run.out:
        row = sweep_row(run.params, run.params.n, wall, dim=system.dim, result=result)
        write_table([row], run.out, include_timing=run.timing)
    if run.plot_out:
        _write(run.plot_out, emit_series_plot(run.series_out))
    return 0


def _run_rabi(run: RunConfig) -> int:
    omega, tau = rabi_oracle(run.rabi)
    print(f"omega: {format_float(omega)}")
    print(f"tau_first_peak: {format_float(tau)}")
    if run.series_out:
        search = run.search
        if search.t_max is None:
            # default_horizon's 10*pi/(beta*sqrt(m)), at the detuned frequency.
            search = replace(search, t_max=10.0 * math.pi / omega)
        ts = search.grid(None)
        write_series(np.column_stack([ts, np.sin(omega * ts) ** 2]), run.series_out)
    if run.plot_out:
        _write(run.plot_out, emit_series_plot(run.series_out))
    return 0


def _run_sweep(run: RunConfig) -> int:
    rows: list[SweepRow] = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for spec in preset_specs(run.preset):
            rows.extend(run_sweep(spec))
    write_table(rows, run.out, include_timing=run.timing)
    failures = sum(1 for r in rows if r.error)
    print(f"preset: {run.preset}   rows: {len(rows)}   failed points: {failures}")
    if run.plot_out:
        _write(run.plot_out, emit_plot_script(run.preset, run.out))
    return 0


def _run_convergence(run: RunConfig) -> int:
    converged, max_rel_diff = convergence_check(run.params, run.multipliers, run.search)
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
