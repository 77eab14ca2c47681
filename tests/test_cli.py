"""Command-line interface: parsing, config files, CSV output, exit codes."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from qbattery import cli
from qbattery.cli import (
    TABLE_HEADER,
    ConfigError,
    emit_plot_script,
    emit_series_plot,
    format_float,
    main,
    parse_run,
    write_series,
    write_table,
)
from qbattery.hamiltonians import Model, ModelParams, Topology
from qbattery.sweeps import Axis, SweepRow, SweepSpec, preset_names, preset_specs


def row_template(**overrides):
    fields = dict(
        model="jch", topology="line", normalization=None, n=2, m=1, beta=0.05,
        beta_prime=None, kappa=0.0, n_max=None, dim=8, p_max=0.1, tau=2.5,
        e_max=1.9, p_scaled=0.05, cutoff_converged=None, wall_time_s=1.25,
        axis_value=2.0,
    )
    fields.update(overrides)
    return SweepRow(**fields)


# ---------------------------------------------------------------------------
# Parsing and precedence.


def test_parse_defaults():
    run = parse_run(["jch", "--n", "2", "--beta", "0.05"])
    p = run.params
    assert run.command == "jch"
    assert p.model is Model.JCH
    assert (p.n, p.m, p.beta, p.kappa) == (2, 1, 0.05, 0.0)
    assert p.topology is Topology.LINE
    assert run.search.t_max is None
    assert run.search.n_samples == 4096
    assert run.search.rel_tol == 1e-6
    assert run.timing is False
    assert run.out is None and run.series_out is None and run.plot_out is None


def test_parse_dicke_cutoff_defaults_to_five_fold():
    run = parse_run(["dicke", "--n", "10", "--beta", "0.5"])
    assert run.params.n_max is None
    assert run.params.n_max_value == 50
    assert run.params.beta_prime is None
    assert run.params.beta_prime_value == 0.5


def test_parse_cutoff_multiplier_single_value():
    run = parse_run(["dicke", "--n", "10", "--beta", "0.5", "--cutoff-mult", "4"])
    assert run.params.n_max == 40


def test_parse_cutoff_multiplier_list_rejected_outside_convergence():
    with pytest.raises(ConfigError):
        parse_run(["dicke", "--n", "10", "--beta", "0.5", "--cutoff-mult", "4,5"])


def test_parse_convergence_multipliers():
    run = parse_run(["convergence", "--n", "4", "--beta", "0.5"])
    assert run.multipliers == (4, 5)
    run = parse_run(["convergence", "--n", "4", "--beta", "0.5", "--cutoff-mult", "3,6,9"])
    assert run.multipliers == (3, 6, 9)


def test_parse_beta_prime_spellings():
    same = parse_run(["dicke", "--n", "3", "--beta", "0.5", "--beta-prime", "same"])
    assert same.params.beta_prime is None
    zero = parse_run(["dicke", "--n", "3", "--beta", "0.5", "--beta-prime", "0"])
    assert zero.params.beta_prime == 0.0


def test_missing_required_flags():
    with pytest.raises(ConfigError):
        parse_run(["jch", "--n", "2"])
    with pytest.raises(ConfigError):
        parse_run(["jch", "--beta", "0.05"])


def test_unknown_flag_exits_with_usage_error():
    with pytest.raises(SystemExit) as info:
        parse_run(["jch", "--n", "2", "--beta", "0.05", "--frobnicate"])
    assert info.value.code == 2


def test_duplicate_output_paths_rejected():
    with pytest.raises(ConfigError):
        parse_run(["jch", "--n", "2", "--beta", "0.05", "--out", "x.csv", "--series-out", "x.csv"])


def test_sweep_requires_table_path():
    with pytest.raises(ConfigError):
        parse_run(["sweep", "--preset", "fig2"])


def test_sweep_preset_override_notice(tmp_path, capsys):
    table = str(tmp_path / "t.csv")
    parse_run(["sweep", "--preset", "fig2", "--beta", "0.1", "--out", table])
    err = capsys.readouterr().err
    assert "notice" in err and "--beta" in err
    parse_run(["sweep", "--preset", "fig2", "--out", table])
    assert capsys.readouterr().err == ""
    # The preset carries its own search settings and model.
    parse_run(["sweep", "--preset", "fig4", "--samples", "64", "--omega-a", "1.3", "--out", table])
    err = capsys.readouterr().err
    assert "notice" in err and "--samples" in err and "--omega-a" in err
    # A collective-only value on the chain, and a chain-only value on the collective model.
    parse_run(["jch", "--n", "2", "--beta", "0.05", "--cutoff-mult", "4"])
    err = capsys.readouterr().err
    assert "notice" in err and "--cutoff-mult" in err
    parse_run(["dicke", "--n", "2", "--beta", "0.5", "--kappa", "0.3"])
    err = capsys.readouterr().err
    assert "notice" in err and "--kappa" in err
    # Values the command reads, defaults and --jobs draw no notice.
    parse_run(["jch", "--n", "2", "--beta", "0.05", "--kappa", "0.3", "--beta-prime", "same"])
    parse_run(["dicke", "--n", "2", "--beta", "0.5", "--cutoff-mult", "4", "--kappa", "0"])
    parse_run(["sweep", "--preset", "fig2", "--out", table, "--jobs", "2", "--m", "1"])
    assert capsys.readouterr().err == ""


# Every command's parser flags, and the flags it ignores with a notice.
# Every flag is on every parser, as a config file may carry any key.
_PARSED = [
    "--n", "--m", "--beta", "--beta-prime", "--kappa", "--omega-c", "--omega-a", "--topology",
    "--normalization", "--cutoff-mult", "--t-max", "--samples", "--rel-tol", "--out",
    "--series-out", "--plot-out", "--config", "--jobs", "--literal-eq10", "--timing", "--delta",
    "--preset",
]
PARSER_FLAGS = {command: _PARSED for command in ("jch", "dicke", "rabi", "sweep", "convergence")}
IGNORED = {
    "jch": {"--beta-prime", "--normalization", "--cutoff-mult", "--literal-eq10", "--delta",
            "--preset"},
    "dicke": {"--kappa", "--topology", "--delta", "--preset"},
    "rabi": {"--n", "--beta-prime", "--kappa", "--omega-c", "--omega-a", "--topology",
             "--normalization", "--cutoff-mult", "--rel-tol", "--out", "--literal-eq10",
             "--timing", "--preset"},
    "sweep": {"--n", "--m", "--beta", "--beta-prime", "--kappa", "--omega-c", "--omega-a",
              "--topology", "--normalization", "--cutoff-mult", "--t-max", "--samples",
              "--rel-tol", "--series-out", "--literal-eq10", "--delta"},
    "convergence": {"--kappa", "--topology", "--out", "--series-out", "--plot-out", "--timing",
                    "--delta", "--preset"},
}


def test_each_command_parses_its_flags():
    parser = cli._build_parser()
    commands = parser._subparsers._group_actions[0].choices
    assert list(commands) == list(PARSER_FLAGS)
    for command, sub in commands.items():
        flags = [opt for action in sub._actions for opt in action.option_strings]
        assert flags == ["-h", "--help"] + PARSER_FLAGS[command], command


def test_each_command_names_every_value_it_ignores(tmp_path, capsys):
    # A config file sets every key to a value other than its default; the
    # notice names exactly the keys the command does not read.  --jobs is
    # read by none and accepted silently by all.
    values = {
        "n": 3, "m": 2, "beta": 0.05, "beta_prime": "0.3", "kappa": 0.1, "omega_c": 1.1,
        "omega_a": 1.2, "topology": "ring", "normalization": "none", "t_max": 10.0,
        "samples": 64, "rel_tol": 1e-3, "out": "a.csv", "series_out": "b.csv",
        "plot_out": "c.gp", "jobs": 2, "literal_eq10": True, "timing": True, "delta": 0.2,
        "preset": "fig2",
    }
    assert set(values) | {"cutoff_mult", "config"} == {f.name for f in cli._FLAGS}
    for command, ignored in IGNORED.items():
        cfg = tmp_path / f"{command}.json"
        cutoff = "4,5" if command == "convergence" else "4"
        cfg.write_text(json.dumps({**values, "cutoff_mult": cutoff}))
        parse_run([command, "--config", str(cfg)])
        err = capsys.readouterr().err
        prefix = f"notice: '{command}' ignores "
        assert err.startswith(prefix) and err.endswith("\n"), err
        named = err[len(prefix):-1].split(", ")
        assert len(named) == len(set(named)) and set(named) == ignored, command


def test_rejected_flag_values_name_the_flag(tmp_path, capsys):
    # A malformed value is a usage error as a flag, and a ConfigError from a file.
    with pytest.raises(SystemExit) as info:
        parse_run(["dicke", "--n", "2", "--beta", "0.5", "--beta-prime", "strong"])
    assert info.value.code == 2 and "--beta-prime" in capsys.readouterr().err
    cfg = tmp_path / "strong.json"
    cfg.write_text(json.dumps({"beta_prime": "strong"}))
    with pytest.raises(ConfigError, match="must be a number or 'same'"):
        parse_run(["dicke", "--n", "2", "--beta", "0.5", "--config", str(cfg)])
    with pytest.raises(ConfigError, match="cutoff multiplier must be positive"):
        parse_run(["dicke", "--n", "2", "--beta", "0.5", "--cutoff-mult", "0"])
    # convergence resolves its model as dicke does, one required flag at a time.
    with pytest.raises(ConfigError, match="--n is required for 'convergence'"):
        parse_run(["convergence", "--beta", "0.5"])
    with pytest.raises(ConfigError, match="--beta is required for 'convergence'"):
        parse_run(["convergence", "--n", "2"])
    assert main(["convergence", "--beta", "0.5"]) == 2
    assert capsys.readouterr().err == "error: --n is required for 'convergence'\n"


# A base run per command, and a well-formed value per flag that the
# commands reading it refuse: an ignored value must have no effect at all.
_BASE = {
    "jch": ["jch", "--n", "2", "--beta", "0.05"],
    "dicke": ["dicke", "--n", "2", "--beta", "0.5"],
    "rabi": ["rabi", "--beta", "0.1", "--series-out", "p.csv"],
    "sweep": ["sweep", "--preset", "fig2", "--out", "p.csv"],
    "convergence": ["convergence", "--n", "2", "--beta", "0.5"],
}
_REFUSED = {
    "--n": "0", "--m": "0", "--beta": "nan", "--beta-prime": "-1", "--kappa": "-1",
    "--omega-c": "0", "--omega-a": "0", "--topology": "ring", "--normalization": "none",
    "--cutoff-mult": "0", "--t-max": "-1", "--samples": "2", "--rel-tol": "0",
    "--out": "p.csv", "--series-out": "p.csv", "--plot-out": "p.csv", "--literal-eq10": None,
    "--timing": None, "--delta": "0.1", "--preset": "fig2",
}


def test_an_ignored_value_is_inert(capsys):
    assert set(_REFUSED) == set().union(*IGNORED.values())
    cases = [
        (command, [flag] + ([] if _REFUSED[flag] is None else [_REFUSED[flag]]))
        for command, ignored in IGNORED.items()
        for flag in sorted(ignored)
    ]
    # Ignored output paths that name the same file as each other.
    cases.append(("convergence", ["--out", "p.csv", "--plot-out", "p.csv"]))
    for command, extra in cases:
        expected = parse_run(_BASE[command])
        assert capsys.readouterr().err == ""
        assert parse_run(_BASE[command] + extra) == expected, (command, extra)
        err = capsys.readouterr().err
        assert err.startswith(f"notice: '{command}' ignores "), (command, extra)
        assert all(arg in err for arg in extra if arg.startswith("--")), (command, extra)


def test_config_file_supplies_values_and_flags_win(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"beta": 0.1, "samples": 512, "kappa": 0.3}))
    run = parse_run(["jch", "--n", "2", "--beta", "0.05", "--config", str(cfg)])
    assert run.params.beta == 0.05  # flag beats file
    assert run.params.kappa == 0.3  # file beats default
    assert run.search.n_samples == 512


def test_config_file_rejections(tmp_path):
    bad_key = tmp_path / "a.json"
    bad_key.write_text(json.dumps({"betta": 0.1}))
    with pytest.raises(ConfigError):
        parse_run(["jch", "--n", "2", "--beta", "0.05", "--config", str(bad_key)])
    not_dict = tmp_path / "b.json"
    not_dict.write_text(json.dumps([1, 2]))
    with pytest.raises(ConfigError):
        parse_run(["jch", "--n", "2", "--beta", "0.05", "--config", str(not_dict)])
    not_json = tmp_path / "c.json"
    not_json.write_text("{nope")
    with pytest.raises(ConfigError):
        parse_run(["jch", "--n", "2", "--beta", "0.05", "--config", str(not_json)])
    with pytest.raises(ConfigError):
        parse_run(["jch", "--n", "2", "--beta", "0.05", "--config", str(tmp_path / "absent.json")])
    # Each value meets its flag's rule: none is rounded, coerced to a bool or dropped.
    for i, values in enumerate((
        {"normalization": "bogus"}, {"samples": "many"}, {"m": 0},
        {"timing": "false"}, {"literal_eq10": "false"}, {"n": 2.7},
        {"samples": 512.9}, {"cutoff_mult": [4.7]}, {"m": True},
        {"kappa": False}, {"out": False},
    )):
        bad_value = tmp_path / f"d{i}.json"
        bad_value.write_text(json.dumps({"n": 2, **values}))
        with pytest.raises(ConfigError):
            parse_run(["dicke", "--beta", "0.5", "--config", str(bad_value)])
    # A switch alone takes false.
    switches_off = tmp_path / "e.json"
    switches_off.write_text(json.dumps({"n": 2, "timing": False, "literal_eq10": False}))
    run = parse_run(["dicke", "--beta", "0.5", "--config", str(switches_off)])
    assert run.timing is False and run.params.literal_elements is False


@pytest.mark.parametrize(
    "argv",
    [
        ["jch", "--n", "3", "--beta", "0.05", "--kappa", "0.5", "--topology", "ring",
         "--m", "2", "--omega-a", "1.3", "--t-max", "200", "--samples", "512",
         "--rel-tol", "1e-8", "--jobs", "2", "--timing"],
        ["dicke", "--n", "6", "--beta", "0.5", "--beta-prime", "0.3",
         "--normalization", "none", "--cutoff-mult", "4", "--literal-eq10",
         "--out", "table.csv", "--series-out", "series.csv"],
        ["rabi", "--beta", "0.1", "--delta", "0.2", "--m", "3"],
        ["convergence", "--n", "4", "--beta", "0.5", "--cutoff-mult", "3,5"],
    ],
)
def test_config_round_trip(tmp_path, argv):
    # The same flags as config keys: a flag's value, or true for a switch.
    values, rest = {}, argv[1:]
    while rest:
        key, rest = rest[0][2:], rest[1:]
        if rest and not rest[0].startswith("--"):
            values[key], rest = rest[0], rest[1:]
        else:
            values[key] = True
    cfg = tmp_path / "roundtrip.json"
    cfg.write_text(json.dumps(values))
    assert parse_run([argv[0], "--config", str(cfg)]) == parse_run(argv)


# ---------------------------------------------------------------------------
# Formatting and file output.


@pytest.mark.parametrize("x", [0.05, 1.0 / 3.0, math.pi, -2.5e17, 1e-300, 0.0])
def test_float_formatting_round_trips(x):
    assert float(format_float(x)) == x


def test_write_series_exact_bytes(tmp_path):
    path = tmp_path / "series.csv"
    write_series(np.array([[1.0, 0.5], [2.0, 0.25]]), str(path))
    assert path.read_bytes() == b"t,energy\n1,0.5\n2,0.25\n"


def test_write_table_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_table([], str(path))
    assert path.read_text() == TABLE_HEADER + "\n"


def test_write_table_cells(tmp_path):
    path = tmp_path / "rows.csv"
    rows = [
        row_template(),
        row_template(
            model="dicke", topology=None, normalization="sqrt-n", beta_prime=0.5,
            kappa=None, n_max=40, cutoff_converged=True, p_max=math.nan,
        ),
    ]
    write_table(rows, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == TABLE_HEADER
    assert lines[1] == "jch,line,,2,1,0.050000000000000003,,0,,8,0.10000000000000001,2.5,1.8999999999999999,0.050000000000000003,,"
    assert lines[2].startswith("dicke,,sqrt-n,")
    assert ",nan," in lines[2]
    assert ",true," in lines[2]
    assert lines[1].endswith(",")  # timing withheld by default
    write_table(rows, str(path), include_timing=True)
    assert path.read_text().splitlines()[1].endswith(",1.25")


def test_plot_scripts_mention_data_and_filters(tmp_path):
    for preset in ("fig2", "fig3", "fig4", "fig5", "dicke_m"):
        script = emit_plot_script(preset, "table.csv")
        assert "set datafile separator comma" in script
        assert "'table.csv'" in script
        assert "plot" in script
    assert emit_plot_script("fig2", "t.csv").count("linespoints") == 3
    assert emit_plot_script("fig3", "t.csv").count("linespoints") == 4
    assert "logscale x" in emit_plot_script("fig4", "t.csv")
    assert "== 5*$4*$5" in emit_plot_script("fig5", "t.csv")
    with pytest.raises(ValueError):
        emit_plot_script("fig9", "t.csv")
    for preset in preset_names():
        script = emit_plot_script(preset, "t.csv")
        assert script.count("linespoints") == len(preset_specs(preset))
    series = emit_series_plot("series.csv", "out.png")
    assert "using 1:2" in series
    assert "set output 'out.png'" in series


def test_plot_script_follows_an_unseen_preset(monkeypatch):
    spec = SweepSpec(base=ModelParams(model=Model.JCH, n=2, m=1, beta=0.1), axis=Axis.BETA,
                     values=(0.1, 0.2))
    monkeypatch.setattr(cli, "preset_specs", lambda name: [spec])
    script = emit_plot_script("beta_only", "t.csv")
    assert "set xlabel 'beta'" in script and "set ylabel 'P_max'" in script
    assert script.endswith("  't.csv' every ::1 using 6:(1 ? $14 : 1/0) "
                           "with linespoints title 'beta_only'\n")


# ---------------------------------------------------------------------------
# End-to-end commands.


def test_single_run_writes_deterministic_outputs(tmp_path, capsys):
    table = tmp_path / "run.csv"
    series = tmp_path / "series.csv"
    plot = tmp_path / "plot.gp"
    argv = [
        "jch", "--n", "2", "--beta", "0.05", "--kappa", "0.05",
        "--samples", "512", "--out", str(table), "--series-out", str(series),
        "--plot-out", str(plot),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    # The reversal pairs the 8 states of the sector into 5 symmetric ones.
    assert "p_max:" in out and "dim: 8   block: 5   engine: dense" in out
    lines = table.read_text().splitlines()
    assert lines[0] == TABLE_HEADER
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "jch" and cells[1] == "line"
    assert cells[2] == "" and cells[6] == "" and cells[8] == ""  # collective-only columns
    assert cells[15] == ""  # timing withheld
    first = (table.read_bytes(), series.read_bytes(), plot.read_bytes())
    assert main(argv) == 0
    assert (table.read_bytes(), series.read_bytes(), plot.read_bytes()) == first


@pytest.mark.parametrize(
    "argv, engine",
    [
        (["--n", "2", "--kappa", "0.05"], "dense"),
        (["--topology", "all", "--n", "6", "--kappa", "0.05"], "chebyshev"),
    ],
)
def test_series_covers_the_whole_window(tmp_path, capsys, force_engine, argv, engine):
    # The search stops early; the series file still holds every grid time.
    force_engine(engine)
    series = tmp_path / "series.csv"
    assert main(["jch", "--beta", "0.05", "--series-out", str(series)] + argv) == 0
    assert f"engine: {engine}" in capsys.readouterr().out
    lines = series.read_text().splitlines()
    assert lines[0] == "t,energy"
    data = np.loadtxt(series, delimiter=",", skiprows=1)
    assert data.shape == (4096, 2)
    assert data[-1, 0] == 10.0 * math.pi / 0.05
    assert np.array_equal(data[:, 0], data[-1, 0] * np.arange(1, 4097) / 4096)


def test_plot_requires_series(tmp_path):
    assert main([
        "jch", "--n", "2", "--beta", "0.05", "--samples", "256",
        "--plot-out", str(tmp_path / "p.gp"),
    ]) == 2


def test_rabi_series_matches_closed_form(tmp_path, capsys):
    series = tmp_path / "rabi.csv"
    assert main(["rabi", "--beta", "0.05", "--series-out", str(series)]) == 0
    out = capsys.readouterr().out
    assert "omega: 0.05" in out
    data = np.loadtxt(series, delimiter=",", skiprows=1)
    assert np.max(np.abs(data[:, 1] - np.sin(0.05 * data[:, 0]) ** 2)) <= 1e-12


def test_single_run_prints_search_notices(capsys):
    # Nothing couples, so the energy stays flat: the search's notice goes to
    # stderr and the run still succeeds.
    assert main(["dicke", "--n", "2", "--beta", "0", "--beta-prime", "0", "--samples", "64"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "notice: energy stayed flat over the scan window; no charging happens\n"
    assert "p_max: 0" in captured.out


def test_rabi_and_sweep_write_their_plot_scripts(tmp_path, capsys):
    series, plot = tmp_path / "rabi.csv", tmp_path / "rabi.gp"
    argv = ["rabi", "--beta", "0.05", "--series-out", str(series), "--plot-out", str(plot)]
    assert main(argv) == 0
    assert plot.read_text() == emit_series_plot(str(series))
    table, plot = tmp_path / "fig4.csv", tmp_path / "fig4.gp"
    assert main(["sweep", "--preset", "fig4", "--out", str(table), "--plot-out", str(plot)]) == 0
    assert plot.read_text() == emit_plot_script("fig4", str(table))
    assert len(table.read_text().splitlines()) == 29


def test_convergence_prints_search_notices(capsys):
    # 64 samples put the quotient maximum on the first one at both cutoffs:
    # one notice line, no Python warning with its source path.
    assert main(["convergence", "--n", "2", "--beta", "0.5", "--samples", "64"]) == 0
    captured = capsys.readouterr()
    assert captured.err == (
        "notice: quotient maximum sits at the lower scan edge; treat tau as a bound\n"
    )
    assert "converged: true" in captured.out


def test_convergence_command_reports_verdict(capsys):
    assert main(["convergence", "--n", "2", "--beta", "0.05", "--samples", "256"]) == 0
    out = capsys.readouterr().out
    assert "converged: true" in out
    assert "max_rel_diff:" in out


def test_exit_codes(tmp_path, capsys, force_engine):
    assert main(["jch", "--n", "2"]) == 2  # missing --beta
    assert main(["jch", "--n", "40", "--beta", "0.05"]) == 1  # sector too large
    capsys.readouterr()
    bad_value = tmp_path / "bad.json"
    bad_value.write_text(json.dumps({"normalization": "bogus"}))
    bad_preset = tmp_path / "preset.json"
    bad_preset.write_text(json.dumps({"preset": "bogus"}))
    for argv in (
        ["jch", "--n", "2", "--beta", "0.05", "--samples", "3"],  # SearchConfig
        ["jch", "--n", "2", "--beta", "0.05", "--m", "0"],  # ModelParams
        ["dicke", "--n", "2", "--beta", "0.5", "--config", str(bad_value)],  # enum
        ["sweep", "--config", str(bad_preset), "--out", str(tmp_path / "t.csv")],
        ["jch", "--n", "2", "--beta", "0.05", "--t-max", "inf"],  # non-finite floats
        ["jch", "--n", "2", "--beta", "nan"],
        ["rabi", "--beta", "nan"],
        ["convergence", "--n", "2", "--beta", "0.5", "--cutoff-mult", "5"],  # one cutoff
        ["convergence", "--n", "2", "--beta", "0.5", "--cutoff-mult", "4,4"],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
    force_engine("chebyshev")
    assert main(["jch", "--n", "2", "--beta", "0.05"]) == 0
    assert "engine: chebyshev" in capsys.readouterr().out


def test_state_cap_is_no_option(tmp_path, capsys, cap_states):
    # The cap follows physical memory and the block picks the engine: no
    # flag or config key sets either.
    for key, value in (("max_dim", 5), ("dense_limit", 0)):
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as err:
            main(["jch", "--n", "2", "--beta", "0.05", flag, str(value)])
        assert err.value.code == 2
        assert flag in capsys.readouterr().err
        cfg = tmp_path / f"{key}.json"
        cfg.write_text(json.dumps({key: value}))
        with pytest.raises(ConfigError, match=key):
            parse_run(["jch", "--n", "2", "--beta", "0.05", "--config", str(cfg)])
        assert main(["jch", "--n", "2", "--beta", "0.05", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: unknown config key")
    # Over the cap, a run exits 1 and names it: 2,687 orbits on the line,
    # and 105 ladder states at the larger of the two default cutoffs.
    cap_states(2_686)
    assert main(["jch", "--n", "6", "--beta", "0.05", "--kappa", "0.5"]) == 1
    assert "cap of 2686 set by physical memory" in capsys.readouterr().err
    cap_states(104)
    assert main(["convergence", "--n", "4", "--beta", "0.5"]) == 1
    assert "cap of 104 set by physical memory" in capsys.readouterr().err


def test_readme_flags_match_the_flag_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("\nFlags: ", 1)[1].split("\n\n", 1)[0]
    named = re.findall(r"`(--[a-z0-9-]+)", paragraph)
    assert len(named) == len(set(named))
    assert set(named) == {"--" + f.name.replace("_", "-") for f in cli._FLAGS}


def test_timing_column_only_with_flag(tmp_path):
    base = ["jch", "--n", "1", "--beta", "0.05", "--samples", "256"]
    quiet = tmp_path / "a.csv"
    timed = tmp_path / "b.csv"
    assert main(base + ["--out", str(quiet)]) == 0
    assert main(base + ["--out", str(timed), "--timing"]) == 0
    assert quiet.read_text().splitlines()[1].endswith(",")
    last = timed.read_text().splitlines()[1].rsplit(",", 1)[1]
    assert last != "" and float(last) > 0.0
