"""Command-line interface: config handling, row contracts, failure modes."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from dickelab import cli, dipole, errors
from dickelab.cli import (
    COMMANDS,
    EXIT_BUDGET,
    EXIT_CONVERGENCE,
    EXIT_VALIDATION,
    RunConfig,
    build_config,
    main,
    read_config_file,
)
from dickelab.dipole import GridSpec

# Coarse-but-honest numerics so the whole file stays fast; correctness at
# production resolution is covered by the module and acceptance tests.
FAST = ["grid_points=64", "gap_tol=1e-5"]


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config ")
    return lines[0], list(csv.DictReader(lines[1:]))


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "command = jc-curve\n"
        "beta = 3.3   # trailing comment\n"
        "beta = 2.4\n"
        "\n"
        "eta_grid = 0, 1, 5\n"
    )
    items = read_config_file(cfg)
    assert items == {"command": "jc-curve", "beta": "2.4", "eta_grid": "0, 1, 5"}
    rc = build_config(items)
    assert rc.beta == 2.4
    assert rc.eta_grid == (0.0, 1.0, 5)


def test_malformed_config_line_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("command jc-curve\n")
    with pytest.raises(Exception):
        read_config_file(cfg)


def test_figure_commands_pin_defaults():
    rc = build_config({"command": "fig3a"})
    assert rc.beta == 3.3
    assert rc.eta_grid == (0.0, 1.5, 31)
    # Explicit keys still win over the pinned figure defaults.
    rc2 = build_config({"command": "fig3a", "eta_grid": "0,1,3"})
    assert rc2.eta_grid == (0.0, 1.0, 3)


def test_unknown_key_and_bad_values_exit_validation(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["--command", "jc-curve", "--out", str(out), "bogus_key=1"]) \
        == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == EXIT_VALIDATION
    assert "bogus_key" in err["message"]

    assert main(["--command", "jc-curve", "--out", str(out),
                 "eta_grid=2,1,5"]) == EXIT_VALIDATION
    # Alpha tokens are resolved by the commands that consume them.
    assert main(["--command", "thermo-sweep", "--out", str(out),
                 "alpha_list=1.5", "eta_grid=0,1,3"] + FAST) == EXIT_VALIDATION
    assert main(["not-key-value"]) == EXIT_VALIDATION
    assert main(["--out", str(out), "command=s-figs"]) == EXIT_VALIDATION


def test_empty_alpha_list_exits_validation_before_the_file_opens(tmp_path, capsys):
    """An alpha_list without a value would leave the tables that read it with
    a header and no rows."""
    out = tmp_path / "x.csv"
    for command in ("thermo-sweep", "fig1", "exact-sweep", "s-figs-absorbed"):
        for text in ("", ","):
            assert main(["--command", command, "--out", str(out),
                         f"alpha_list={text}"] + FAST) == EXIT_VALIDATION
            assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"
            assert not out.exists()


# The exit code of every package error, a bare ValueError and a foreign error.
EXIT_CODES = {
    errors.DickelabError: EXIT_VALIDATION,
    errors.ValidationError: EXIT_VALIDATION,
    errors.PhaseError: EXIT_VALIDATION,
    errors.GridError: EXIT_VALIDATION,
    errors.ConventionMismatch: EXIT_VALIDATION,
    errors.ConvergenceError: EXIT_CONVERGENCE,
    errors.DomainError: EXIT_CONVERGENCE,
    errors.InstabilityError: EXIT_CONVERGENCE,
    errors.RootError: EXIT_CONVERGENCE,
    errors.BudgetError: EXIT_BUDGET,
    ValueError: EXIT_VALIDATION,
    RuntimeError: 1,
}


@pytest.mark.parametrize("error", [errors.DickelabError, *errors.DickelabError.__subclasses__(),
                                   ValueError, RuntimeError], ids=lambda error: error.__name__)
def test_each_error_exits_with_its_code(tmp_path, monkeypatch, capsys, error):
    def fail(cfg):
        raise error("boom")

    monkeypatch.setattr(cli, "run", fail)
    code = main(["--command", "jc-curve", "--out", str(tmp_path / "jc.csv")])
    assert code == EXIT_CODES[error]
    assert json.loads(capsys.readouterr().err) == {
        "error": error.__name__, "message": "boom", "exit_code": code}


def test_budget_violation_exit_code(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["--command", "exact-sweep", "--out", str(out),
                 "budget=100", "n_dipoles=2", "eta_grid=0,0.4,3"] + FAST)
    assert code == EXIT_BUDGET
    assert json.loads(capsys.readouterr().err)["error"] == "BudgetError"


def test_convergence_failure_exit_code(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["--command", "spectrum", "--out", str(out),
                 "grid_points=24", "gap_tol=1e-9"])
    assert code == EXIT_CONVERGENCE
    assert json.loads(capsys.readouterr().err)["error"] == "ConvergenceError"
    # The file opens before the well solve, so it ends with the marker.
    assert out.read_text().splitlines()[1:] == ["n,e_n,zeta_0n,zeta_1n", "# TRUNCATED"]


def test_mid_sweep_failure_marks_truncated_output(tmp_path, capsys):
    """fig3a streams rows per dipole count; a budget violation at N = 3
    (1,440 sector states at N = 2, 4,800 at N = 3) leaves the N = 1 and
    N = 2 rows behind with an explicit truncation marker."""
    out = tmp_path / "partial.csv"
    code = main(["--command", "fig3a", "--out", str(out), "budget=2000",
                 "eta_grid=0,0.4,3"] + FAST)
    assert code == EXIT_BUDGET
    assert json.loads(capsys.readouterr().err)["error"] == "BudgetError"
    text = out.read_text()
    assert text.rstrip().endswith("# TRUNCATED")
    assert any(line and not line.startswith("#") for line in text.splitlines()[1:])


def test_spectrum_command_rows(tmp_path):
    out = tmp_path / "spec.csv"
    assert main(["--command", "spectrum", "--out", str(out), "levels=6",
                 "beta=2.4"] + FAST) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config ")
    assert "command=spectrum" in lines[0]
    assert lines[1] == "n,e_n,zeta_0n,zeta_1n"
    assert len(lines) == 2 + 6
    gaps = [float(r.split(",")[1]) for r in lines[2:]]
    assert gaps == sorted(gaps)
    # At the resonance scale the first transition is the mode frequency.
    scale = dipole.resonance_energy_scale(2.4, 1.0, GridSpec(points=64), gap_tol=1e-5)
    assert (gaps[1] - gaps[0]) * scale == pytest.approx(1.0, rel=1e-12)


def test_jc_curve_rows(tmp_path):
    out = tmp_path / "jc.csv"
    assert main(["--command", "jc-curve", "--out", str(out),
                 "eta_grid=0,2,9"] + FAST) == 0
    header, rows = read_rows(out)
    assert list(rows[0].keys()) == ["eta", "alpha_jc", "phase"]
    values = [float(r["alpha_jc"]) for r in rows]
    assert values[0] == pytest.approx(0.5, abs=1e-6)
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    assert rows[0]["phase"] == "normal"
    assert rows[-1]["phase"] == "abnormal"


def test_thermo_sweep_row_contract(tmp_path):
    out = tmp_path / "thermo.csv"
    assert main(["--command", "thermo-sweep", "--out", str(out),
                 "eta_grid=0,2,5", "alpha_list=0,jc,1"] + FAST) == 0
    _, rows = read_rows(out)
    assert list(rows[0].keys()) == [
        "alpha", "eta", "tau", "phase", "E_plus", "E_minus",
        "ground_density", "pi_average", "p_t_average"]
    assert len(rows) == 3 * 5
    at_zero = [r for r in rows if float(r["eta"]) == 0.0]
    for r in at_zero:
        assert float(r["E_plus"]) == pytest.approx(1.0, abs=1e-9)
        assert float(r["E_minus"]) == pytest.approx(1.0, abs=1e-9)
        assert r["tau"] == "inf"
    # Constant-gauge sweeps resolve the jc token once, at zero coupling.
    jc_rows = [r for r in rows if r["alpha"] not in ("0", "1")]
    alphas = {r["alpha"] for r in jc_rows}
    assert len(alphas) == 1
    assert float(next(iter(alphas))) == pytest.approx(0.5, abs=1e-6)


def test_fig1_zero_coupling_normalization(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main(["--command", "fig1", "--out", str(out),
                 "eta_grid=0,2,5"] + FAST) == 0
    _, rows = read_rows(out)
    polariton = {float(r["E_plus"]) for r in rows if float(r["eta"]) == 0.0}
    assert all(v == pytest.approx(1.0, abs=1e-9) for v in polariton)


def test_fig1_is_the_thermo_sweep(tmp_path):
    """fig1 and thermo-sweep are one table: identical data rows, and config
    lines whose listings differ only in the command token."""
    lines = []
    for command in ("thermo-sweep", "fig1"):
        out = tmp_path / f"{command}.csv"
        assert main(["--command", command, "--out", str(out), "eta_grid=0,2.4,4"] + FAST) == 0
        lines.append(out.read_text().splitlines())
    (sweep, *sweep_rows), (fig1, *fig1_rows) = lines
    assert sweep_rows == fig1_rows and len(sweep_rows) == 1 + 3 * 4
    sweep_listing, fig1_listing = (line.split(" ")[3:] for line in (sweep, fig1))
    assert len(sweep_listing) == len(fig1_listing)
    assert [(a, b) for a, b in zip(sweep_listing, fig1_listing) if a != b] \
        == [("command=thermo-sweep", "command=fig1")]


def test_fig2_ratio_tracks_pointwise_jc_gauge(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["--command", "fig2", "--out", str(out),
                 "eta_grid=0.4,1.2,3"] + FAST) == 0
    _, rows = read_rows(out)
    by_eta = {}
    for r in rows:
        by_eta.setdefault(float(r["eta"]), {})[r["alpha"]] = r
    for eta, group in by_eta.items():
        jc_alpha = [a for a in group if a not in ("0", "1")]
        assert len(jc_alpha) == 1
        # At the symmetric gauge the two bilinear couplings coincide, so the
        # plotted ratio equals alpha itself there.
        a = float(jc_alpha[0])
        assert 0.0 < a < 0.5


def test_fig3b_column_contract(tmp_path):
    out = tmp_path / "f3b.csv"
    assert main(["--command", "fig3b", "--out", str(out),
                 "eta_grid=1.9,2.2,4", "fock_cutoff=20"] + FAST) == 0
    _, rows = read_rows(out)
    assert list(rows[0].keys()) == [
        "eta", "alpha", "phase", "d2_n1", "d2_n2", "d2_n3", "d2_n4",
        "d2_thermo"]
    for r in rows:
        for col in ("d2_n1", "d2_n2", "d2_n3", "d2_n4"):
            assert math.isfinite(float(r[col]))


def test_exact_sweep_row_contract(tmp_path):
    out = tmp_path / "exact.csv"
    assert main(["--command", "exact-sweep", "--out", str(out),
                 "eta_grid=0,0.8,3", "dipole_levels=4", "fock_cutoff=12",
                 "alpha_list=1"] + FAST) == 0
    _, rows = read_rows(out)
    assert list(rows[0].keys()) == [
        "eta", "alpha", "phase", "n_dipoles", "model", "G", "E",
        "gap_over_omega"]
    models = {r["model"] for r in rows}
    assert models == {"exact", "two_level"}
    zero = [r for r in rows if float(r["eta"]) == 0.0 and r["model"] == "exact"]
    assert float(zero[0]["gap_over_omega"]) == pytest.approx(1.0, abs=1e-8)


def test_convergence_command_ladder(tmp_path):
    out = tmp_path / "conv.csv"
    assert main(["--command", "convergence", "--out", str(out),
                 "ladder=4,10;6,14", "eta_point=0.6", "alpha_point=1"]
                + FAST) == 0
    _, rows = read_rows(out)
    assert [int(r["dipole_levels"]) for r in rows] == [4, 6]
    assert rows[0]["delta_G"] == ""
    assert rows[1]["delta_G"] != ""


def test_convergence_counts_symmetric_sector_states(tmp_path):
    """The `dimension` column counts symmetric-sector states: C(N+L-1, N)
    dipole states times the Fock cutoff."""
    out = tmp_path / "conv.csv"
    assert main(["--command", "convergence", "--out", str(out), "n_dipoles=2",
                 "ladder=4,10;6,14", "eta_point=0.6", "alpha_point=1"] + FAST) == 0
    _, rows = read_rows(out)
    assert [int(r["dimension"]) for r in rows] == [10 * 10, 21 * 14]


def test_convergence_default_ladder_prints_no_rounding_as_tail(tmp_path):
    """At the default ladder every rung's Fock tail lies below the
    eigensolver's rounding and reads exactly 0."""
    out = tmp_path / "conv.csv"
    assert main(["--command", "convergence", "--out", str(out)] + FAST) == 0
    _, rows = read_rows(out)
    assert [r["fock_tail"] for r in rows] == ["0", "0", "0"]


def test_s_figs_writes_two_files(tmp_path):
    """`s-figs-absorbed` and `s-figs-gauges` each write one table."""
    for command in ("s-figs-absorbed", "s-figs-gauges"):
        assert main(["--command", command, "--out", str(tmp_path / f"{command}.csv"),
                     "eta_grid=0,0.6,3", "dipole_levels=4", "fock_cutoff=10",
                     "grid_points=64", "gap_tol=1e-5"]) == 0
    _, rows_a = read_rows(tmp_path / "s-figs-absorbed.csv")
    assert len(rows_a) == 3 * 3  # three gauges, three couplings
    _, rows_g = read_rows(tmp_path / "s-figs-gauges.csv")
    assert {r["model"] for r in rows_g} == {
        "exact", "two_level_coulomb", "two_level_jc", "two_level_multipolar"}
    assert {int(r["n_dipoles"]) for r in rows_g} == {1, 2, 3}


def test_s_figs_provenance_states_each_sheets_beta(tmp_path):
    """`s-figs-absorbed` is computed at beta 2.4 and `s-figs-gauges` at beta
    1.5 whatever the config's beta; each `# config` line says so under its
    run's digest."""
    overrides = ["beta=3.3", "eta_grid=0,0.6,3", "dipole_levels=4", "fock_cutoff=10",
                 "grid_points=64", "gap_tol=1e-5"]
    for command, beta in (("s-figs-absorbed", "2.4"), ("s-figs-gauges", "1.5")):
        out = tmp_path / f"{command}.csv"
        assert main(["--command", command, "--out", str(out)] + overrides) == 0
        digest = build_config(dict(kv.split("=") for kv in overrides + [f"command={command}"])
                              ).digest()
        line, _ = read_rows(out)
        assert line.split()[:4] == ["#", "config", digest, f"command={command}"]
        assert f" beta={beta} " in line


def test_s_figs_sheets_state_their_own_convention(tmp_path):
    """`s-figs-absorbed` is always self-energy-in-bare and `s-figs-gauges`
    always main-text, both at the resonance scale and their own beta, so the
    run's convention, beta and energy_scale change neither a row nor the
    digest."""
    common = ["eta_grid=0,0.6,3", "dipole_levels=4", "fock_cutoff=10"] + FAST
    for command, convention in (("s-figs-absorbed", "self-energy-in-bare"),
                                ("s-figs-gauges", "main-text")):
        tables = []
        for tag, extra in (("set", ["convention=self-energy-in-bare", "beta=3.3",
                                    "energy_scale=5"]), ("unset", [])):
            out = tmp_path / f"{command}-{tag}.csv"
            assert main(["--command", command, "--out", str(out)] + common + extra) == 0
            tables.append(read_rows(out))
        (line, rows), (line_unset, rows_unset) = tables
        assert f" convention={convention} " in line
        assert line == line_unset
        assert rows == rows_unset


def test_keys_every_sheet_pins_stay_out_of_the_digest():
    default = build_config({"command": "fig3a"}).digest()
    assert build_config({"command": "fig3a", "convention": "self-energy-in-bare",
                         "alpha_list": "0"}).digest() == default
    assert build_config({"command": "fig3a", "beta": "2.4"}).digest() != default
    # s-figs-absorbed reads alpha_list, and s-figs-gauges pins it.
    absorbed = build_config({"command": "s-figs-absorbed"}).digest()
    assert build_config({"command": "s-figs-absorbed", "alpha_list": "1"}).digest() != absorbed
    gauges = build_config({"command": "s-figs-gauges"}).digest()
    assert build_config({"command": "s-figs-gauges", "alpha_list": "1"}).digest() == gauges
    assert build_config({"command": "exact-sweep", "convention": "self-energy-in-bare"}
                        ).digest() != build_config({"command": "exact-sweep"}).digest()


def test_fig3a_solves_each_well_once(tmp_path, monkeypatch, capsys):
    """One resonance solve and one base spectrum serve all dipole counts; the
    budget stops the run at N = 3."""
    calls = []
    solve = dipole.solve_double_well

    def counted(*args, **kwargs):
        calls.append(args[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(dipole, "solve_double_well", counted)
    out = tmp_path / "f3a.csv"
    assert main(["--command", "fig3a", "--out", str(out), "budget=3000",
                 "eta_grid=0,0.4,3"] + FAST) == EXIT_BUDGET
    assert json.loads(capsys.readouterr().err)["error"] == "BudgetError"
    assert {int(r["n_dipoles"]) for r in csv.DictReader(out.read_text().splitlines()[1:-1])} \
        == {1, 2}
    assert len(calls) == 2


def test_s_figs_solves_each_distinct_well_once(tmp_path, monkeypatch, capsys):
    """Resonance scale and base spectrum for each command, plus one absorbed
    well per distinct quadratic coefficient of `s-figs-absorbed` (alpha = 0
    and eta = 0 share the plain well): seven solves there, and two for
    `s-figs-gauges`, which the budget stops at N = 3 (100 sector states at
    N = 2, 200 at N = 3)."""
    calls = []
    solve = dipole.solve_double_well

    def counted(*args, **kwargs):
        calls.append(args[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(dipole, "solve_double_well", counted)
    for command, code, solves in (("s-figs-absorbed", 0, 7),
                                  ("s-figs-gauges", EXIT_BUDGET, 2)):
        calls.clear()
        assert main(["--command", command, "eta_grid=0,0.6,3", "dipole_levels=4",
                     "fock_cutoff=10", "budget=100",
                     "--out", str(tmp_path / f"{command}.csv")]) == code
        assert len(calls) == solves
    assert json.loads(capsys.readouterr().err)["error"] == "BudgetError"


def test_grid_beyond_the_cap_exits_validation_before_any_solve(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("dickelab.dipole._solve_potential",
                        lambda *args: pytest.fail("solved beyond the point cap"))
    code = main(["--command", "spectrum", "--out", str(tmp_path / "spec.csv"),
                 "grid_points=32000"])
    assert code == EXIT_VALIDATION
    assert "grid points" in json.loads(capsys.readouterr().err)["message"]


def test_threads_is_not_an_option(tmp_path, capsys):
    out = str(tmp_path / "jc.csv")
    assert main(["--command", "jc-curve", "--out", out, "threads=2"]) == EXIT_VALIDATION
    assert "threads" in json.loads(capsys.readouterr().err)["message"]
    with pytest.raises(SystemExit) as exit_info:
        main(["--command", "jc-curve", "--out", out, "--threads", "2"])
    assert exit_info.value.code == EXIT_VALIDATION


def test_unknown_command_flag_prints_the_error_record(tmp_path, capsys):
    """An unknown `--command` value exits 2 through the JSON error record, as
    the same value given as an override does; `--help` names every command."""
    out = tmp_path / "x.csv"
    assert main(["--command", "s-figs", "--out", str(out)]) == EXIT_VALIDATION
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValidationError" and "s-figs" in record["message"]
    assert not out.exists()
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    # Help text wraps at hyphens, so compare with the whitespace taken out.
    help_text = "".join(capsys.readouterr().out.split())
    assert all(command in help_text for command in COMMANDS)


def test_alpha_point_outside_gauge_family_exits_validation(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    for alpha in ("1.5", "-0.1"):
        code = main(["--command", "convergence", "--out", str(out), f"alpha_point={alpha}",
                     "ladder=4,10;6,20"] + FAST)
        assert code == EXIT_VALIDATION
        assert "alpha_point" in json.loads(capsys.readouterr().err)["message"]


def test_bad_eta_point_or_grid_end_exits_validation_before_the_file_opens(tmp_path, capsys):
    """A non-finite or negative eta_point and a non-finite eta_grid end are
    refused with ValidationError before the file opens, as a table that read
    them would fail mid-sweep or fill with inf and nan."""
    out = tmp_path / "x.csv"
    for command, override in (("convergence", "eta_point=nan"), ("convergence", "eta_point=-1"),
                              ("convergence", "eta_point=inf"), ("exact-sweep", "eta_grid=0,inf,3"),
                              ("thermo-sweep", "eta_grid=0,nan,3"), ("fig2", "eta_grid=-inf,1,3")):
        assert main(["--command", command, "--out", str(out), override] + FAST) == EXIT_VALIDATION
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ValidationError"
        assert override.split("=")[0] in record["message"]
        assert not out.exists()


def test_ci_replays_every_command():
    """The workflow's console-script loop runs every command at least once
    and names no other."""
    workflow = (Path(__file__).resolve().parents[1] / ".github" / "workflows"
                / "tests.yml").read_text()
    start = workflow.index("for args in")
    loop = workflow[start:workflow.index("; do", start)]
    assert set(re.findall(r'"--command ([^\s"]+)', loop)) == set(COMMANDS)


def test_bad_energy_scale_exits_validation_before_the_file_opens(tmp_path, capsys):
    """A numeric energy_scale that is not finite and positive is refused
    before the file opens: an infinite one printed G = E = 0 and NaN levels."""
    out = tmp_path / "x.csv"
    for command in ("convergence", "spectrum"):
        for value in ("inf", "nan", "-1", "0", "big"):
            assert main(["--command", command, "--out", str(out),
                         f"energy_scale={value}"] + FAST) == EXIT_VALIDATION
            record = json.loads(capsys.readouterr().err)
            assert record["error"] == "ValidationError"
            assert "energy_scale" in record["message"]
            assert not out.exists()


def test_non_positive_gap_tol_exits_validation(tmp_path, capsys):
    out = tmp_path / "jc.csv"
    for tol in ("0", "-1"):
        code = main(["--command", "jc-curve", "--out", str(out), f"gap_tol={tol}"])
        assert code == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "gap_tol" in err["message"]


def test_failed_spectrum_replaces_stale_spectrum(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    out.write_text("# config stale\nn,e_n,zeta_0n,zeta_1n\n0,0,0,0\n")
    code = main(["--command", "spectrum", "--out", str(out),
                 "grid_points=24", "gap_tol=1e-9"])
    assert code == EXIT_CONVERGENCE
    assert json.loads(capsys.readouterr().err)["error"] == "ConvergenceError"
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config ") and "stale" not in lines[0]
    assert lines[1:] == ["n,e_n,zeta_0n,zeta_1n", "# TRUNCATED"]


def test_failure_before_first_row_replaces_stale_table(tmp_path, capsys):
    """A table command opens its file before computing, so a run that fails
    at its first solve cannot leave an earlier complete table in place."""
    out = tmp_path / "jc.csv"
    out.write_text("# config stale\neta,alpha_jc,phase\n0,0.5,normal\n")
    code = main(["--command", "jc-curve", "--out", str(out),
                 "grid_points=24", "gap_tol=1e-9"])
    assert code == EXIT_CONVERGENCE
    assert json.loads(capsys.readouterr().err)["error"] == "ConvergenceError"
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config ") and "stale" not in lines[0]
    assert lines[1:] == ["eta,alpha_jc,phase", "# TRUNCATED"]


def test_reruns_are_byte_identical(tmp_path):
    args = ["--command", "fig1", "eta_grid=0,1.2,4"] + FAST
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_digest_ignores_output_location(tmp_path):
    args = ["--command", "jc-curve", "eta_grid=0,1,3"] + FAST
    a, b = tmp_path / "one.csv", tmp_path / "two" / "other.csv"
    b.parent.mkdir()
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_text().splitlines()[0] == b.read_text().splitlines()[0]


def test_config_file_plus_overrides_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = jc-curve\neta_grid = 0, 1, 3\nbeta = 3.3\n")
    out = tmp_path / "out.csv"
    assert main(["--config", str(cfg), "--out", str(out), "beta=2.4"]
                + FAST) == 0
    header, _ = read_rows(out)
    assert "beta=2.4" in header


def test_blas_thread_count_moves_rows_only_in_the_last_digits(tmp_path):
    """The digest does not record the BLAS thread count, so reruns at 1 and 2
    OpenBLAS threads share it; their rows agree to rel 1e-12 on G and E and
    to 1e-11 on the gap. Each run is a fresh process because OpenBLAS reads
    its thread count once, at load time."""
    args = ["--command", "exact-sweep", "n_dipoles=2", "beta=3.3", "eta_grid=0,2.8,5",
            "grid_points=64", "gap_tol=1e-5"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    tables = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        subprocess.run([sys.executable, "-m", "dickelab.cli", "--out", str(out)] + args,
                       env=env, check=True, timeout=600)
        tables.append(read_rows(out))
    (line1, rows1), (line2, rows2) = tables
    assert line1 == line2
    assert len(rows1) == len(rows2) == 5 * 3 * 2
    for a, b in zip(rows1, rows2):
        assert [a[k] for k in ("eta", "phase", "n_dipoles", "model")] == \
            [b[k] for k in ("eta", "phase", "n_dipoles", "model")]
        assert float(a["alpha"]) == pytest.approx(float(b["alpha"]), rel=1e-12, abs=0)
        for key in ("G", "E"):
            assert float(a[key]) == pytest.approx(float(b[key]), rel=1e-12, abs=0)
        assert abs(float(a["gap_over_omega"]) - float(b["gap_over_omega"])) <= 1e-11


# Each command's `# config` keys after `command`, in RunConfig field order:
# the well keys, the keys its rows read and the keys it pins.
LISTED = {
    "spectrum": "beta energy_scale levels gap_tol grid_points",
    "thermo-sweep": "beta alpha_list eta_grid energy_scale gap_tol grid_points",
    "fig1": "beta alpha_list eta_grid energy_scale gap_tol grid_points",
    "fig2": "beta eta_grid energy_scale gap_tol grid_points",
    "jc-curve": "beta eta_grid energy_scale gap_tol grid_points",
    "exact-sweep": "beta alpha_list eta_grid n_dipoles dipole_levels fock_cutoff convention "
                   "energy_scale budget gap_tol grid_points",
    "fig3a": "beta alpha_list eta_grid convention energy_scale budget gap_tol grid_points",
    "fig3b": "beta eta_grid fock_cutoff energy_scale budget gap_tol grid_points",
    "s-figs-absorbed": "beta alpha_list eta_grid convention energy_scale gap_tol grid_points",
    "s-figs-gauges": "beta alpha_list eta_grid dipole_levels fock_cutoff convention "
                     "energy_scale budget gap_tol grid_points",
    "convergence": "beta n_dipoles energy_scale budget gap_tol grid_points ladder "
                   "eta_point alpha_point",
}


def listing(items):
    return build_config(items).sheet()[-1]


def test_each_sheet_lists_exactly_the_keys_it_reads():
    assert set(LISTED) == set(COMMANDS)
    for command, expected in LISTED.items():
        keys = [tok.split("=", 1)[0] for tok in listing({"command": command}).split()]
        assert keys == ["command"] + expected.split()


def test_thermo_sweep_line_and_digest_ignore_unread_keys():
    default = {"command": "thermo-sweep"}
    unread = dict(default, dipole_levels="4", fock_cutoff="9", n_dipoles="3", levels="3",
                  convention="self-energy-in-bare")
    assert listing(unread) == listing(default)
    assert build_config(unread).digest() == build_config(default).digest()
    scaled = dict(default, energy_scale="5")
    assert " energy_scale=5 " in listing(scaled)
    assert build_config(scaled).digest() != build_config(default).digest()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_config_line_tokens_reparse_to_the_listing(command):
    odd = {"beta": "1.7", "eta_grid": "0.1, 0.7000000000000001, 3", "alpha_list": " 0, jc,0.25 ",
           "gap_tol": "1e-5", "ladder": "4,10; 6,14", "eta_point": "0.30000000000000004"}
    for items in ({"command": command}, dict(odd, command=command)):
        line = listing(items)
        assert listing(dict(tok.split("=", 1) for tok in line.split())) == line


# The tests' small config of every command, with its exit code; fig3a stops
# at N = 3 on its budget.
SMALL = {
    "spectrum": (["levels=6", "beta=2.4"], 0),
    "thermo-sweep": (["eta_grid=0,2,5", "alpha_list=0,jc,1"], 0),
    "exact-sweep": (["eta_grid=0,0.8,3", "dipole_levels=4", "fock_cutoff=12", "alpha_list=1"], 0),
    "fig1": (["eta_grid=0,2,5"], 0),
    "fig2": (["eta_grid=0.4,1.2,3"], 0),
    "fig3a": (["budget=3000", "eta_grid=0,0.4,3"], EXIT_BUDGET),
    "fig3b": (["eta_grid=1.9,2.2,4", "fock_cutoff=20"], 0),
    "s-figs-absorbed": (["eta_grid=0,0.6,3", "dipole_levels=4", "fock_cutoff=10"], 0),
    "s-figs-gauges": (["eta_grid=0,0.6,3", "dipole_levels=4", "fock_cutoff=10"], 0),
    "jc-curve": (["eta_grid=0,2,9"], 0),
    "convergence": (["ladder=4,10;6,14", "eta_point=0.6", "alpha_point=1"], 0),
}
# Another valid value for every key that some command leaves off its line.
OTHER = {"alpha_list": "0,1", "eta_grid": "0.5,1.5,3", "n_dipoles": "2", "dipole_levels": "3",
         "fock_cutoff": "9", "convention": "self-energy-in-bare", "levels": "2",
         "budget": "30000", "ladder": "4,8;5,9", "eta_point": "0.3", "alpha_point": "0"}


# The ids keep the `-0` suffix under which these cases are recorded.
@pytest.mark.parametrize("command", sorted(SMALL), ids=lambda command: f"{command}-0")
def test_line_replays_and_unlisted_keys_change_nothing(tmp_path, capsys, command):
    """Rerun from a file's `# config` tokens with every key missing from that
    line set to another value at once: the file comes out byte for byte."""
    args, code = SMALL[command]
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert main(["--command", command, "--out", str(first)] + args + FAST) == code
    tokens = first.read_text().splitlines()[0].split()[3:]
    listed = {tok.split("=", 1)[0] for tok in tokens} | {"output_path"}
    other = [f"{f.name}={OTHER[f.name]}" for f in fields(RunConfig) if f.name not in listed]
    assert main(tokens + other + ["--out", str(second)]) == code
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
