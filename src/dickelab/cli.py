"""Command-line front end: sweep orchestration and CSV reporting.

Commands regenerate the figure data tables from a flat key-value config
file plus command-line overrides. All physical inputs are dimensionless or
in units of the mode frequency omega = 1. Output is CSV with 17 significant
digits, one provenance comment line, and a header row. `grid_points` counts
the sinc-DVR points of every double-well solve (`dipole.MAX_POINTS` at
most); `levels` sizes only the `spectrum` table.

Each command writes one table to one CSV file. It states the config keys
its rows read, and may pin some (`s-figs-absorbed` and `s-figs-gauges` their
beta, energy scale and convention, `fig3a` its convention and gauge). Its
rows come from the config with the pins applied, and its `# config` line is
the run's digest followed by the table's listing: `command`, then exactly
the keys the rows read and the command pins, as `key=value` tokens in config
syntax. The digest hashes that listing, so a key the table does not read
changes neither the line nor a row, and passing the line's tokens back as
overrides rewrites the file. Reruns with the same digest and the same BLAS
thread count are byte-identical; the digest does not record the BLAS thread
count, and changing it can move values in the last digits.

The file opens before any solve; a failure ends it with a `# TRUNCATED`
line.

Exit codes: 0 success, 2 validation, 3 convergence, 4 budget.
"""

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, fields, replace

from . import dipole, exactn, gauge, thermo
from .dipole import GridSpec, SelfEnergyInBare, WellShape
from .errors import EXIT_VALIDATION, DickelabError, ValidationError
from .errors import EXIT_BUDGET, EXIT_CONVERGENCE  # noqa: F401 - re-exported for callers
from .exactn import CollectiveSpin, HilbertConfig
from .gauge import ReducedParams, derive_couplings

# Every table solves its well from these keys.
WELL_KEYS = ("beta", "energy_scale", "grid_points", "gap_tol")
# Every table but `spectrum` solves its base well for this many levels, or
# for as many as its exact rows use when that is more.
BASE_LEVELS = 12


@dataclass
class RunConfig:
    command: str
    beta: float = 2.4
    alpha_list: tuple = ("0", "jc", "1")
    eta_grid: tuple = (0.0, 2.0, 81)
    n_dipoles: int = 1
    dipole_levels: int = 8
    fock_cutoff: int = 40
    convention: str = "main-text"
    energy_scale: str = "resonance"
    levels: int = 12
    output_path: str = ""
    budget: int = exactn.DEFAULT_BUDGET
    gap_tol: float = dipole.DEFAULT_GAP_TOL
    grid_points: int = dipole.DEFAULT_POINTS
    ladder: tuple = ((6, 30), (8, 40), (10, 60))
    eta_point: float = 1.0
    alpha_point: float = 1.0

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValidationError(f"unknown command {self.command!r}")
        if not math.isfinite(self.beta):
            raise ValidationError("beta must be finite")
        if not self.alpha_list:
            raise ValidationError("alpha_list needs at least one gauge value")
        for tok in self.alpha_list:
            try:
                if tok != "jc" and not 0.0 <= float(tok) <= 1.0:
                    raise ValueError
            except ValueError:
                raise ValidationError("alpha_list values must be 'jc' or lie in [0, 1]") from None
        start, stop, steps = self.eta_grid
        if steps < 2:
            raise ValidationError("eta_grid needs at least 2 steps")
        if not 0.0 <= start < stop < math.inf:
            raise ValidationError("eta_grid requires finite stop > start >= 0")
        if self.n_dipoles < 1:
            raise ValidationError("n_dipoles must be positive")
        if self.convention not in ("main-text", "self-energy-in-bare"):
            raise ValidationError(f"unknown convention {self.convention!r}")
        if not 0.0 <= self.alpha_point <= 1.0:
            raise ValidationError("alpha_point must lie in [0, 1]")
        if not 0.0 <= self.eta_point < math.inf:
            raise ValidationError("eta_point must be finite and at least 0")
        if self.energy_scale != "resonance":
            try:
                value = float(self.energy_scale)
            except ValueError:
                raise ValidationError("energy_scale must be 'resonance' or a number") from None
            if not 0.0 < value < math.inf:
                raise ValidationError("energy_scale must be finite and positive")

    def eta_values(self):
        start, stop, steps = self.eta_grid
        return [start + (stop - start) * i / (steps - 1) for i in range(steps)]

    def sheet(self):
        """The command's table as (header, rows, used, listing).

        `used = replace(self, **pins)` is the config the rows come from, and
        `listing` states `command`, the well keys, the keys the rows read and
        the keys the command pins, in field order, each valued from `used` in
        the syntax `build_config` parses.
        """
        header, rows, reads, pins = COMMANDS[self.command]
        used = replace(self, **pins)
        keys = {"command", *WELL_KEYS, *reads.split(), *pins}
        listing = " ".join(f"{f.name}={_format(f.name, getattr(used, f.name))}"
                           for f in fields(self) if f.name in keys)
        return header, rows, used, listing

    def digest(self):
        # Identifies the data: every input the command's rows read.
        return hashlib.sha256(self.sheet()[-1].encode()).hexdigest()[:12]


def read_config_file(path):
    """Flat KEY = VALUE pairs, '#' comments, later keys win."""
    items = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected KEY = VALUE")
            key, value = line.split("=", 1)
            items[key.strip()] = value.strip()
    return items


# Figure commands pin the parameters the corresponding plots use; explicit
# config keys still win.
_COMMAND_DEFAULTS = {
    "fig3a": {"beta": "3.3", "eta_grid": "0,1.5,31"},
    "fig3b": {"beta": "3.3", "eta_grid": "1.5,2.5,101"},
    "s-figs-absorbed": {"eta_grid": "0,2,41"},
    "s-figs-gauges": {"eta_grid": "0,2,41"},
}


def _eta_grid(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError("eta_grid must be start,stop,steps")
    return float(parts[0]), float(parts[1]), int(parts[2])


# Tuple-valued keys: (parse, format) between config syntax and field value.
_TUPLE_SYNTAX = {
    "alpha_list": (lambda text: tuple(t.strip() for t in text.split(",") if t.strip()),
                   ",".join),
    "eta_grid": (_eta_grid, lambda grid: f"{grid[0]!r},{grid[1]!r},{grid[2]}"),
    "ladder": (lambda text: tuple((int(a), int(b)) for a, b in
                                  (rung.split(",") for rung in text.split(";"))),
               lambda rungs: ";".join(f"{a},{b}" for a, b in rungs)),
}


def _format(key, value):
    if key in _TUPLE_SYNTAX:
        return _TUPLE_SYNTAX[key][1](value)
    return repr(value) if isinstance(value, float) else str(value)


def build_config(items):
    items = dict(items)
    for key, value in _COMMAND_DEFAULTS.get(items.get("command", ""), {}).items():
        items.setdefault(key, value)
    parsers = {f.name: _TUPLE_SYNTAX[f.name][0] if f.type is tuple else f.type
               for f in fields(RunConfig)}
    kwargs = {}
    for key, value in items.items():
        if key not in parsers:
            raise ValidationError(f"unknown config key {key!r}")
        kwargs[key] = parsers[key](value)
    if "command" not in kwargs:
        raise ValidationError("no command given (config key or --command)")
    return RunConfig(**kwargs)


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


class CsvWriter:
    """Streams rows to one CSV file; use it as a context manager.

    Leaving the `with` block by an exception ends the file with a
    `# TRUNCATED` line before closing it, so it cannot pass for complete.
    """

    def __init__(self, path, header, provenance):
        self.fh = open(path, "w", newline="")
        self.fh.write(f"# {provenance}\n")
        self.fh.write(",".join(header) + "\n")

    def write_row(self, values):
        self.fh.write(",".join(_fmt(v) for v in values) + "\n")

    def close(self):
        self.fh.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            if exc_type is not None:
                self.fh.write("# TRUNCATED\n")
        finally:
            self.close()


def _energy_scale(cfg):
    if cfg.energy_scale == "resonance":
        return dipole.resonance_energy_scale(
            cfg.beta, 1.0, GridSpec(points=cfg.grid_points), gap_tol=cfg.gap_tol)
    return float(cfg.energy_scale)      # checked by RunConfig


def _base_params(cfg, levels=BASE_LEVELS):
    """One dipole at eta = 0 in the multipolar gauge, on the plain well
    solved for `levels` levels."""
    spectrum = dipole.solve_double_well(
        WellShape(cfg.beta, _energy_scale(cfg)), GridSpec(points=cfg.grid_points),
        levels, gap_tol=cfg.gap_tol)
    return ReducedParams(omega=1.0, beta=cfg.beta, energy_scale=spectrum.shape.energy_scale,
                         eta=0.0, n_dipoles=1, alpha=1.0, spectrum=spectrum)


def _alpha_tokens(cfg, params_eta0):
    """Resolve alpha_list tokens to constant gauges.

    The token "jc" means the Jaynes-Cummings gauge; for constant-gauge sweeps
    it is resolved once at eta = 0 (the figure's three gauges are fixed
    numbers, not eta-dependent curves).
    """
    return [gauge.jc_gauge(params_eta0) if tok == "jc" else float(tok)
            for tok in cfg.alpha_list]   # checked by RunConfig


THERMO_HEADER = ("alpha", "eta", "tau", "phase", "E_plus", "E_minus",
                 "ground_density", "pi_average", "p_t_average")


def _thermo_row(params):
    couplings, point = thermo.evaluate(params)
    tau = couplings.tau
    return (params.alpha, params.eta, tau, point.phase.value, point.e_plus,
            point.e_minus, point.ground_density, point.pi_average,
            point.p_t_average)


def _thermo_rows(cfg):
    base = _base_params(cfg)
    for alpha in _alpha_tokens(cfg, base):
        for eta in cfg.eta_values():
            yield _thermo_row(base.with_(alpha=alpha, eta=eta))


def _fig2_rows(cfg):
    """d<Pi> sweeps in the eta-dependent JC gauge and the multipolar gauge."""
    base = _base_params(cfg)
    for eta in cfg.eta_values():
        p_eta = base.with_(eta=eta)
        yield _thermo_row(p_eta.with_(alpha=gauge.jc_gauge(p_eta)))
        yield _thermo_row(p_eta.with_(alpha=1.0))


def _phase_label(params):
    couplings = derive_couplings(params)
    return thermo.classify(couplings, params.omega_m).value


EXACT_HEADER = ("eta", "alpha", "phase", "n_dipoles", "model", "G", "E",
                "gap_over_omega")


def _exact_rows(cfg, base, include_two_level=True):
    n = cfg.n_dipoles
    alphas = _alpha_tokens(cfg, base)
    etas = cfg.eta_values()
    hil = HilbertConfig(n, cfg.dipole_levels, cfg.fock_cutoff, budget=cfg.budget)
    for a in alphas:
        template = base.with_(n_dipoles=n, alpha=a)
        if cfg.convention == "self-energy-in-bare":
            rows = _seib_rows(cfg, hil, template, etas)
        else:
            rows = exactn.transition_sweep(hil, template, etas,
                                           include_two_level=include_two_level)
        for row in rows:
            phase = _phase_label(base.with_(alpha=row["alpha"], eta=row["eta"]))
            yield (row["eta"], row["alpha"], phase, n, row["model"],
                   row["G"], row["E"], row["gap_over_omega"])


def _seib_rows(cfg, hil, template, etas):
    """Exact-model rows with the self-energy absorbed into each point's well."""
    grid = GridSpec(points=cfg.grid_points)
    rows = []
    for eta in etas:
        params = template.with_(eta=float(eta))
        shape = WellShape(cfg.beta, template.energy_scale,
                          SelfEnergyInBare(params.alpha,
                                           eta / math.sqrt(hil.n_dipoles), 1.0))
        spec_pt = dipole.solve_double_well(shape, grid, max(BASE_LEVELS, hil.dipole_levels),
                                           gap_tol=cfg.gap_tol)
        ground, excited, _ = exactn.ground_pair(
            exactn.assemble(hil, params, spec_pt))
        rows.append({"eta": float(eta), "alpha": params.alpha, "model": "exact",
                     "G": ground, "E": excited, "gap_over_omega": excited - ground})
    return rows


def _exact_sweep_rows(cfg):
    yield from _exact_rows(cfg, _base_params(cfg, max(BASE_LEVELS, cfg.dipole_levels)))


def _fig3a_rows(cfg):
    """Exact against two-level rows, N = 1..4, at each N's default cutoffs."""
    base = _base_params(cfg)
    for n in (1, 2, 3, 4):
        hil = exactn.default_hilbert(n, cfg.budget)
        yield from _exact_rows(replace(cfg, n_dipoles=n, dipole_levels=hil.dipole_levels,
                                       fock_cutoff=hil.fock_cutoff), base)


FIG3B_HEADER = ("eta", "alpha", "phase", "d2_n1", "d2_n2", "d2_n3", "d2_n4",
                "d2_thermo")


def _fig3b_rows(cfg):
    """Second derivative of G_s per dipole: N = 1..4 plus the analytic limit.

    The finite-N curves use the collective two-level model, the family whose
    thermodynamic limit the analytic column describes.
    """
    base = _base_params(cfg)
    etas = cfg.eta_values()
    by_n = []
    for n in (1, 2, 3, 4):
        hil = HilbertConfig(n, 2, cfg.fock_cutoff, representation=CollectiveSpin(),
                            budget=cfg.budget)
        by_n.append(dict(exactn.second_derivative_sweep(hil, base.with_(n_dipoles=n), etas)))
    interior = etas[1:-1]
    analytic = dict(thermo.ground_density_second_derivative(base, interior))
    for eta in interior:
        phase = _phase_label(base.with_(eta=eta))
        yield (eta, 1.0, phase, *(d2[eta] for d2 in by_n), analytic[eta])


def _absorbed_rows(cfg):
    """Thermodynamic-limit E-/E+ with the self-energy absorbed into the well,
    at the scale where the unshifted gap is resonant (`s-figs-absorbed`)."""
    base = _base_params(cfg)
    grid = GridSpec(points=cfg.grid_points)
    # The well depends on (alpha, eta) only through its quadratic
    # coefficient, so alpha=0 and eta=0 points share one solve.
    wells = {}
    for alpha in _alpha_tokens(cfg, base):
        for eta in cfg.eta_values():
            shape = WellShape(cfg.beta, base.energy_scale, SelfEnergyInBare(alpha, eta, 1.0))
            q = shape.quadratic_coefficient()
            if q not in wells:
                wells[q] = dipole.solve_double_well(shape, grid, 2, gap_tol=cfg.gap_tol)
            yield _thermo_row(base.with_(alpha=alpha, eta=eta, spectrum=wells[q]))


def _gauges_rows(cfg):
    """N in {1,2,3}: the exact model against the two-level models in the
    Coulomb, JC (eta-dependent) and multipolar gauges (`s-figs-gauges`)."""
    base = _base_params(cfg, max(BASE_LEVELS, cfg.dipole_levels))
    for n in (1, 2, 3):
        yield from _exact_rows(replace(cfg, n_dipoles=n), base, include_two_level=False)
        two = HilbertConfig(n, 2, cfg.fock_cutoff, representation=CollectiveSpin(),
                            budget=cfg.budget)
        for eta in cfg.eta_values():
            p_eta = base.with_(n_dipoles=n, eta=eta)
            gauges = [("two_level_coulomb", 0.0),
                      ("two_level_jc", gauge.jc_gauge(p_eta)),
                      ("two_level_multipolar", 1.0)]
            for label, alpha in gauges:
                ground, excited, _ = exactn.ground_pair(exactn.dicke_two_level(
                    two, p_eta.with_(alpha=alpha), base.spectrum))
                phase = _phase_label(base.with_(alpha=alpha, eta=eta))
                yield eta, alpha, phase, n, label, ground, excited, excited - ground


def _jc_rows(cfg):
    base = _base_params(cfg)
    for eta in cfg.eta_values():
        p_eta = base.with_(eta=eta)
        alpha_jc = gauge.jc_gauge(p_eta)
        yield eta, alpha_jc, _phase_label(p_eta.with_(alpha=alpha_jc))


CONV_HEADER = ("eta", "alpha", "phase", "dipole_levels", "fock_cutoff",
               "dimension", "G", "E", "delta_G", "delta_E", "fock_tail", "flags")


def _convergence_rows(cfg):
    levels = max(BASE_LEVELS, *(rung[0] for rung in cfg.ladder))
    params = _base_params(cfg, levels).with_(
        eta=cfg.eta_point, n_dipoles=cfg.n_dipoles, alpha=cfg.alpha_point)
    ladder = [HilbertConfig(cfg.n_dipoles, l, m, budget=cfg.budget)
              for l, m in cfg.ladder]
    phase = _phase_label(params)
    for row in exactn.convergence_report(ladder, params, params.spectrum):
        yield (cfg.eta_point, cfg.alpha_point, phase,
               row["dipole_levels"], row["fock_cutoff"],
               row["dimension"], row["G"], row["E"],
               "" if row["delta_G"] is None else row["delta_G"],
               "" if row["delta_E"] is None else row["delta_E"],
               row["fock_tail"], row["flags"])


def _spectrum_rows(cfg):
    """The plain well's levels and dipole elements."""
    spectrum = _base_params(cfg, cfg.levels).spectrum
    e, zeta = spectrum.dimensionless_energies, spectrum.zeta_elements
    for n in range(spectrum.level_count):
        yield n, e[n], zeta[0, n], zeta[1, n]


# The thermodynamic-limit sweep, written as `thermo-sweep` and as `fig1`.
THERMO_SWEEP = (THERMO_HEADER, _thermo_rows, "alpha_list eta_grid", {})

# Command name -> its table as (header, rows, reads, pins). `rows(used)`
# yields the data rows from `used = replace(cfg, **pins)`, the config with the
# keys the command fixes whatever the run sets. `reads` names the keys the
# rows read besides WELL_KEYS, which every table reads; a key that is neither
# read nor pinned changes no row.
COMMANDS = {
    "spectrum": (("n", "e_n", "zeta_0n", "zeta_1n"), _spectrum_rows, "levels", {}),
    "thermo-sweep": THERMO_SWEEP,
    "exact-sweep": (EXACT_HEADER, _exact_sweep_rows,
                    "alpha_list eta_grid n_dipoles dipole_levels fock_cutoff convention budget",
                    {}),
    "fig1": THERMO_SWEEP,
    "fig2": (THERMO_HEADER, _fig2_rows, "eta_grid", {}),
    "fig3a": (EXACT_HEADER, _fig3a_rows, "eta_grid budget",
              {"convention": "main-text", "alpha_list": ("1",)}),
    "fig3b": (FIG3B_HEADER, _fig3b_rows, "eta_grid fock_cutoff budget", {}),
    "s-figs-absorbed": (THERMO_HEADER, _absorbed_rows, "alpha_list eta_grid",
                        {"beta": 2.4, "energy_scale": "resonance",
                         "convention": "self-energy-in-bare"}),
    "s-figs-gauges": (EXACT_HEADER, _gauges_rows, "eta_grid dipole_levels fock_cutoff budget",
                      {"beta": 1.5, "energy_scale": "resonance", "convention": "main-text",
                       "alpha_list": ("1",)}),
    "jc-curve": (("eta", "alpha_jc", "phase"), _jc_rows, "eta_grid", {}),
    "convergence": (CONV_HEADER, _convergence_rows,
                    "n_dipoles budget ladder eta_point alpha_point", {}),
}


def run(cfg: RunConfig) -> int:
    """Write the command's table; returns the process exit code. The file
    opens before any solve."""
    header, rows, used, listing = cfg.sheet()
    with CsvWriter(cfg.output_path or f"{cfg.command}.csv", header,
                   f"config {cfg.digest()} {listing}") as writer:
        for row in rows(used):
            writer.write_row(row)
    return 0


def _error_record(err):
    if isinstance(err, DickelabError):
        code = err.exit_code
    else:
        code = EXIT_VALIDATION if isinstance(err, ValueError) else 1
    record = {"error": type(err).__name__, "message": str(err), "exit_code": code}
    return code, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dickelab",
        description="Phase structure and finite-size spectra of coupled "
                    "dipole-mode models; emits CSV data tables.")
    parser.add_argument("--config", help="flat KEY = VALUE config file")
    # No argparse `choices`: an unknown command takes the JSON error path.
    parser.add_argument("--command", help=f"the table to write: {', '.join(COMMANDS)}")
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("overrides", nargs="*", metavar="KEY=VALUE",
                        help="config overrides, applied after the file")
    args = parser.parse_args(argv)

    try:
        items = read_config_file(args.config) if args.config else {}
        for override in args.overrides:
            if "=" not in override:
                raise ValidationError(f"override {override!r} is not KEY=VALUE")
            key, value = override.split("=", 1)
            items[key.strip()] = value.strip()
        if args.command:
            items["command"] = args.command
        if args.out:
            items["output_path"] = args.out
        return run(build_config(items))
    except Exception as err:  # noqa: BLE001 - single reporting funnel
        code, record = _error_record(err)
        json.dump(record, sys.stderr)
        sys.stderr.write("\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
