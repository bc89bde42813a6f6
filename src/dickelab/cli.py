"""Command-line front end: sweep orchestration and CSV reporting.

Commands regenerate the figure data tables from a flat key-value config
file plus command-line overrides. All physical inputs are dimensionless or
in units of the mode frequency omega = 1. Output is CSV with 17 significant
digits, one provenance comment line (config hash and cutoffs), and a header
row. Reruns with the same config digest and the same BLAS thread count are
byte-identical; the digest does not record the BLAS thread count, and
changing it can move values in the last digits. `threads` parallelizes only
the absorbed-well solves of `s-figs` and never changes a row.

Every table command opens its file before it computes anything and streams
rows into it; a failure leaves the file ending in a `# TRUNCATED` line.
`s-figs` opens both sheets first and completes sheet 1 before sheet 2, so a
failure in sheet 1 marks both and one in sheet 2 marks only sheet 2; each
sheet's provenance line states the beta the sheet was computed at.
`spectrum` writes its file only after its one solve succeeds.

Exit codes: 0 success, 2 validation, 3 convergence, 4 budget.
"""

import argparse
import hashlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from . import dipole, exactn, gauge, thermo
from .dipole import GridSpec, SelfEnergyInBare, WellShape
from .errors import (
    BudgetError,
    ConventionMismatch,
    ConvergenceError,
    DickelabError,
    DomainError,
    GridError,
    InstabilityError,
    PhaseError,
    RootError,
    ValidationError,
)
from .exactn import CollectiveSpin, HilbertConfig
from .gauge import ReducedParams, derive_couplings

EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_BUDGET = 4

_VALIDATION_ERRORS = (ValidationError, ConventionMismatch, PhaseError,
                      GridError, ValueError)
_CONVERGENCE_ERRORS = (ConvergenceError, DomainError, InstabilityError,
                       RootError)


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
    threads: int = 1
    budget: int = exactn.DEFAULT_BUDGET
    gap_tol: float = dipole.DEFAULT_GAP_TOL
    grid_points: int = dipole.DEFAULT_POINTS
    ladder: tuple = ((6, 30), (8, 40), (10, 60))
    eta_point: float = 1.0
    alpha_point: float = 1.0

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValidationError(f"unknown command {self.command!r}")
        start, stop, steps = self.eta_grid
        if steps < 2:
            raise ValidationError("eta_grid needs at least 2 steps")
        if not 0.0 <= start < stop:
            raise ValidationError("eta_grid requires stop > start >= 0")
        if self.n_dipoles < 1:
            raise ValidationError("n_dipoles must be positive")
        if self.threads < 1:
            raise ValidationError("threads must be positive")
        if self.convention not in ("main-text", "self-energy-in-bare"):
            raise ValidationError(f"unknown convention {self.convention!r}")

    def eta_values(self):
        start, stop, steps = self.eta_grid
        return [start + (stop - start) * i / (steps - 1) for i in range(steps)]

    def digest(self):
        # Identifies the data, so the output location and worker count
        # (which cannot change row content) stay out of the hash.
        skip = {"output_path", "threads"}
        keys = sorted(k for k in vars(self) if k not in skip)
        text = ";".join(f"{k}={getattr(self, k)!r}" for k in keys)
        return hashlib.sha256(text.encode()).hexdigest()[:12]


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
    "fig1": {"beta": "2.4", "eta_grid": "0,2,81"},
    "fig2": {"beta": "2.4", "eta_grid": "0,2,81"},
    "fig3a": {"beta": "3.3", "eta_grid": "0,1.5,31"},
    "fig3b": {"beta": "3.3", "eta_grid": "1.5,2.5,101"},
    "s-figs": {"eta_grid": "0,2,41"},
}


def build_config(items):
    items = dict(items)
    for key, value in _COMMAND_DEFAULTS.get(items.get("command", ""), {}).items():
        items.setdefault(key, value)
    known = {
        "command": str, "beta": float, "n_dipoles": int, "dipole_levels": int,
        "fock_cutoff": int, "convention": str,
        "energy_scale": str, "levels": int, "output_path": str,
        "threads": int, "budget": int, "gap_tol": float, "grid_points": int,
        "eta_point": float, "alpha_point": float,
    }
    kwargs = {}
    for key, value in items.items():
        if key == "alpha_list":
            kwargs[key] = tuple(tok.strip() for tok in str(value).split(",") if tok.strip())
        elif key == "eta_grid":
            parts = [tok.strip() for tok in str(value).split(",")]
            if len(parts) != 3:
                raise ValidationError("eta_grid must be start,stop,steps")
            kwargs[key] = (float(parts[0]), float(parts[1]), int(parts[2]))
        elif key == "ladder":
            rungs = []
            for rung in str(value).split(";"):
                a, b = rung.split(",")
                rungs.append((int(a), int(b)))
            kwargs[key] = tuple(rungs)
        elif key in known:
            kwargs[key] = known[key](value)
        else:
            raise ValidationError(f"unknown config key {key!r}")
    if "command" not in kwargs:
        raise ValidationError("no command given (config key or --command)")
    return RunConfig(**kwargs)


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _provenance(cfg, beta):
    """The `# config` line: the run's digest and the inputs the rows used."""
    return (f"config {cfg.digest()} command={cfg.command} beta={beta} "
            f"eta_grid={cfg.eta_grid[0]:g}:{cfg.eta_grid[1]:g}:{cfg.eta_grid[2]} "
            f"L={cfg.dipole_levels} M={cfg.fock_cutoff} "
            f"convention={cfg.convention} grid_points={cfg.grid_points}")


class CsvWriter:
    """Streams rows to one CSV file; use it as a context manager.

    Leaving the `with` block by an exception ends the partial file with a
    `# TRUNCATED` line before closing it, so it cannot pass for complete.
    """

    def __init__(self, path, header, provenance):
        self.path = path
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


def _pmap(fn, items, threads):
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


_SPECTRUM_CACHE = {}


def _energy_scale(cfg):
    if cfg.energy_scale == "resonance":
        key = ("res", cfg.beta, cfg.grid_points, cfg.gap_tol)
        if key not in _SPECTRUM_CACHE:
            _SPECTRUM_CACHE[key] = dipole.resonance_energy_scale(
                cfg.beta, 1.0, GridSpec(points=cfg.grid_points), gap_tol=cfg.gap_tol)
        return _SPECTRUM_CACHE[key]
    try:
        value = float(cfg.energy_scale)
    except ValueError:
        raise ValidationError("energy_scale must be 'resonance' or a number") from None
    if value <= 0:
        raise ValidationError("energy_scale must be positive")
    return value


def _main_spectrum(cfg, levels=None):
    e_scale = _energy_scale(cfg)
    key = ("mt", cfg.beta, e_scale, cfg.grid_points, levels or cfg.levels, cfg.gap_tol)
    if key not in _SPECTRUM_CACHE:
        grid = GridSpec(points=cfg.grid_points)
        _SPECTRUM_CACHE[key] = dipole.solve_double_well(
            WellShape(cfg.beta, e_scale), grid, levels or cfg.levels,
            gap_tol=cfg.gap_tol)
    return _SPECTRUM_CACHE[key]


def _base_params(cfg, levels=None):
    """One dipole at eta = 0 in the multipolar gauge, on the plain well."""
    spectrum = _main_spectrum(cfg, levels)
    return ReducedParams(omega=1.0, beta=cfg.beta, energy_scale=spectrum.shape.energy_scale,
                         eta=0.0, n_dipoles=1, alpha=1.0, spectrum=spectrum)


def _alpha_tokens(cfg, params_eta0):
    """Resolve alpha_list tokens to constant gauges.

    The token "jc" means the Jaynes-Cummings gauge; for constant-gauge sweeps
    it is resolved once at eta = 0 (the figure's three gauges are fixed
    numbers, not eta-dependent curves).
    """
    out = []
    for tok in cfg.alpha_list:
        if tok == "jc":
            out.append(gauge.jc_gauge(params_eta0))
        else:
            value = float(tok)
            if not 0.0 <= value <= 1.0:
                raise ValidationError("alpha values must lie in [0, 1]")
            out.append(value)
    return out


def _table(header, rows):
    """Handler for a one-file command: opens the file, then streams `rows(cfg)`."""

    def handler(cfg, path):
        with CsvWriter(path, header, _provenance(cfg, cfg.beta)) as writer:
            for row in rows(cfg):
                writer.write_row(row)

    return handler


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


def _exact_rows(cfg, include_two_level=True):
    n = cfg.n_dipoles
    base = _base_params(cfg)
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
        spec_pt = dipole.solve_double_well(shape, grid, max(cfg.levels, hil.dipole_levels),
                                           gap_tol=cfg.gap_tol)
        ground, excited, _ = exactn.ground_pair(
            exactn.assemble(hil, params, spec_pt, SelfEnergyInBare))
        rows.append({"eta": float(eta), "alpha": params.alpha, "model": "exact",
                     "G": ground, "E": excited, "gap_over_omega": excited - ground})
    return rows


def _fig3a_rows(cfg):
    """Exact against two-level rows in the multipolar gauge, N = 1..4."""
    for n in (1, 2, 3, 4):
        hil = exactn.default_hilbert(n, cfg.budget)
        yield from _exact_rows(replace(
            cfg, n_dipoles=n, dipole_levels=hil.dipole_levels,
            fock_cutoff=hil.fock_cutoff, convention="main-text", alpha_list=("1",)))


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


SFIGS_ABSORBED_BETA = 2.4
SFIGS_GAUGES_BETA = 1.5


def _sfigs(cfg, path):
    """Companion sweeps: absorbed-self-energy polaritons and small-N gauges."""
    stem = path[:-4] if path.endswith(".csv") else path
    # Both sheets open before any solve, so a failure replaces both files;
    # sheet 1 closes, unmarked, before sheet 2 is computed.
    with CsvWriter(f"{stem}_gauges.csv", EXACT_HEADER,
                   _provenance(cfg, SFIGS_GAUGES_BETA)) as gauges_sheet:
        # Sheet 1: thermodynamic-limit E-/E+ with the self-energy absorbed
        # into the well, at the scale where the unshifted gap is resonant.
        with CsvWriter(f"{stem}_absorbed.csv", THERMO_HEADER,
                       _provenance(cfg, SFIGS_ABSORBED_BETA)) as absorbed_sheet:
            base = _base_params(replace(cfg, beta=SFIGS_ABSORBED_BETA,
                                        energy_scale="resonance"))
            # The well depends on (alpha, eta) only through its quadratic
            # coefficient, so alpha=0 and eta=0 points share one solve. The
            # distinct wells are collected first, so no two threads solve one.
            tasks, shapes = [], {}
            for alpha in _alpha_tokens(cfg, base):
                for eta in cfg.eta_values():
                    shape = WellShape(SFIGS_ABSORBED_BETA, base.energy_scale,
                                      SelfEnergyInBare(alpha, eta, 1.0))
                    tasks.append((alpha, eta, shape.quadratic_coefficient()))
                    shapes.setdefault(tasks[-1][2], shape)
            grid = GridSpec(points=cfg.grid_points)
            solved = _pmap(lambda shape: dipole.solve_double_well(shape, grid, 2,
                                                                  gap_tol=cfg.gap_tol),
                           list(shapes.values()), cfg.threads)
            wells = dict(zip(shapes, solved))
            for alpha, eta, q in tasks:
                absorbed_sheet.write_row(_thermo_row(base.with_(alpha=alpha, eta=eta,
                                                                spectrum=wells[q])))

        # Sheet 2: N in {1,2,3}, exact multipolar model against the two-level
        # models in the Coulomb, JC (eta-dependent), and multipolar gauges.
        sheet = replace(cfg, beta=SFIGS_GAUGES_BETA, energy_scale="resonance",
                        convention="main-text", alpha_list=("1",))
        base = _base_params(sheet)
        for n in (1, 2, 3):
            for row in _exact_rows(replace(sheet, n_dipoles=n), include_two_level=False):
                gauges_sheet.write_row(row)
            two = HilbertConfig(n, 2, sheet.fock_cutoff, representation=CollectiveSpin(),
                                budget=sheet.budget)
            for eta in sheet.eta_values():
                p_eta = base.with_(n_dipoles=n, eta=eta)
                gauges = [("two_level_coulomb", 0.0),
                          ("two_level_jc", gauge.jc_gauge(p_eta)),
                          ("two_level_multipolar", 1.0)]
                for label, alpha in gauges:
                    ground, excited, _ = exactn.ground_pair(exactn.dicke_two_level(
                        two, p_eta.with_(alpha=alpha), base.spectrum))
                    phase = _phase_label(base.with_(alpha=alpha, eta=eta))
                    gauges_sheet.write_row((eta, alpha, phase, n, label, ground,
                                            excited, excited - ground))


def _jc_rows(cfg):
    base = _base_params(cfg)
    for eta in cfg.eta_values():
        p_eta = base.with_(eta=eta)
        alpha_jc = gauge.jc_gauge(p_eta)
        yield eta, alpha_jc, _phase_label(p_eta.with_(alpha=alpha_jc))


CONV_HEADER = ("eta", "alpha", "phase", "dipole_levels", "fock_cutoff",
               "dimension", "G", "E", "delta_G", "delta_E", "fock_tail", "flags")


def _convergence_rows(cfg):
    levels = max(cfg.levels, max(l for l, _ in cfg.ladder))
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


def _spectrum(cfg, path):
    dipole.export_csv(_main_spectrum(cfg), path, provenance=_provenance(cfg, cfg.beta))


# Command name -> handler(cfg, path), which writes the command's
# file(s) at `path` (`s-figs` derives its two sheet names from it).
COMMANDS = {
    "spectrum": _spectrum,
    "thermo-sweep": _table(THERMO_HEADER, _thermo_rows),
    "exact-sweep": _table(EXACT_HEADER, _exact_rows),
    "fig1": _table(THERMO_HEADER, _thermo_rows),
    "fig2": _table(THERMO_HEADER, _fig2_rows),
    "fig3a": _table(EXACT_HEADER, _fig3a_rows),
    "fig3b": _table(FIG3B_HEADER, _fig3b_rows),
    "s-figs": _sfigs,
    "jc-curve": _table(("eta", "alpha_jc", "phase"), _jc_rows),
    "convergence": _table(CONV_HEADER, _convergence_rows),
}


def run(cfg: RunConfig) -> int:
    """Dispatch one command; returns the process exit code."""
    COMMANDS[cfg.command](cfg, cfg.output_path or f"{cfg.command}.csv")
    return 0


def _error_record(err):
    if isinstance(err, BudgetError):
        code = EXIT_BUDGET
    elif isinstance(err, _CONVERGENCE_ERRORS):
        code = EXIT_CONVERGENCE
    elif isinstance(err, _VALIDATION_ERRORS):
        code = EXIT_VALIDATION
    else:
        code = EXIT_VALIDATION if isinstance(err, DickelabError) else 1
    record = {"error": type(err).__name__, "message": str(err), "exit_code": code}
    return code, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dickelab",
        description="Phase structure and finite-size spectra of coupled "
                    "dipole-mode models; emits CSV data tables.")
    parser.add_argument("--config", help="flat KEY = VALUE config file")
    parser.add_argument("--command", choices=COMMANDS)
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--threads", type=int)
    parser.add_argument("--budget", type=int)
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
        if args.threads is not None:
            items["threads"] = str(args.threads)
        if args.budget is not None:
            items["budget"] = str(args.budget)
        return run(build_config(items))
    except Exception as err:  # noqa: BLE001 - single reporting funnel
        code, record = _error_record(err)
        json.dump(record, sys.stderr)
        sys.stderr.write("\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
