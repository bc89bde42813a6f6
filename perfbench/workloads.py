"""The benchmark's workloads: what each runs, drawn from the seed, and what
each must print.

Every workload is a closed loop with one client. A round runs the
workload's commands (or its library session) one after another, each in a
fresh interpreter, because users start one; so no in-process cache can carry
over from one round to the next.

The seed moves only eta values, and only inside a fixed split of points per
phase: no point crosses the transition coupling, and counts, gauges, cutoffs
and dimensions never change. A run's cost therefore does not depend on the
seed. Seed 0 is the nominal grid, the one the references were recorded on.
"""

import random
from dataclasses import dataclass

# Transition couplings of the resonant double well, from this repository's
# solver (gauge independent). Only used to keep the seed's grids inside their
# phase split; tests check every grid against them.
ETA_C = {1.5: 1.0464038266517228, 2.4: 1.2251893004526564, 3.3: 2.028794094566447}

THERMO_HEADER = ("alpha", "eta", "tau", "phase", "E_plus", "E_minus",
                 "ground_density", "pi_average", "p_t_average")
EXACT_HEADER = ("eta", "alpha", "phase", "n_dipoles", "model", "G", "E",
                "gap_over_omega")


@dataclass(frozen=True)
class EtaGrid:
    """Uniform eta grid; the seed moves each end by at most its jitter."""

    beta: float
    start: float
    stop: float
    steps: int
    start_jitter: float = 0.0
    stop_jitter: float = 0.0

    def draw(self, rng):
        if rng is None:
            return self.start, self.stop
        return (self.start + self.start_jitter * rng.uniform(-1.0, 1.0),
                self.stop + self.stop_jitter * rng.uniform(-1.0, 1.0))


def points(start, stop, steps):
    """Grid points, computed as `RunConfig.eta_values` computes them."""
    if steps == 1:
        return [start]
    return [start + (stop - start) * i / (steps - 1) for i in range(steps)]


@dataclass(frozen=True)
class Command:
    name: str            # also the output file's stem
    args: tuple          # CLI arguments besides eta_grid and --out
    grid: EtaGrid
    header: tuple
    rows_per_step: int
    dense_check: bool = False   # recompute its two-level rows densely


@dataclass(frozen=True)
class CliWorkload:
    name: str
    commands: tuple

    def grids(self):
        return [c.grid for c in self.commands]

    def draw(self, seed):
        rng = None if seed == 0 else random.Random(seed)
        return [(c, c.grid.draw(rng)) for c in self.commands]


@dataclass(frozen=True)
class LibWorkload:
    """One library session: set-up at one beta, then the timed calls."""

    name: str
    beta: float
    levels: int
    gauges: tuple
    n1: EtaGrid          # transition_sweep, N=1, L=8, M=40 (dimension 320)
    n2: EtaGrid          # transition_sweep, N=2, L=8, M=40 (dimension 2560)
    d2: EtaGrid          # two-level second_derivative_sweep, N=1..4
    conv: EtaGrid        # convergence_report point (one eta)
    ladder: tuple

    def grids(self):
        return [self.n1, self.n2, self.d2, self.conv]

    def draw(self, seed):
        rng = None if seed == 0 else random.Random(seed)
        spec = {"beta": self.beta, "levels": self.levels, "gauges": list(self.gauges),
                "ladder": [list(r) for r in self.ladder]}
        for key in ("n1", "n2", "d2", "conv"):
            grid = getattr(self, key)
            spec[key] = [*grid.draw(rng), grid.steps]
        return spec

    def op_labels(self):
        labels = ["jc_gauge"]
        for n in (1, 2):
            labels += [f"transition_sweep N={n} alpha={tok}" for tok in self.gauges]
        labels += [f"second_derivative_sweep N={n}" for n in (1, 2, 3, 4)]
        labels += ["ground_density_second_derivative", "convergence_report"]
        return labels


def _limit_cli(thermo_steps, with_absorbed):
    commands = [Command(
        "thermo-sweep", ("--command", "thermo-sweep"),
        EtaGrid(2.4, 0.0, 3.0, thermo_steps, 0.0, 0.0005 if thermo_steps > 100 else 0.01),
        THERMO_HEADER, 3)]
    if with_absorbed:
        # Each point solves its own self-energy-renormalized well, which no
        # cache can share with another point: the property s-figs has, at a
        # third of its cost.
        commands.append(Command(
            "exact-sweep-absorbed",
            ("--command", "exact-sweep", "convention=self-energy-in-bare", "alpha_list=1"),
            EtaGrid(2.4, 0.5, 2.0, 2, 0.1, 0.05), EXACT_HEADER, 1))
    return CliWorkload("limit-cli", tuple(commands))


def _large_cli(extra):
    return CliWorkload("finite-n-large-cli", (Command(
        "exact-sweep",
        ("--command", "exact-sweep", "beta=3.3", "n_dipoles=3", "alpha_list=1") + extra,
        EtaGrid(3.3, 1.0, 2.8, 2, 0.1, 0.1), EXACT_HEADER, 2, dense_check=True),))


def _finite_n_lib(n1_steps, n2_steps, d2_steps, ladder):
    if d2_steps > 5:
        # Step 0.025 with eta_c midway between two points, so the closed-form
        # column never lands in the strip it tags NaN.
        d2 = EtaGrid(3.3, 1.516, 2.516, d2_steps, 0.008, 0.008)
    else:
        d2 = EtaGrid(3.3, 1.6, 2.4, d2_steps, 0.02, 0.02)
    return LibWorkload(
        "finite-n-lib", beta=3.3, levels=12, gauges=("0", "jc", "1"),
        n1=EtaGrid(3.3, 0.0, 2.8, n1_steps, 0.0, 0.05),
        n2=EtaGrid(3.3, 0.2, 2.6, n2_steps, 0.05, 0.05),
        d2=d2,
        conv=EtaGrid(3.3, 1.0, 1.0, 1, 0.1, 0.0),
        ladder=ladder)


WORKLOADS = {
    "full": {
        "limit-cli": _limit_cli(4001, with_absorbed=True),
        "finite-n-lib": _finite_n_lib(21, 4, 41, ((6, 30), (8, 40), (10, 60))),
        "finite-n-large-cli": _large_cli(()),
    },
    # Reduced sizes for the benchmark's own tests: every layer still fires.
    "smoke": {
        "limit-cli": _limit_cli(41, with_absorbed=False),
        "finite-n-lib": _finite_n_lib(3, 2, 5, ((6, 30), (8, 40))),
        "finite-n-large-cli": _large_cli(("fock_cutoff=20",)),
    },
}
