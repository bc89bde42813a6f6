"""One finite-N library session in a fresh interpreter.

    python3 session.py SPEC_JSON OUT_JSON

Set-up imports the package and solves the resonant spectrum once, as a
library user (or the test suite's fixtures) does. The timed section then
runs the finite-N sweeps at small dimension. Each call is one operation; an
exception fails it without stopping the session. OUT_JSON receives the
times, the operations' rows and, when traced, the spans.
"""

import json
import sys
import time

from workloads import points


def _rows(sweep_rows):
    return [[r["eta"], r["alpha"], r["model"], r["G"], r["E"], r["gap_over_omega"]]
            for r in sweep_rows]


def _conv_rows(report):
    keys = ("dipole_levels", "fock_cutoff", "dimension", "G", "E", "delta_G",
            "delta_E", "fock_tail", "flags")
    return [[r[k] for k in keys] for r in report]


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    import dickelab.cli  # noqa: F401  set-up is timed from a bare interpreter through this import
    from dickelab import dipole, exactn, gauge, thermo
    from dickelab.dipole import GridSpec, WellShape
    from dickelab.exactn import CollectiveSpin, HilbertConfig
    from dickelab.gauge import ReducedParams

    imported = time.perf_counter()
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    beta = spec["beta"]
    grid = GridSpec()
    scale = dipole.resonance_energy_scale(beta, 1.0, grid)
    spectrum = dipole.solve_double_well(WellShape(beta, scale), grid, spec["levels"])
    base = ReducedParams(omega=1.0, beta=beta, energy_scale=scale, eta=0.0,
                         n_dipoles=1, alpha=1.0, spectrum=spectrum)
    setup_done = time.perf_counter()

    ops = []

    def op(label, call):
        try:
            ops.append({"op": label, "rows": call(), "error": None})
        except Exception as err:  # noqa: BLE001 - a failed call is a failed operation
            ops.append({"op": label, "rows": None, "error": f"{type(err).__name__}: {err}"})
        return ops[-1]["rows"]

    start, cpu_start = time.perf_counter(), time.process_time()
    # "jc" is resolved once at eta = 0, as the CLI resolves alpha_list tokens.
    alphas = op("jc_gauge", lambda: [[gauge.jc_gauge(base) if tok == "jc" else float(tok)
                                      for tok in spec["gauges"]]])
    alphas = alphas[0] if alphas else [float("nan")] * len(spec["gauges"])
    for n, key in ((1, "n1"), (2, "n2")):
        hil, etas = HilbertConfig(n, 8, 40), points(*spec[key])
        for tok, alpha in zip(spec["gauges"], alphas):
            template = base.with_(n_dipoles=n, alpha=alpha)
            op(f"transition_sweep N={n} alpha={tok}",
               lambda: _rows(exactn.transition_sweep(hil, template, etas)))
    d2 = points(*spec["d2"])
    for n in (1, 2, 3, 4):
        hil = HilbertConfig(n, 2, 40, representation=CollectiveSpin())
        op(f"second_derivative_sweep N={n}",
           lambda: [list(r) for r in exactn.second_derivative_sweep(
               hil, base.with_(n_dipoles=n), d2)])
    op("ground_density_second_derivative",
       lambda: [list(r) for r in thermo.ground_density_second_derivative(base, d2[1:-1])])
    ladder = [HilbertConfig(1, levels, fock) for levels, fock in spec["ladder"]]
    op("convergence_report",
       lambda: _conv_rows(exactn.convergence_report(
           ladder, base.with_(eta=spec["conv"][0]), spectrum)))
    end, cpu = time.perf_counter(), time.process_time() - cpu_start

    result = {"import_done": imported, "setup_done": setup_done, "start": start,
              "end": end, "cpu_s": cpu, "ops": ops,
              "spans": tracer.spans if tracer else []}
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
