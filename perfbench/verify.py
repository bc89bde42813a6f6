"""Recompute sampled printed rows with the dense eigensolver.

    python3 verify.py TASKS_JSON OUT_JSON

Each task names one printed row: beta, dipole count, dipole levels, Fock
cutoff, model ("exact" or "two_level"), alpha, eta and the printed G and E.
The row's Hamiltonian is rebuilt through the public API on a freshly solved
resonant spectrum and diagonalized with `lowest_eigenvalues(method="dense")`.
OUT_JSON receives one `[ok, detail]` pair per task.
"""

import json
import sys

# Dense and Lanczos eigenvalues of the same matrix agree to rounding; this
# is loose enough for that and far tighter than any wrong row.
DENSE_TOL = 1e-9


def resonant_spectrum(beta, levels):
    from dickelab import GridSpec, WellShape, resonance_energy_scale, solve_double_well

    grid = GridSpec()
    scale = resonance_energy_scale(beta, 1.0, grid)
    return solve_double_well(WellShape(beta, scale), grid, levels)


def dense_pair(spectrum, task):
    from dickelab import (CollectiveSpin, HilbertConfig, ReducedParams, assemble,
                          dicke_two_level, lowest_eigenvalues)

    n = task["n"]
    params = ReducedParams(omega=1.0, beta=spectrum.shape.beta,
                           energy_scale=spectrum.shape.energy_scale, eta=task["eta"],
                           n_dipoles=n, alpha=task["alpha"], spectrum=spectrum)
    if task["model"] == "exact":
        h = assemble(HilbertConfig(n, task["levels"], task["fock"]), params, spectrum)
    else:
        h = dicke_two_level(HilbertConfig(n, 2, task["fock"], representation=CollectiveSpin()),
                            params, spectrum)
    vals = lowest_eigenvalues(h, 2, method="dense")
    return float(vals[0]), float(vals[1])


def check(spectrum, task):
    got = dense_pair(spectrum, task)
    bad = [f"{key} printed {task[key]!r}, dense {value!r}"
           for key, value in zip(("G", "E"), got)
           if not abs(value - task[key]) <= DENSE_TOL * max(1.0, abs(task[key]))]
    return [not bad, "; ".join(bad)]


def main():
    with open(sys.argv[1]) as fh:
        tasks = json.load(fh)
    spectra = {}
    results = []
    for task in tasks:
        key = (task["beta"], task["spectrum_levels"])
        if key not in spectra:
            spectra[key] = resonant_spectrum(*key)
        results.append(check(spectra[key], task))
    with open(sys.argv[2], "w") as fh:
        json.dump(results, fh)


if __name__ == "__main__":
    main()
