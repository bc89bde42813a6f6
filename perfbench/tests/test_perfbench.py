"""The benchmark's own tests, at reduced size.

    python3 -m pytest perfbench/tests -q

They run the benchmark as the harness does, one subprocess per run, so a
later change that renames a wrapped function (and bypasses its wrapper) or
drops a metric fails here instead of reading zero.
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import ETA_C, WORKLOADS, points  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Counters that must be non-zero on the workload meant to exercise them.
FIRES = {
    "limit-cli": ["cli.import_s", "cli.csv.rows", "cli.csv.s", "cli.csv.bytes",
                  "dipole.solve_double_well.calls", "dipole.resonance_energy_scale.calls",
                  "thermo.evaluate.calls", "thermo.evaluate.s", "gauge.jc_gauge.calls"],
    "finite-n-lib": ["dipole.solve_double_well.calls", "gauge.jc_gauge.calls",
                     "thermo.ground_density_second_derivative.s",
                     "exactn.assemble.calls", "exactn.assemble.nnz",
                     "exactn.dicke_two_level.calls",
                     "exactn.lowest_eigenvalues.dim_lt_1e3.calls",
                     "exactn.lowest_eigenvalues.dim_1e3_1e4.calls", "exactn.sweep.self_s"],
    "finite-n-large-cli": ["cli.csv.rows", "dipole.solve_double_well.calls",
                           "exactn.assemble.calls", "exactn.assemble.nnz",
                           "exactn.dicke_two_level.calls",
                           "exactn.lowest_eigenvalues.dim_ge_1e4.calls",
                           "exactn.lowest_eigenvalues.dim_ge_1e4.s"],
}


def bench(cwd, *args):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


@pytest.fixture(scope="module")
def smoke_runs():
    out = {}
    for name, trace in itertools.product(WORKLOADS["smoke"], ("0", "1")):
        proc = bench(ROOT, "--workload", name, "--seed", "7", "--seconds", "1",
                     "--trace", trace, "--size", "smoke")
        assert proc.returncode == 0, proc.stderr
        out[name, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("name", list(WORKLOADS["smoke"]))
def test_every_metric_is_emitted_with_its_unit(smoke_runs, name):
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        got = smoke_runs[name, trace]
        assert set(got) == {"correct", "attempted", "failed", "metrics"}
        assert got["correct"] and got["failed"] == 0 and got["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[group]}
        assert {k: v["unit"] for k, v in got["metrics"].items()} == want


@pytest.mark.parametrize("name", list(WORKLOADS["smoke"]))
def test_wrapped_layers_fire_where_designed(smoke_runs, name):
    metrics = smoke_runs[name, "1"]["metrics"]
    silent = [key for key in FIRES[name] if not metrics[key]["value"] > 0]
    assert not silent


@pytest.mark.parametrize("name", list(WORKLOADS["smoke"]))
def test_self_times_account_for_traced_wall(smoke_runs, name):
    values = {k: v["value"] for k, v in smoke_runs[name, "1"]["metrics"].items()}
    is_cli = isinstance(WORKLOADS["smoke"][name], run.CliWorkload)
    gap = abs(tracer.accounted_s(values, import_in_window=is_cli) - values["trace.wall_s"])
    assert gap <= 1e-6 + abs(values["trace.overhead_s"])
    assert values["trace.wall_s"] > 0


def _corners(grid):
    # Every point is affine in the two end shifts, so the corners bound it.
    for ds, de in itertools.product((-1, 1), repeat=2):
        yield points(grid.start + ds * grid.start_jitter,
                     grid.stop + de * grid.stop_jitter, grid.steps)


@pytest.mark.parametrize("size,name", [(s, n) for s in WORKLOADS for n in WORKLOADS[s]])
def test_seed_keeps_each_phase_split(size, name):
    for grid in WORKLOADS[size][name].grids():
        eta_c = ETA_C[grid.beta]
        nominal = sum(p < eta_c for p in points(grid.start, grid.stop, grid.steps))
        for pts in _corners(grid):
            assert pts[0] >= 0.0
            assert sum(p < eta_c for p in pts) == nominal
            assert eta_c not in pts


@pytest.mark.parametrize("size", list(WORKLOADS))
def test_second_derivative_grid_avoids_the_tagged_strip(size):
    grid = WORKLOADS[size]["finite-n-lib"].d2
    # The closed-form column is NaN within one finite-difference step (1e-3)
    # of eta_c; the interior points must stay clear of it.
    for pts in _corners(grid):
        assert min(abs(p - ETA_C[grid.beta]) for p in pts[1:-1]) > 2e-3


def test_seed_zero_is_nominal_and_seeds_repeat():
    workload = WORKLOADS["full"]["finite-n-lib"]
    assert workload.draw(0)["n1"] == [0.0, 2.8, 21]
    assert workload.draw(5) == workload.draw(5)
    assert workload.draw(5) != workload.draw(6)


def test_reference_tolerance_admits_solver_shift_and_catches_wrong_values():
    ref = [["0.5", "normal", "1.2345678901234567", "-98.65018982052013"]]
    shifted = [[r[0], r[1], repr(float(r[2]) * (1 + 2e-9)), repr(float(r[3]) * (1 - 2e-9))]
               for r in ref]
    assert run.compare_reference(shifted, ref) is None
    wrong = [[ref[0][0], ref[0][1], repr(float(ref[0][2]) * (1 + 1e-5)), ref[0][3]]]
    assert run.compare_reference(wrong, ref) is not None
    relabelled = [[ref[0][0], "abnormal", ref[0][2], ref[0][3]]]
    assert run.compare_reference(relabelled, ref) is not None


def test_reference_covers_every_recorded_output():
    stored = json.loads(run.REFERENCE.read_text())
    for name, workload in WORKLOADS["full"].items():
        if isinstance(workload, run.CliWorkload):
            keys = {c.name for c in workload.commands}
        else:
            keys = set(workload.op_labels())
        assert set(stored[name]) == keys


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench(tmp_path, "--workload", "limit-cli", "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
