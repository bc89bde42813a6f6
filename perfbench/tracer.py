"""Spans around the package's public functions, and the per-layer metrics
computed from them.

`Tracer.install` replaces module attributes after `dickelab.cli` is imported.
`cli` reaches the layers as `dipole.solve_double_well`, `exactn.assemble` and
so on, and `exactn` calls its own functions through module globals, so every
call passes through a wrapper. A span is `[name, start, end, parent, detail]`
with `time.perf_counter` times; on Linux that is CLOCK_MONOTONIC, shared by
all processes, so a child's spans line up with the parent's spawn and exit
times. Spans stay in memory and are written out once, at the end.

This module imports only the standard library: run.py uses the
aggregation half without importing the package.
"""

import math
import statistics
import time

WRAPPED = (
    ("dipole", "solve_double_well"),
    ("dipole", "resonance_energy_scale"),
    ("thermo", "evaluate"),
    ("thermo", "ground_density_second_derivative"),
    ("gauge", "jc_gauge"),
    ("exactn", "assemble"),
    ("exactn", "dicke_two_level"),
    ("exactn", "lowest_eigenvalues"),
    ("exactn", "transition_sweep"),
    ("exactn", "second_derivative_sweep"),
    ("exactn", "convergence_report"),
)
SWEEPS = ("exactn.transition_sweep", "exactn.second_derivative_sweep",
          "exactn.convergence_report")
LAYERS = ("dipole", "thermo", "gauge", "exactn")
# Buckets by dimension, not by solver, so retuning the dense/sparse switch
# cannot rename a metric.
DIM_BUCKETS = (("dim_lt_1e3", 0, 1_000), ("dim_1e3_1e4", 1_000, 10_000),
               ("dim_ge_1e4", 10_000, math.inf))


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _well_detail(args, kwargs, result):
    shape, grid = _arg(args, kwargs, 0, "shape"), _arg(args, kwargs, 1, "grid")
    # Wells with the same quadratic coefficient and grid are the same
    # dimensionless problem, whatever their energy scale or level count.
    return [grid.points, repr((shape.quadratic_coefficient(), grid.zeta_max, grid.points))]


def _assemble_detail(args, kwargs, result):
    config = _arg(args, kwargs, 0, "config")
    spectrum = _arg(args, kwargs, 2, "spectrum")
    convention = _arg(args, kwargs, 3, "convention")
    key = (config.n_dipoles, config.dipole_levels, config.fock_cutoff,
           type(config.representation).__name__, id(spectrum),
           getattr(convention, "__name__", "MainText"))
    return [int(result.matrix.nnz), repr(key)]


def _eig_detail(args, kwargs, result):
    return int(_arg(args, kwargs, 0, "h").dimension)


DETAILS = {
    "dipole.solve_double_well": _well_detail,
    "exactn.assemble": _assemble_detail,
    "exactn.lowest_eigenvalues": _eig_detail,
}


class Tracer:
    """Records one span per wrapped call, in call order."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, owner, attr, name):
        inner = getattr(owner, attr)
        detail = DETAILS.get(name)
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()
            if detail is not None:
                span[4] = detail(args, kwargs, result)
            return result

        traced.__wrapped__ = inner
        setattr(owner, attr, traced)

    def install(self):
        from dickelab import cli, dipole, exactn, gauge, thermo

        modules = {"dipole": dipole, "thermo": thermo, "gauge": gauge, "exactn": exactn}
        for module, attr in WRAPPED:
            self.wrap(modules[module], attr, f"{module}.{attr}")
        self.wrap(cli.CsvWriter, "__init__", "cli.csv.open")
        self.wrap(cli.CsvWriter, "write_row", "cli.csv.write_row")
        self.wrap(cli.CsvWriter, "close", "cli.csv.close")


def layer_metric_names():
    names = ["cli.import_s", "cli.self_s", "cli.csv.rows", "cli.csv.s", "cli.csv.bytes",
             "dipole.solve_double_well.calls", "dipole.solve_double_well.s",
             "dipole.solve_double_well.grid_points", "dipole.solve_double_well.distinct_frac",
             "dipole.resonance_energy_scale.calls", "dipole.resonance_energy_scale.s",
             "thermo.evaluate.calls", "thermo.evaluate.s",
             "thermo.ground_density_second_derivative.s",
             "gauge.jc_gauge.calls", "gauge.jc_gauge.s",
             "exactn.assemble.calls", "exactn.assemble.s", "exactn.assemble.nnz",
             "exactn.assemble.distinct_frac",
             "exactn.dicke_two_level.calls", "exactn.dicke_two_level.s",
             "exactn.lowest_eigenvalues.calls", "exactn.lowest_eigenvalues.s",
             "exactn.lowest_eigenvalues.max_dim"]
    for bucket, _, _ in DIM_BUCKETS:
        names += [f"exactn.lowest_eigenvalues.{bucket}.{m}" for m in ("calls", "s", "max_dim")]
    names.append("exactn.sweep.self_s")
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += ["trace.wall_s", "trace.overhead_s", "trace.spans"]
    return names


def round_metrics(procs):
    """Per-layer metrics of one traced round.

    Each process is a dict with `spans`, `spawn` (its start time),
    `import_s` (spawn to the end of `import dickelab.cli`), `csv_bytes` and
    `window`, the (start, end) the workload's wall_s covers: spawn to exit
    for a CLI command, the timed section for a library session.
    `<layer>.self_s`, `cli.self_s` and `cli.csv.s` count only spans inside
    the window, and `cli.import_s` too when the import falls inside it, so
    together they add up to `trace.wall_s`. The per-function counts and
    times cover whole processes.
    """
    m = dict.fromkeys(layer_metric_names(), 0.0)
    wells = operator_sets = 0
    for proc in procs:
        spans, (lo, hi) = proc["spans"], proc["window"]
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        seen_wells, seen_ops = set(), set()
        top = 0.0
        for i, (name, start, end, parent, detail) in enumerate(spans):
            dur = end - start
            inside = lo <= start and end <= hi
            if inside and parent < 0:
                top += dur
            if name.startswith("cli.csv."):
                if inside:
                    m["cli.csv.s"] += dur
                m["cli.csv.rows"] += name == "cli.csv.write_row"
                continue
            if inside:
                m[name.split(".")[0] + ".self_s"] += dur - child[i]
            if name in SWEEPS:
                m["exactn.sweep.self_s"] += dur - child[i]
            calls, secs = name + ".calls", name + ".s"
            if calls in m:
                m[calls] += 1
            if secs in m:
                m[secs] += dur
            if name == "dipole.solve_double_well" and detail:
                m["dipole.solve_double_well.grid_points"] += detail[0]
                seen_wells.add(detail[1])
            elif name == "exactn.assemble" and detail:
                m["exactn.assemble.nnz"] += detail[0]
                seen_ops.add(detail[1])
            elif name == "exactn.lowest_eigenvalues" and detail:
                m["exactn.lowest_eigenvalues.max_dim"] = max(
                    m["exactn.lowest_eigenvalues.max_dim"], detail)
                for bucket, low, high in DIM_BUCKETS:
                    if low <= detail < high:
                        prefix = f"exactn.lowest_eigenvalues.{bucket}."
                        m[prefix + "calls"] += 1
                        m[prefix + "s"] += dur
                        m[prefix + "max_dim"] = max(m[prefix + "max_dim"], detail)
        wells += len(seen_wells)
        operator_sets += len(seen_ops)
        m["cli.import_s"] += proc["import_s"]
        import_inside = lo <= proc["spawn"]
        m["cli.self_s"] += (hi - lo) - top - (proc["import_s"] if import_inside else 0.0)
        m["cli.csv.bytes"] += proc["csv_bytes"]
        m["trace.wall_s"] += hi - lo
        m["trace.spans"] += len(spans)
    # Distinct work is counted per process: nothing can be shared across
    # processes, so a repeat there is not waste a cache could remove.
    well_calls = m["dipole.solve_double_well.calls"]
    assemble_calls = m["exactn.assemble.calls"]
    m["dipole.solve_double_well.distinct_frac"] = wells / well_calls if well_calls else 0.0
    m["exactn.assemble.distinct_frac"] = (operator_sets / assemble_calls
                                          if assemble_calls else 0.0)
    return m


def median_metrics(rounds):
    """Median of each metric over several traced rounds."""
    return {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}


def accounted_s(metrics, import_in_window):
    """Sum of the self times that partition trace.wall_s."""
    total = metrics["cli.self_s"] + metrics["cli.csv.s"]
    total += sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    if import_in_window:
        total += metrics["cli.import_s"]
    return total
