"""dickelab benchmark: three workloads, end-to-end metrics, per-layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every workload, one summary

Run from anywhere; the package is imported from `src/` next to this
directory, so nothing needs installing. Each command or library session
runs in a fresh interpreter with BLAS pinned to one thread. A run repeats
whole rounds of the workload while they fit in --seconds (at least one) and
reports medians over rounds. With --trace 1 it alternates untraced and
traced rounds and reports the per-layer metrics of the traced ones, with
the tracing overhead. Outputs are checked every round; on seed 0 they are
also compared with references recorded from the seed commit.

Standard output ends with one JSON line: correct, attempted, failed and the
metrics. Lines before it give the run's metadata and a readable summary.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
from workloads import WORKLOADS, CliWorkload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
HARD_LIMIT_S = 170.0
REFERENCE = HERE / "reference.json"
# Relative tolerance against the recorded references. Loose enough for the
# expected ~2e-9 relative shift of a better well solver; a wrong spectrum
# moves these numbers by 1e-4 or more.
REF_RTOL = 1e-6
REF_ATOL = 1e-9
TEXT_COLUMNS = {"phase", "model", "flags"}


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Child:
    """One finished child process, with its wait4 resource usage."""

    def __init__(self, argv, cwd, deadline):
        timeout = max(1.0, deadline - time.perf_counter())
        with open(cwd / "stderr.txt", "w+b") as err:
            self.start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            reaped = False
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                reaped = True
            finally:
                killer.cancel()
                if not reaped:
                    proc.kill()
                    proc.wait()
            self.end = time.perf_counter()
            proc.returncode = self.code = os.waitstatus_to_exitcode(status)
            err.seek(0)
            self.stderr = err.read()[-600:].decode(errors="replace").strip()
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0

    def failure(self):
        if self.code == 0:
            return None
        return f"exit code {self.code}: {self.stderr.splitlines()[-1] if self.stderr else ''}"


class Round:
    def __init__(self, traced):
        self.traced = traced
        self.wall = self.cpu = self.rss = 0.0
        self.setup = []
        self.ops = []        # {"label", "failures", "fingerprint", "values"}
        self.procs = []      # for tracer.round_metrics
        self.checks = []     # (op index, rows to recompute densely)


def _parse_csv(path, header, expected_rows):
    """Rows of one output file, and what is wrong with it."""
    problems = []
    if not path.exists():
        return None, [], [f"{path.name} missing"]
    lines = path.read_text().splitlines()
    if any(line.startswith("# TRUNCATED") for line in lines):
        problems.append(f"{path.name} ends with # TRUNCATED")
    first = lines[0].split() if lines else []
    digest = first[2] if first[:2] == ["#", "config"] and len(first) > 2 else None
    if digest is None:
        problems.append(f"{path.name} lacks the # config provenance line")
    if len(lines) < 2 or tuple(lines[1].split(",")) != header:
        problems.append(f"{path.name} header differs from {','.join(header)}")
    rows = [line.split(",") for line in lines[2:] if not line.startswith("#")]
    if len(rows) != expected_rows:
        problems.append(f"{path.name} has {len(rows)} rows, expected {expected_rows}")
    for row in rows:
        if len(row) != len(header) or not _finite_row(dict(zip(header, row))):
            problems.append(f"{path.name} row not finite: {','.join(row)}")
            break
    return digest, rows, problems


def _finite_row(row):
    for column, text in row.items():
        if column in TEXT_COLUMNS:
            continue
        try:
            value = float(text)
        except ValueError:
            return False
        # tau = omega_m / (2 rho d^2) is +inf exactly at eta = 0.
        if math.isnan(value) or (math.isinf(value) and column != "tau"):
            return False
    return True


def _finite_values(rows):
    for row in rows:
        for value in row:
            if isinstance(value, float) and not math.isfinite(value):
                return False
    return True


def _fingerprint(values):
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()


def _fock_cutoff(command):
    for arg in command.args:
        if arg.startswith("fock_cutoff="):
            return int(arg.split("=", 1)[1])
    return 40


def _dense_tasks(command, rows):
    """The printed two-level rows, recomputed with the dense solver."""
    return [{"beta": command.grid.beta, "spectrum_levels": 12, "n": int(n), "levels": 2,
             "fock": _fock_cutoff(command), "model": "two_level", "alpha": float(alpha),
             "eta": float(eta), "G": float(g), "E": float(e)}
            for eta, alpha, _, n, model, g, e, _ in rows if model == "two_level"]


def cli_round(workload, drawn, work, traced, deadline):
    rnd = Round(traced)
    for command, (start, stop) in drawn:
        path, stats = work / f"{command.name}.csv", work / "stats.json"
        path.unlink(missing_ok=True)
        stats.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "launch.py"), str(stats), "1" if traced else "0",
                *command.args, f"eta_grid={start!r},{stop!r},{command.grid.steps}",
                "--out", str(path)]
        child = Child(argv, work, deadline)
        digest, rows, problems = _parse_csv(path, command.header,
                                            command.rows_per_step * command.grid.steps)
        op = {"label": command.name, "values": rows, "digest": digest,
              "fingerprint": _fingerprint(rows),
              "failures": ([child.failure()] if child.failure() else []) + problems}
        info = json.loads(stats.read_text()) if stats.exists() else None
        csv_bytes = path.stat().st_size if path.exists() else 0
        if command.dense_check and not op["failures"]:
            rnd.checks.append((len(rnd.ops), _dense_tasks(command, rows)))
        rnd.ops.append(op)
        rnd.wall += child.end - child.start
        rnd.cpu += child.cpu
        rnd.rss = max(rnd.rss, child.rss_mb)
        if info is None:
            op["failures"].append("launcher wrote no stats")
            continue
        import_s = info["import_done"] - child.start
        rnd.setup.append(import_s)
        rnd.procs.append({"spans": info["spans"], "spawn": child.start, "import_s": import_s,
                          "window": (child.start, child.end), "csv_bytes": csv_bytes})
    return rnd


def _lib_expected_rows(spec, label):
    if label == "jc_gauge":
        return 1
    if label.startswith("transition_sweep"):
        return 2 * spec["n1" if "N=1" in label else "n2"][2]
    if label == "convergence_report":
        return len(spec["ladder"])
    return spec["d2"][2] - 2


def _lib_dense_tasks(spec, ops):
    """First and last rows of each N=1 sweep, and the last N=2 exact row of
    the first gauge resolved at run time, which takes the Lanczos path."""
    tasks = []
    for i, op in enumerate(ops):
        if not op["label"].startswith("transition_sweep") or op["failures"]:
            continue
        n = int(op["label"].split()[1][2:])
        rows = op["values"]
        if n == 1:
            picks = rows[:2] + rows[-2:]
        elif op["label"].endswith("alpha=jc"):
            picks = rows[-2:-1]
        else:
            continue
        tasks.append((i, [{"beta": spec["beta"], "spectrum_levels": spec["levels"], "n": n,
                           "levels": 8, "fock": 40, "model": model, "alpha": alpha,
                           "eta": eta, "G": g, "E": e}
                          for eta, alpha, model, g, e, _ in picks]))
    return tasks


def lib_round(workload, spec, work, traced, deadline):
    rnd = Round(traced)
    spec_path, out_path = work / "session_spec.json", work / "session_out.json"
    spec_path.write_text(json.dumps(dict(spec, trace=traced)))
    out_path.unlink(missing_ok=True)
    child = Child([sys.executable, str(HERE / "session.py"), str(spec_path), str(out_path)],
                  work, deadline)
    result = json.loads(out_path.read_text()) if out_path.exists() else None
    rnd.rss = child.rss_mb
    if result is None:
        reason = child.failure() or "session wrote no result"
        rnd.ops = [{"label": label, "failures": [reason], "values": None, "fingerprint": None}
                   for label in workload.op_labels()]
        rnd.wall, rnd.cpu = child.end - child.start, child.cpu
        return rnd
    for entry in result["ops"]:
        failures = [entry["error"]] if entry["error"] else []
        rows = entry["rows"] or []
        want = _lib_expected_rows(spec, entry["op"])
        if not entry["error"] and len(rows) != want:
            failures.append(f"{len(rows)} rows, expected {want}")
        if not _finite_values(rows):
            failures.append("non-finite value")
        rnd.ops.append({"label": entry["op"], "failures": failures, "values": entry["rows"],
                        "fingerprint": _fingerprint(entry["rows"])})
    rnd.checks = _lib_dense_tasks(spec, rnd.ops)
    rnd.wall = result["end"] - result["start"]
    rnd.cpu = result["cpu_s"]
    rnd.setup.append(result["setup_done"] - child.start)
    rnd.procs.append({"spans": result["spans"], "spawn": child.start,
                      "import_s": result["import_done"] - child.start,
                      "window": (result["start"], result["end"]), "csv_bytes": 0})
    return rnd


def verify_dense(rnd, work, deadline):
    tasks = [task for _, group in rnd.checks for task in group]
    if not tasks:
        return
    tasks_path, out_path = work / "verify_tasks.json", work / "verify_out.json"
    tasks_path.write_text(json.dumps(tasks))
    out_path.unlink(missing_ok=True)
    child = Child([sys.executable, str(HERE / "verify.py"), str(tasks_path), str(out_path)],
                  work, deadline)
    results = json.loads(out_path.read_text()) if out_path.exists() else None
    i = 0
    for op_index, group in rnd.checks:
        for _ in group:
            if results is None:
                rnd.ops[op_index]["failures"].append(
                    f"dense check did not run: {child.failure()}")
                break
            ok, detail = results[i]
            if not ok:
                rnd.ops[op_index]["failures"].append(f"dense check: {detail}")
            i += 1


def _close(a, b):
    if isinstance(b, str) or isinstance(a, str):
        try:
            a, b = float(a), float(b)
        except (TypeError, ValueError):
            return a == b
    if a is None or b is None:
        return a is b
    if math.isnan(b) or math.isinf(b):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= REF_ATOL + REF_RTOL * abs(b)


def compare_reference(got, want):
    """First mismatch between two row sets, or None."""
    if len(got) != len(want):
        return f"{len(got)} rows, reference has {len(want)}"
    for i, (row, ref) in enumerate(zip(got, want)):
        if len(row) != len(ref) or not all(_close(a, b) for a, b in zip(row, ref)):
            return f"row {i}: {row} differs from reference {ref}"
    return None


def reference_values(workload, rnd):
    """(op index, key, rows) the reference file keeps; large tables are sampled."""
    out = []
    for i, op in enumerate(rnd.ops):
        rows = op["values"]
        if isinstance(workload, CliWorkload):
            rows = rows[::max(1, len(rows) // 200)]
        out.append((i, op["label"], rows))
    return out


def check_reference(workload, rnd):
    stored = json.loads(REFERENCE.read_text())[workload.name]
    for i, key, rows in reference_values(workload, rnd):
        if rows is None:
            continue
        problem = compare_reference(rows, stored[key])
        if problem:
            rnd.ops[i]["failures"].append(f"reference {key}: {problem}")


def run_workload(name, seed, seconds, trace, size, reference=True):
    workload = WORKLOADS[size][name]
    started = time.perf_counter()
    deadline = started + HARD_LIMIT_S
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        drawn = workload.draw(seed)
        rounds = []
        round_start = started
        while True:
            traced = trace and len(rounds) % 2 == 1
            if isinstance(workload, CliWorkload):
                rnd = cli_round(workload, drawn, work, traced, deadline)
            else:
                rnd = lib_round(workload, drawn, work, traced, deadline)
            rounds.append(rnd)
            now = time.perf_counter()
            elapsed, last, round_start = now - started, now - round_start, now
            if trace and len(rounds) < 2:
                continue
            # Start another round only if one more like the last still fits.
            if elapsed + last > min(seconds, HARD_LIMIT_S - 30):
                break
        first = rounds[0]
        verify_dense(first, work, deadline)
        if reference and seed == 0 and size == "full":
            check_reference(workload, first)
        for rnd in rounds[1:]:
            for op, ref in zip(rnd.ops, first.ops):
                if op["fingerprint"] != ref["fingerprint"]:
                    op["failures"].append("output differs from the first round's")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    return workload, drawn, rounds


def end_to_end(rounds):
    plain = [r for r in rounds if not r.traced]
    return {
        "wall_s": statistics.median(r.wall for r in plain),
        "cpu_s": statistics.median(r.cpu for r in plain),
        "setup_s": statistics.median(s for r in plain for s in r.setup),
        "peak_rss_mb": max(r.rss for r in rounds),
    }, {"wall_s": len(plain), "cpu_s": len(plain),
        "setup_s": sum(len(r.setup) for r in plain), "peak_rss_mb": len(rounds)}


def per_layer(rounds):
    traced = [tracer.round_metrics(r.procs) for r in rounds if r.traced]
    metrics = tracer.median_metrics(traced)
    metrics["trace.overhead_s"] = (statistics.median(r.wall for r in rounds if r.traced)
                                   - statistics.median(r.wall for r in rounds if not r.traced))
    return metrics, len(traced)


def metadata(workload, drawn, rounds, seed, trace):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - metadata only
        blas = "unknown"
    meta = {"workload": workload.name, "seed": seed, "trace": trace, "nproc": os.cpu_count(),
            "blas": blas, "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "rounds": len(rounds),
            "round_wall_s": [r.wall for r in rounds]}
    if isinstance(workload, CliWorkload):
        meta["eta_grids"] = {c.name: [s, e, c.grid.steps] for c, (s, e) in drawn}
        meta["config_digests"] = {op["label"]: op["digest"] for op in rounds[0].ops}
    else:
        meta["session"] = drawn
    return meta


def units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def result(name, seed, seconds, trace, size):
    workload, drawn, rounds = run_workload(name, seed, seconds, trace, size)
    ops = [op for rnd in rounds for op in rnd.ops]
    failed = [op for op in ops if op["failures"]]
    if trace:
        values, samples = per_layer(rounds)
        samples = dict.fromkeys(values, samples)
    else:
        values, samples = end_to_end(rounds)
    unit = units()
    print("# meta " + json.dumps(metadata(workload, drawn, rounds, seed, trace)))
    for op in failed[:20]:
        print(f"# FAILED {op['label']}: {'; '.join(op['failures'])}")
    print(f"# {name}: {len(ops)} operations, {len(failed)} failed, "
          f"failed_frac = {len(failed) / len(ops):.6g}")
    for key, value in values.items():
        how = "max" if key == "peak_rss_mb" else "median"
        print(f"# {name}: {key} = {value:.6g} {unit[key]} ({how} of {samples[key]})")
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed),
            "metrics": {key: {"value": value, "unit": unit[key]} for key, value in values.items()}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS["full"], "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(WORKLOADS), default="full",
                        help="smoke: reduced sizes for the benchmark's own tests")
    args = parser.parse_args()
    if not (ROOT / "src" / "dickelab" / "cli.py").is_file():
        print(f"error: no dickelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS["full"]) if args.workload == "all" else [args.workload]
    results = {name: result(name, args.seed, args.seconds, bool(args.trace), args.size)
               for name in names}
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
