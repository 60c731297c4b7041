"""End-to-end and per-layer benchmark of uapd.

Run from the repository root:

    python3 bench/run.py --workload game_entropy [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all [--trace 0|1]

``--seconds`` defaults to ``run_seconds`` from BENCHMARK.json.

Workloads (bench/README.md says why each was chosen):

* ``game_entropy``  -- a suite of make_matrix_game(100, 400) games with
  entropy geometry, each solved by the adaptive method to
  |f_residual| <= 2e-2.
* ``basis_pursuit`` -- a suite of make_basis_pursuit(100, 500, sparsity=20)
  instances with gamma0 = ||A||^2, each solved to feasibility <= 3e-3.
* ``configs_cli``   -- every ``configs/*.json`` through ``uapd.cli.main``
  in-process, with the seed written into each config's instance.

A suite holds ``SUITE_SIZE[workload]`` instances seeded ``seed``,
``seed + SUITE_STRIDE``, ...  Iterations to a target vary by 12-17%
from one instance to the next; a sum over a suite keeps the spread of
``iters`` across seeds small.  The first instance is the one the seed
names (61 for game_entropy, 71 for basis_pursuit by default).

With ``--trace 0`` a run sets up several times (``setup_s`` is the
median), then repeats the measured pass while another one fits in
``--seconds`` (at least once) and reports medians over passes.  A suite
pass is sized to take about ``run_seconds`` on a 2-core machine, so the
solver workloads make one pass per run there; configs_cli makes about
three.  With ``--trace 1`` it alternates an untraced and a traced pass
over the suite's first instance (over all configs for configs_cli) and
reports per-layer figures per pass and the tracing overhead.  Every
solve passes a correctness gate; the trace digests of all passes must
agree.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are those of BENCHMARK.json.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("game_entropy", "basis_pursuit", "configs_cli")
DEFAULT_SEEDS = {"game_entropy": 61, "basis_pursuit": 71, "configs_cli": None}
# Seeds not used while the benchmark was tuned, for checking later claims.
HELD_OUT_SEEDS = {"game_entropy": 9161, "basis_pursuit": 9171, "configs_cli": 9101}
SUITE_SIZE = {"game_entropy": 8, "basis_pursuit": 8}
SUITE_STRIDE = 100_000
MAX_ITERATIONS = 100_000
GAP_TARGET = 2e-2
FEASIBILITY_TARGET = 3e-3

# Set-up is short and noisy: repeat it at least this often and for at
# least this long, and report the median.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 50

# Subcommand run on each config, and the outputs the README documents
# for it (CSV files with their header row).
CLI_CONFIGS = {
    "game_solve": "solve",
    "game_euclidean_solve": "solve",
    "game_compare": "compare",
    "basis_pursuit_solve": "solve",
    "qp_flow": "flow",
    "qp_bounds": "bounds",
}
CLI_OUTPUTS = {
    "solve": {"trace.csv": "k,f_residual,feasibility,i_k,M_k,alpha_k,beta_k,delta_k,"
                           "lyapunov,wall_time_s,objective",
              "summary.json": None},
    "compare": {"compare.csv": "k,f_UAPD,f_base,M_UAPD,M_base,ik_UAPD,ik_base",
                "compare_summary.json": None},
    "flow": {"flow.csv": "t,lyapunov,et_lyapunov,feasibility"},
    "bounds": {"bounds.csv": "k,beta,envelope", "bounds_summary.json": None},
}


class GateError(Exception):
    """A solve or CLI run produced output that fails the correctness gate."""


class Pass(NamedTuple):
    run_s: float
    iters: int
    trials: int
    digest: str


class TracedPair(NamedTuple):
    plain: Pass
    traced: Pass
    tracer: object
    log: object
    csv_rows_bytes: tuple


def _import_uapd():
    """Import the library from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import uapd
    except ImportError as exc:
        raise SystemExit(f"error: cannot import uapd from {SRC}: {exc}")
    if Path(uapd.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: uapd was imported from {uapd.__file__}, not {SRC}")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared_units(kind):
    """Metric name -> unit for ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


class Tally:
    """Attempted and failed operations; a failure is counted, never dropped."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, what, fn, *args):
        self.attempted += 1
        try:
            fn(*args)
        except Exception:  # the run goes on; the failure is reported and counted
            self.failed += 1
            print(f"FAILED {what}:\n{traceback.format_exc()}", file=sys.stderr)


def repeat(seconds, fn):
    """Call ``fn(i)`` for i = 0, 1, ... while another call fits in ``seconds``."""
    results, start = [], time.perf_counter()
    while True:
        results.append(fn(len(results)))
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def timed_setups(fn):
    """Call ``fn()`` repeatedly; return (seconds per call, last result)."""
    times = []
    while (len(times) < SETUP_MIN_REPEATS
           or (sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS)):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return times, result


@contextmanager
def instrumented(tracer):
    """Log every ``solve``; with a tracer, also wrap every layer boundary."""
    from tracer import Patches, SolveLog, log_solves
    log, patches = SolveLog(), Patches()
    if tracer is None:
        log_solves(patches, log)
    else:
        tracer.install(patches, log)
    try:
        yield log, patches
    finally:
        patches.undo()


# ---------------------------------------------------------------------------
# Solver workloads.

def suite_seeds(workload, seed):
    return [seed + SUITE_STRIDE * j for j in range(SUITE_SIZE[workload])]


def build(workload, seed):
    """One instance and its resolved config: the set-up a user pays."""
    from uapd import problems
    from uapd.solver import SolverConfig
    if workload == "game_entropy":
        instance = problems.make_matrix_game(100, 400, seed=seed, geometry="entropy")
        config = SolverConfig(max_iterations=MAX_ITERATIONS, gap_target=GAP_TARGET)
    else:
        instance = problems.make_basis_pursuit(100, 500, seed=seed, sparsity=20)
        config = SolverConfig(max_iterations=MAX_ITERATIONS,
                              gamma0=instance.metadata["a_norm"] ** 2,
                              feasibility_target=FEASIBILITY_TARGET)
    return instance, config.resolved(instance)


def gate_solve(workload, instance, state, trace):
    last = trace[-1]
    if workload == "game_entropy":
        if last.f_residual is None or not abs(last.f_residual) <= GAP_TARGET:
            raise GateError(f"f_residual {last.f_residual} misses {GAP_TARGET} "
                            f"after {last.k} iterations")
        if not instance.geometry.contains(state.x):
            raise GateError("final iterate is outside the product simplex")
    else:
        if not last.feasibility <= FEASIBILITY_TARGET:
            raise GateError(f"feasibility {last.feasibility} misses {FEASIBILITY_TARGET} "
                            f"after {last.k} iterations")
        if not abs(last.objective) < float("inf"):
            raise GateError(f"objective {last.objective} is not finite")


def trace_digest(trace):
    """SHA-256 over every trace field except wall_time_s."""
    h = hashlib.sha256()
    for r in trace:
        h.update(repr((r.k, r.objective, r.f_residual, r.feasibility, r.i_k, r.M_k,
                       r.alpha_k, r.beta_k, r.gamma_k, r.delta_k,
                       r.lyapunov)).encode())
    return h.hexdigest()


def solver_pass(workload, suite, tally):
    """Solve and gate each instance; a solve that misses its gate still counts."""
    from uapd import solver
    done = []

    def one(instance, config):
        t0 = time.perf_counter()
        state, trace = solver.solve(instance, config)
        seconds = time.perf_counter() - t0
        done.append((seconds, trace[-1].k, trace[-1].k + state.line_search_total,
                     trace_digest(trace)))
        gate_solve(workload, instance, state, trace)

    for seed, (instance, config) in suite:
        tally.run(f"{workload} seed {seed}", one, instance, config)
    h = hashlib.sha256()
    for *_, digest in done:
        h.update(digest.encode())
    return Pass(sum(d[0] for d in done), sum(d[1] for d in done),
                sum(d[2] for d in done), h.hexdigest())


def warm_up(workload, seed):
    """A short solve, so first-call costs stay out of the measured passes."""
    from uapd import solver
    instance, config = build(workload, seed)
    solver.solve(instance, dataclasses.replace(config, max_iterations=50))


def measure_solver(workload, seed, seconds, tally):
    seeds = suite_seeds(workload, seed)
    setups, suite = timed_setups(lambda: [(s, build(workload, s)) for s in seeds])
    warm_up(workload, seed)
    passes = repeat(seconds, lambda _: solver_pass(workload, suite, tally))
    return setups, passes, {"instance_seeds": seeds}


def traced_solver_pair(workload, seed, tally):
    """Untraced, then traced, pass over the suite's first instance."""
    from tracer import Tracer
    plain = solver_pass(workload, [(seed, build(workload, seed))], tally)
    tracer = Tracer()
    with instrumented(tracer) as (log, patches):
        instance, config = build(workload, seed)
        tracer.instrument_instance(patches, instance)
        traced = solver_pass(workload, [(seed, (instance, config))], tally)
    return TracedPair(plain, traced, tracer, log, (0, 0))


# ---------------------------------------------------------------------------
# configs_cli workload.

def seeded_configs(seed, run_dir):
    """Copy each config into ``run_dir``, with ``seed`` written into its instance."""
    run_dir.mkdir(parents=True)
    configs = {}
    for name in CLI_CONFIGS:
        cfg = json.loads((ROOT / "configs" / f"{name}.json").read_text(encoding="utf-8"))
        if seed is not None:
            cfg["instance"]["seed"] = seed
        path = run_dir / f"{name}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        configs[name] = (path, cfg)
    return configs


def setup_cli(configs):
    """Build and resolve each config's instance, as the CLI does before solving."""
    from uapd.problems import InstanceRecipe
    from uapd.solver import SolverConfig
    for _, cfg in configs.values():
        instance = InstanceRecipe.from_dict(cfg["instance"]).generate()
        SolverConfig(**cfg.get("solver", {})).resolved(instance)


def gate_cli(name, rc, cfg, out_dir):
    if rc != 0:
        raise GateError(f"uapd {CLI_CONFIGS[name]} {name}.json exited with {rc}")
    prefix = cfg.get("output", "run")
    for suffix, header in CLI_OUTPUTS[CLI_CONFIGS[name]].items():
        path = out_dir / f"{prefix}_{suffix}"
        if not path.is_file():
            raise GateError(f"{name}: missing output {path.name}")
        if header is not None:
            with open(path, encoding="utf-8") as fh:
                first = fh.readline().rstrip("\n")
            if first != header:
                raise GateError(f"{name}: {path.name} header {first!r} != {header!r}")


def read_csvs(out_root):
    """(digest, rows, bytes) of every CSV; the digest skips wall_time_s."""
    h = hashlib.sha256()
    rows = nbytes = 0
    for path in sorted(out_root.rglob("*.csv")):
        text = path.read_text(encoding="utf-8")
        nbytes += len(text.encode())
        lines = text.splitlines()
        if not lines:
            continue
        rows += len(lines) - 1
        header = lines[0].split(",")
        drop = header.index("wall_time_s") if "wall_time_s" in header else None
        h.update(path.name.encode())
        for line in lines:
            cells = line.split(",")
            if drop is not None:
                del cells[drop]
            h.update((",".join(cells) + "\n").encode())
    return h.hexdigest(), rows, nbytes


def cli_pass(configs, out_root, tally, tracer=None):
    """Every config through ``uapd.cli.main``; return (Pass, log, (rows, bytes))."""
    from uapd import cli
    times = []

    def one(name, path, cfg):
        out_dir = out_root / name
        t0 = time.perf_counter()
        rc = cli.main([CLI_CONFIGS[name], str(path), "--out", str(out_dir)])
        times.append(time.perf_counter() - t0)
        gate_cli(name, rc, cfg, out_dir)

    with instrumented(tracer) as (log, _):
        for name, (path, cfg) in configs.items():
            tally.run(f"configs_cli {name}", one, name, path, cfg)
    digest, rows, nbytes = read_csvs(out_root)
    shutil.rmtree(out_root, ignore_errors=True)
    return Pass(sum(times), log.iters, log.trials, digest), log, (rows, nbytes)


def measure_cli(seed, seconds, tally, work_dir):
    configs = seeded_configs(seed, work_dir / "configs")
    setups, _ = timed_setups(lambda: setup_cli(configs))
    passes = repeat(seconds, lambda i: cli_pass(configs, work_dir / f"pass{i}", tally)[0])
    return setups, passes, {"config_seed": seed}


def traced_cli_pair(seed, tally, pair_dir):
    """Untraced, then traced, pass over every config."""
    from tracer import Tracer
    configs = seeded_configs(seed, pair_dir / "configs")
    plain, _, _ = cli_pass(configs, pair_dir / "plain", tally)
    tracer = Tracer()
    traced, log, rows_bytes = cli_pass(configs, pair_dir / "traced", tally, tracer)
    return TracedPair(plain, traced, tracer, log, rows_bytes)


# ---------------------------------------------------------------------------
# Traced run.

def per_layer(tracers, logs, rows_bytes, overhead_s):
    """Layer figures per traced pass (totals over passes divided by their number)."""
    n = len(tracers)

    def mean(f):
        return sum(f(t) for t in tracers) / n

    def time_of(name):
        return mean(lambda t: t.time[name])

    def calls(name):
        return mean(lambda t: t.calls[name])

    iters = sum(log.iters for log in logs) / n
    rejected = sum(log.rejected for log in logs) / n

    def per_iter(x):
        return x / iters if iters else 0.0

    prox_calls, prox_s = calls("geometry.prox"), time_of("geometry.prox")
    return {
        "problems.h_calls_per_iter": per_iter(calls("problems.h")),
        "problems.h_s": time_of("problems.h"),
        "problems.objective_calls_per_iter": per_iter(calls("problems.objective")),
        "problems.feasibility_s": time_of("problems.feasibility"),
        "problems.matvecs_per_iter": per_iter(mean(lambda t: t.counts["problems.matvec"])),
        "problems.instance_build_s": time_of("problems.instance_build"),
        "geometry.prox_calls": prox_calls,
        "geometry.prox_s": prox_s,
        "geometry.prox_us_per_call": 1e6 * prox_s / prox_calls if prox_calls else 0.0,
        "geometry.divergence_calls": calls("geometry.divergence"),
        "geometry.grad_conj_calls": calls("geometry.grad_conj"),
        "solver.line_search_s": time_of("solver.line_search"),
        "solver.inner_step_self_s": mean(lambda t: t.self_time("solver.inner_step")),
        "solver.outer_update_s": time_of("solver.outer_update"),
        "solver.record_s": time_of("solver.record"),
        "solver.self_s": mean(lambda t: t.self_time("solver.solve")),
        "solver.rejected_trials": rejected,
        "solver.accept_ratio": iters / (iters + rejected) if iters else 0.0,
        "solver.final_M": max((m for log in logs for _, _, m in log.solves), default=0.0),
        "flow.steps": mean(lambda t: t.flow_steps),
        "flow.integrate_s": time_of("flow.integrate"),
        "flow.lyapunov_s": time_of("flow.lyapunov"),
        "flow.rhs_h_calls": mean(lambda t: t.nested_calls["flow.rhs", "problems.h"]),
        "analysis.envelope_calls": calls("analysis.envelope"),
        "analysis.envelope_s": time_of("analysis.envelope"),
        "analysis.fit_s": time_of("analysis.fit"),
        "cli.resolve_s": time_of("cli.resolve"),
        "cli.csv_s": time_of("cli.csv"),
        "cli.csv_rows": rows_bytes[0],
        "cli.csv_bytes": rows_bytes[1],
        "bench.trace_overhead_s": overhead_s,
    }


def measure_traced(workload, seed, seconds, tally, work_dir):
    """Alternate untraced and traced passes; return (metrics, digests agree)."""
    if workload == "configs_cli":
        pairs = repeat(seconds, lambda i: traced_cli_pair(seed, tally, work_dir / f"pair{i}"))
    else:
        warm_up(workload, seed)
        pairs = repeat(seconds, lambda _: traced_solver_pair(workload, seed, tally))
    for p in pairs:
        print(f"digest untraced {p.plain.digest} traced {p.traced.digest}")
    plain_s = statistics.median(p.plain.run_s for p in pairs)
    traced_s = statistics.median(p.traced.run_s for p in pairs)
    print(f"untraced run_s {plain_s!r} s, traced run_s {traced_s!r} s, "
          f"{len(pairs)} pairs")
    agree = len({d for p in pairs for d in (p.plain.digest, p.traced.digest)}) == 1
    metrics = per_layer([p.tracer for p in pairs], [p.log for p in pairs],
                        pairs[-1].csv_rows_bytes, traced_s - plain_s)
    return metrics, agree


# ---------------------------------------------------------------------------
# Reporting.

def git_commit():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def metadata(workload, seed):
    import numpy as np
    return {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEEDS[workload],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
    }


def end_to_end(setups, passes):
    """End-to-end metrics and whether every pass did the same work."""
    first = passes[0]
    same = all((p.iters, p.trials, p.digest) == first[1:] for p in passes)
    for digest in sorted({p.digest for p in passes}):
        print(f"digest {digest}")
    print(f"passes {len(passes)}, set-ups {len(setups)}")
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(p.run_s for p in passes),
        "iters": first.iters,
        "trials": first.trials,
        "us_per_iter": statistics.median(1e6 * p.run_s / p.iters if p.iters else 0.0
                                         for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, same


def run_workload(workload, seed, seconds, trace):
    _import_uapd()
    if workload == "configs_cli" and not (ROOT / "configs").is_dir():
        raise SystemExit(f"error: no configs directory under {ROOT}")
    units = declared_units("per_layer" if trace else "end_to_end")
    print("meta " + json.dumps(metadata(workload, seed)))

    tally = Tally()
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        if trace:
            metrics, correct = measure_traced(workload, seed, seconds, tally, work_dir)
        else:
            if workload == "configs_cli":
                setups, passes, info = measure_cli(seed, seconds, tally, work_dir)
            else:
                setups, passes, info = measure_solver(workload, seed, seconds, tally)
            print("suite " + json.dumps(info))
            metrics, correct = end_to_end(setups, passes)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:  # another run is still using it
            pass

    if set(metrics) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(units))} "
                         "are not declared in BENCHMARK.json, or not measured")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(f"fail_rate {tally.failed / tally.attempted!r} ratio "
          f"({tally.failed} of {tally.attempted})")
    print(json.dumps({
        "correct": bool(correct) and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(seconds, trace):
    """Every workload with its default seed, each in a fresh process."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description="uapd end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="instance seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time to keep repeating the measured pass "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = spec()["run_seconds"] if args.seconds is None else args.seconds
    if args.workload == "all":
        return run_all(seconds, args.trace)
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    return run_workload(args.workload, seed, seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
