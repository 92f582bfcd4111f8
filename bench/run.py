"""Benchmark of conflictlab: four workloads behind one command.

    python3 bench/run.py --workload {cli-cold,plane,steady,flow} \
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout; the program is imported from ./src.  A run
builds its inputs from --seed, warms up, then times a fixed number of
rounds.  Each round runs every operation kind of the workload once, in a
seeded shuffled order.  Outputs are checked after each round, outside the
timed region, against computations made apart from the program
(checks.py).  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 rounds alternate between traced
and untraced and the metrics are the per-layer ones, with the tracing
overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path


def _process_age_at_start() -> float:
    """Seconds between this process's exec and now, to the 10 ms the
    kernel's tick counters give; 0 where /proc is unavailable."""
    try:
        stat = Path("/proc/self/stat").read_text()
        start_ticks = int(stat.rsplit(")", 1)[1].split()[19])
        uptime = float(Path("/proc/uptime").read_text().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


_AGE0, _T0 = _process_age_at_start(), time.perf_counter()

# One BLAS thread, set before numpy loads and inherited by every child: with
# the sweep pool's os.cpu_count() workers the process then runs at most nproc
# threads, and no BLAS worker spins on the second core between calls.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402
from tracing import SpanTable, Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
RESULTS = BENCH / "results"

# Seconds one round of each workload took at the commit that defined the
# benchmark (2-core host, Python 3.11.7).  A run does round(seconds / this)
# rounds, so the work of a run is fixed by --seconds alone and is the same
# for every commit compared.
NOMINAL_ROUND_S = {"cli-cold": 7.8, "plane": 2.0, "steady": 0.4, "flow": 2.14}
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
TAIL_MIN_SAMPLES = 40
CLI_COMMANDS = ("classify", "sweep", "steady", "flow", "blowdown", "oracle", "functional")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def process_age() -> float:
    return _AGE0 + (time.perf_counter() - _T0)


def ref_loop() -> float:
    """A fixed pure-Python loop; its time shows how fast the host ran."""
    t = time.perf_counter()
    s = 0
    for i in range(200_000):
        s += i * i
    return time.perf_counter() - t


@dataclass
class Outcome:
    op: workloads.Op
    seconds: float
    out: object
    error: BaseException | None
    items: int = 0


def execute(op) -> Outcome:
    t = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # an operation's failure is counted, not fatal
        return Outcome(op, time.perf_counter() - t, None, exc)
    return Outcome(op, time.perf_counter() - t, out, None)


def verify(outcomes, problems: list) -> int:
    """Check every output and count its items, then drop it; record
    unexpected failures.  Returns the CSV rows read."""
    rows = 0
    for o in outcomes:
        if o.error is not None:
            if type(o.error).__name__ != o.op.expect:
                problems.append(f"{o.op.kind}: {type(o.error).__name__}: {o.error}")
            continue
        try:
            rows += o.op.check(o.out)
        except Exception as exc:  # a malformed output fails its check too
            problems.append(f"{o.op.kind}: {type(exc).__name__}: {exc}")
        o.items = o.op.items(o.out)
        o.out = None
    return rows


def import_times(repeats: int) -> dict:
    """Median cumulative import seconds of conflictlab modules in fresh
    interpreters importing conflictlab.cli, from -X importtime."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples: dict[str, list[float]] = {}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import conflictlab.cli"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(\S+)", line)
            if m and m.group(2).startswith("conflictlab"):
                samples.setdefault(m.group(2), []).append(int(m.group(1)) * 1e-6)
    return {k: statistics.median(v) for k, v in samples.items()}


def repeat_setups(args, count: int) -> list[float]:
    """Set-up times of fresh processes doing this run's set-up alone."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
             "--setup-only"] + (["--smoke"] if args.smoke else []),
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up repeat failed: {proc.stderr.strip()[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def end_to_end(per_round, walls, setups, work) -> dict:
    """Round-level figures are medians over rounds, so a burst of load on
    the host during one round moves them little."""
    timed = [o for outcomes in per_round for o in outcomes]
    ok = sorted(o.seconds for o in timed if o.error is None)
    p50 = statistics.median(ok)
    # the highest percentile with at least ten samples beyond it
    tail = ok[len(ok) - 11] if len(ok) >= TAIL_MIN_SAMPLES else p50
    rates = [sum(o.items for o in r) / sum(o.seconds for o in r) for r in per_round]
    if work.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(work.child_rss_kb)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_s": p50,
        "op_tail_s": tail,
        "items_per_s": statistics.median(rates),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(tracer, rounds, walls_traced, walls_plain, loops, imports) -> dict:
    t = SpanTable(tracer)
    c = tracer.counters
    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    put("import.cli_s", imports.get("conflictlab.cli", 0.0), "s")
    put("import.annulus_ode_s", imports.get("conflictlab.annulus_ode", 0.0), "s")
    put("import.flow_s", imports.get("conflictlab.flow", 0.0), "s")
    put("cli.parse_s", t.mean("cli.parse_config"), "s")
    for command in CLI_COMMANDS:
        put(f"cli.run_s.{command}", t.mean(f"cli.run.{command}"), "s")
    put("cli.write_s", t.mean_self(*t.prefixed("cli.run.")), "s")
    put("cli.rows_written", c["cli.rows_written"] / rounds, "count")
    put("phase.sweep_s", t.mean("phase.sweep"), "s")
    classify = ("phase.classify_conflict", "phase.classify_conflict_free")
    put("phase.classify_calls", t.count(*classify) / rounds, "count")
    put("phase.classify_us", 1e6 * t.mean(*classify), "us")
    solves = ("liouville.solve_single", "liouville.solve_pair")
    put("liouville.solve_single_s", t.mean("liouville.solve_single"), "s")
    put("liouville.solve_pair_s", t.mean("liouville.solve_pair"), "s")
    iterations = c["liouville.iterations"]
    put("liouville.iterations", iterations / rounds, "count")
    put("liouville.iter_us", 1e6 * t.seconds_ok(*solves) / iterations if iterations else 0.0, "us")
    put("liouville.failed", t.errors_of(*solves) / rounds, "count")
    put("liouville.minimize_w_s", t.mean("liouville.minimize_w"), "s")
    put("liouville.minimize_w_calls", t.count("liouville.minimize_w") / rounds, "count")
    inv = "calculus.inv_laplacian"
    calls = t.count(inv)
    put("calculus.inv_laplacian_calls", calls / rounds, "count")
    put("calculus.inv_laplacian_s", t.mean(inv), "s")
    # computed, not measured: reads rho, V and ln-ratios, writes u and the
    # face masses, 8 bytes each, at the mean n of the calls
    mean_n = c["calculus.inv_laplacian_cells"] / calls if calls else 0.0
    put("calculus.inv_laplacian_bytes", 8.0 * (5.0 * mean_n + 3.0) if calls else 0.0, "B_computed")
    put("calculus.green_pairing_s", t.mean("calculus.green_pairing"), "s")
    put("calculus.log_partition_s", t.mean("calculus.log_partition"), "s")
    steps = {
        "single": "flow.step_single_density",
        "pair": "flow.step_two_densities",
        "potentials": "flow.step_potentials",
    }
    for regime, name in steps.items():
        put(f"flow.step_us.{regime}", 1e6 * t.mean(name), "us")
    put("flow.steps", (t.count(*steps.values()) - t.errors_of(*steps.values())) / rounds, "count")
    put("flow.step_growth", t.step_growth(), "ratio")
    energies = t.prefixed("functionals.")
    put("functionals.energy_s", t.mean(*energies), "s")
    put("functionals.energy_calls", t.count(*energies) / rounds, "count")
    put("model.validate_calls", c["model.validate_params"] / rounds, "count")
    put("model.field_constructions", c["model.RadialField"] / rounds, "count")
    put("blowdown.verify_s", t.mean("blowdown.verify_identities"), "s")
    put("blowdown.slope_s", t.mean("blowdown.slope_estimate"), "s")
    put("annulus_ode.asymptotic_ratio_s", t.mean("annulus_ode.asymptotic_ratio"), "s")
    put("host.ref_loop_s", statistics.median(loops), "s")
    overhead = statistics.median(walls_traced) / statistics.median(walls_plain) - 1.0
    put("trace.overhead_pct", 100.0 * overhead, "%")
    return m


def measure(args, scratch: Path) -> int:
    work = workloads.WORKLOADS[args.workload](args.seed, args.smoke, scratch)
    if work.in_process:
        for op in work.ops:
            try:
                (op.warm or op.call)()
            except Exception:  # a failure recurs, and is counted, in the timed rounds
                pass
    else:
        workloads.warm_cold_start()
    setup_s = process_age()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    problems: list[str] = []
    if args.smoke:
        rounds = 1
    else:
        rounds = max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        rounds = max(2, rounds)
    order_rng = random.Random(args.seed)
    per_round, walls, walls_traced, walls_plain, loops = [], [], [], [], []
    traced_rounds = 0
    for k in range(rounds):
        traced = tracer is not None and k % 2 == 0
        order = list(work.ops)
        order_rng.shuffle(order)
        gc.collect()
        if traced and work.in_process:
            tracer.install()
        work.trace_into = tracer if traced else None
        t0 = time.perf_counter()
        outcomes = [execute(op) for op in order]
        wall = time.perf_counter() - t0
        work.trace_into = None
        if traced and work.in_process:
            tracer.uninstall()
        per_round.append(outcomes)
        walls.append(wall)
        print(f"round {k + 1}/{rounds}{' traced' if traced else ''}: {wall:.4f} s", file=sys.stderr)
        rows = verify(outcomes, problems)
        if tracer is not None:
            (walls_traced if traced else walls_plain).append(wall)
            traced_rounds += traced
            if traced:
                tracer.counters["cli.rows_written"] += rows
            loops.append(ref_loop())

    timed = [o for outcomes in per_round for o in outcomes]
    failed = sum(o.error is not None for o in timed)
    if len(timed) == failed:
        problems.append("every operation failed")
    if tracer is None:
        setups = [setup_s]
        if not args.smoke:
            setups += repeat_setups(args, SETUP_REPEATS - 1)
        metrics = end_to_end(per_round, walls, setups, work) if len(timed) > failed else {}
    else:
        imports = import_times(1 if args.smoke else IMPORTTIME_REPEATS)
        metrics = per_layer(tracer, traced_rounds, walls_traced, walls_plain, loops, imports)
        RESULTS.mkdir(exist_ok=True)
        tracer.save(RESULTS / f"spans-{args.workload}-seed{args.seed}.npz")

    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(timed),
        "failed": failed,
        "metrics": metrics,
    }
    for name, m in metrics.items():
        print(f"{args.workload:>9} {name:<34} {m['value']:.6g} {m['unit']}")
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    (RESULTS / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one round")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "conflictlab" / "__init__.py").is_file():
        print(f"no conflictlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    scratch = OUT / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        return measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
