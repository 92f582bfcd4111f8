"""The four workloads: their seeded inputs, operations and checks.

Every operation resolves the public function it calls at call time
(``getattr(module, name)``), so the tracer's wrappers see it, and passes
only the arguments a caller must give: no worker counts, no solver options.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"

# dt = 2^-11 is a binary fraction, so t = k dt accumulates without rounding
# and a run takes exactly the planned number of steps.
FLOW_DT = 2.0**-11
CHILD_TIMEOUT_S = 120.0
# The warm-up runs every operation kind through the same code on the same
# grid, but sweeps at most this resolution and flows at most this many
# steps: set-up is repeated three times per run and must stay short.
WARM_RESOLUTION = 8
WARM_STEPS = 10


@dataclass
class Op:
    """One timed call.  check(out) raises checks.CheckError on a wrong
    output and returns the CSV rows it read; items(out) counts the
    workload's unit of work in the output.  expect names the exception of
    a known fault in the program that makes this operation fail.  warm, if
    given, is the warm-up call: the same code path on the same grid with
    fewer time steps or points."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], int]
    items: Callable[[object], int]
    expect: str | None = None
    warm: Callable[[], object] | None = None


class Workload:
    """Ops plus the hooks run.py drives.  In-process workloads trace by
    patching this process; cli-cold traces inside its children."""

    def __init__(self, ops, in_process=True):
        self.ops = ops
        self.in_process = in_process
        self.trace_into = None  # Tracer absorbing child spans, cli-cold only
        self.child_rss_kb: list[int] = []


def _late(module, name, *args):
    return lambda: getattr(module, name)(*args)


def _jitter(rng, value, share):
    return float(value * (1.0 + share * rng.uniform(-1.0, 1.0)))


# ------------------------------------------------------------------ plane


PLANE_SETS = (
    # (name, alpha, beta, gamma, theta, m1_hi, m2_hi, resolution)
    # theta = -1, gamma > 0: rule 4 fires above the strip top m2 = 12 pi.
    ("conflict-rule4", 1.0, 2.0, 1.0, -1, 40.0, 60.0, 32),
    # theta = -1, gamma = 0: the strip has no top and rule 4 is an end point.
    ("conflict-gamma0", 1.0, 2.0, 0.0, -1, 40.0, 40.0, 60),
    # theta = +1, 2 beta < alpha: case (a), the critical mass alone decides.
    ("free-weak", 2.0, 0.5, 1.0, 1, 20.0, 40.0, 60),
    # theta = +1, gamma > 0: case (c), onset mass and interval condition.
    ("free-gamma", 1.0, 2.0, 1.0, 1, 40.0, 40.0, 60),
    # the writer at 10^4 rows
    ("conflict-gamma0-large", 1.0, 2.0, 0.0, -1, 40.0, 40.0, 100),
)


def sweep_config(alpha, beta, gamma, theta, m1_range, m2_range, resolution, grid_n=None):
    grid = "" if grid_n is None else f"grid_n = {grid_n}\n"
    return (
        f"[run]\ncommand = sweep\nalpha = {alpha!r}\nbeta = {beta!r}\ngamma = {gamma!r}\n"
        f"theta = {theta}\nm1 = 1.0\nm2 = 1.0\n{grid}[sweep]\n"
        f"m1_range = {m1_range[0]!r}, {m1_range[1]!r}\n"
        f"m2_range = {m2_range[0]!r}, {m2_range[1]!r}\nresolution = {resolution}\n"
    )


def plane(seed: int, smoke: bool, scratch: Path) -> Workload:
    from conflictlab import cli

    rng = np.random.default_rng([seed, 1])
    ops = []
    for name, a, b, g, th, hi1, hi2, res in PLANE_SETS:
        res = 8 if smoke else res
        m1_range = (0.0, _jitter(rng, hi1, 0.01))
        m2_range = (0.0, _jitter(rng, hi2, 0.01))
        text = sweep_config(a, b, g, th, m1_range, m2_range, res)
        warm_text = sweep_config(a, b, g, th, m1_range, m2_range, min(res, WARM_RESOLUTION))
        out = scratch / name

        def call(text=text, out=out):
            cfg = cli.parse_config(text)
            return cli.run(cfg, out)

        def check(_, out=out, params=(a, b, g, th), r1=m1_range, r2=m2_range, res=res):
            return checks.check_sweep(out, params, r1, r2, res)

        ops.append(Op(name, call, check, lambda _, res=res: res * res,
                      warm=lambda text=warm_text, out=out: call(text, out)))
    return Workload(ops)


# ----------------------------------------------------------------- steady


STEADY_SINGLE_MASSES = (5.0, 15.0, 24.0)  # 8 pi / alpha = 25.13 at alpha = 1
STEADY_PAIRS = (
    # (alpha, beta, gamma, theta, m1, m2)
    (1.0, 2.0, 1.0, -1, 10.0, 4.0),
    (1.0, 2.0, 1.0, 1, 10.0, 4.0),
    (1.0, 2.0, 0.0, -1, 20.0, 5.0),
    (1.0, 2.0, 1.0, 1, 20.0, 10.0),
    (1.0, 2.0, 1.0, -1, 22.0, 8.0),
)


def steady(seed: int, smoke: bool, scratch: Path) -> Workload:
    from conflictlab import liouville, model

    rng = np.random.default_rng([seed, 2])
    sizes = (64, 128, 256) if smoke else (1024, 4096, 16384)
    grids = {n: model.make_grid(n) for n in (*sizes, 1024, 8192)}
    ops = []

    def single(kind, m, n, expect=None):
        r = grids[n].r

        def check(sol):
            checks.check_single_bubble(r, sol.u1.values, m, 1.0)
            return 0

        return Op(kind, _late(liouville, "solve_single", m, 1.0, grids[n]), check, lambda _: 1, expect)

    def pair(kind, spec, n, expect=None):
        a, b, g, th, m1, m2 = spec
        p = model.Params(a, b, g, th, m1, m2)
        r = grids[n].r

        def check(sol):
            checks.check_steady_pair(r, sol.u1.values, sol.u2.values, (a, b, g, th), m1, m2)
            return 0

        return Op(kind, _late(liouville, "solve_pair", p, grids[n]), check, lambda _: 1, expect)

    for m0 in STEADY_SINGLE_MASSES:
        for n in sizes:
            ops.append(single(f"single-m{m0:g}-n{n}", _jitter(rng, m0, 0.01), n))
    # a 25th converging kind, so the median operation falls inside one kind
    ops.append(single("single-m20-n8192", _jitter(rng, 20.0, 0.01), 8192))
    for i, (a, b, g, th, m1, m2) in enumerate(STEADY_PAIRS):
        for n in sizes:
            spec = (a, b, g, th, _jitter(rng, m1, 0.01), _jitter(rng, m2, 0.01))
            ops.append(pair(f"pair{i}-n{n}", spec, n))
    # Two operations that fail on every run because of faults in the solver,
    # on inputs that do not depend on the seed (see CHANGES.md, FOUND lines).
    ops.append(single("fault-single-m25-n8192", 25.0, 8192, expect="Oscillation"))
    ops.append(pair("fault-pair-m24-0-n1024", (1.0, 2.0, 1.0, -1, 24.0, 0.0), 1024, expect="Oscillation"))
    return Workload(ops)


# ------------------------------------------------------------------- flow


FLOW_CASES = {
    # name: (regime, limits, alpha, beta, gamma, theta).  All but
    # pair-conflict are gradient flows of their monitored energy, so
    # run_flow enforces monotone energy there.
    "single": ("single", (1.0, 0.0, 0.0), 1.0, 2.0, 1.0, -1),
    "pair": ("pair", (1.0, 1.0, 0.0), 1.0, 0.5, 1.0, 1),
    "pair-conflict": ("pair", (1.0, 1.0, 0.0), 1.0, 0.5, 1.0, -1),
    "potentials": ("potentials", (0.0, 0.0, 1.0), 1.0, 0.5, 1.0, -1),
}
# (grid cells, steps per case): long runs on a coarse grid, where per-step
# bookkeeping dominates, and short runs on a fine grid, where the banded
# solves and Green sums dominate.  Four fine and three coarse kinds put the
# median operation inside the fine group and the tail inside the coarse one,
# not on the edge between them.
FLOW_RUNS = (
    ("coarse", 32, {"single": 1000, "pair": 1500, "potentials": 2000}),
    ("fine", 4096, {"single": 20, "pair": 40, "pair-conflict": 40, "potentials": 60}),
)


def flow(seed: int, smoke: bool, scratch: Path) -> Workload:
    from conflictlab import calculus, flow as flowmod, model

    rng = np.random.default_rng([seed, 3])
    ops = []
    for label, n, steps_by_case in FLOW_RUNS:
        grid = model.make_grid(64 if smoke else n)
        r = grid.r
        for case, full_steps in steps_by_case.items():
            regime, limits, a, b, g, th = FLOW_CASES[case]
            steps = 10 if smoke else full_steps
            m1, m2 = _jitter(rng, 10.0, 0.02), _jitter(rng, 4.0, 0.02)
            p = model.Params(a, b, g, th, m1, m2)
            cfg = model.FlowConfig(*limits, dt=FLOW_DT, t_end=steps * FLOW_DT, adapt=False)
            width, amp, k = rng.uniform(1.5, 2.5), rng.uniform(-0.3, 0.3), int(rng.integers(1, 3))
            shape1 = np.exp(-width * r * r) * (1.0 + amp * np.cos(math.pi * k * r))
            shape2 = np.exp(-rng.uniform(0.5, 1.5) * r * r)
            rho1 = model.project_density(model.RadialField.density(grid, shape1), m1)
            rho2 = model.project_density(model.RadialField.density(grid, shape2), m2)
            if regime == "single":
                fields = {"rho1": rho1}
            elif regime == "pair":
                fields = {"rho1": rho1, "rho2": rho2}
            else:
                fields = {"u1": calculus.inv_laplacian(rho1), "u2": calculus.inv_laplacian(rho2)}
            start = flowmod.initial_state(p, cfg, **fields)
            warm_cfg = model.FlowConfig(*limits, dt=FLOW_DT, t_end=min(steps, WARM_STEPS) * FLOW_DT,
                                        adapt=False)

            def check(s, regime=regime, params=(a, b, g, th), m1=m1, m2=m2, steps=steps, r=r):
                checks.check_flow(
                    regime, params, m1, m2, FLOW_DT, steps,
                    s.energy_trace[:, 0], s.mass_trace[:, 1], s.mass_trace[:, 2],
                    s.energy_trace[:, 1], s.sup_trace[:, 1], r, s.rho1.values,
                    s.u1.values, s.u2.values, None if s.rho2 is None else s.rho2.values,
                )
                return 0

            ops.append(Op(f"{label}-{case}", _late(flowmod, "run_flow", start, p, cfg), check,
                          lambda s: s.energy_trace.shape[0] - 1,
                          warm=_late(flowmod, "run_flow", start, p, warm_cfg)))
    return Workload(ops)


# --------------------------------------------------------------- cli-cold


def run_config(command, alpha, beta, gamma, theta, m1, m2, grid_n, section=""):
    return (
        f"[run]\ncommand = {command}\nalpha = {alpha!r}\nbeta = {beta!r}\ngamma = {gamma!r}\n"
        f"theta = {theta}\nm1 = {m1!r}\nm2 = {m2!r}\ngrid_n = {grid_n}\n{section}"
    )


def _spawn(argv, env, stderr_path):
    """Run a child to completion; (exit code, its peak RSS in KiB)."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def cli_cold(seed: int, smoke: bool, scratch: Path) -> Workload:
    rng = np.random.default_rng([seed, 4])
    j = lambda v: _jitter(rng, v, 0.01)  # noqa: E731
    conflict = (1.0, 2.0, 1.0, -1)
    m1, m2 = j(30.0), j(4.0)
    steady_m = (j(10.0), j(4.0))
    flow_m = (j(10.0), j(4.0))
    sweep_ranges = ((0.0, j(40.0)), (0.0, j(60.0)))
    scales = (0.1, 0.03, 0.01)
    psis = tuple(float(2**k) for k in range(1, 11))
    flow_steps = 10 if smoke else 50
    configs = {
        "classify": (run_config("classify", *conflict, m1, m2, 256),
                     lambda out: checks.check_classify(out, conflict, m1, m2)),
        "sweep": (sweep_config(*conflict, *sweep_ranges, 8 if smoke else 24, grid_n=256),
                  lambda out: checks.check_sweep(out, conflict, *sweep_ranges, 8 if smoke else 24)),
        "steady": (run_config("steady", *conflict, *steady_m, 256 if smoke else 1024),
                   lambda out: checks.check_steady_csv(out, conflict, *steady_m, 256 if smoke else 1024)),
        "flow": (run_config("flow", *conflict, *flow_m, 32,
                             f"[flow]\ncase = single\ndt = {2 * FLOW_DT!r}\nt_end = {flow_steps * 2 * FLOW_DT!r}\n"
                             "adapt = false\ninit = random\n"),
                 lambda out: checks.check_flow_csvs(out, "single", conflict, *flow_m, 2 * FLOW_DT, flow_steps)),
        "blowdown": (run_config("blowdown", *conflict, m1, m2, 256),
                     lambda out: checks.check_blowdown(out, conflict, m1, m2, psis)),
        "oracle": (run_config("oracle", *conflict, m1, m2, 1024,
                               "[oracle]\nscales = " + ", ".join(map(repr, scales)) + "\n"),
                   lambda out: checks.check_oracle(out, m2, scales)),
        "functional": (run_config("functional", *conflict, m1, m2, 256),
                       lambda out: checks.check_functional(out, conflict, m1, m2, psis)),
    }
    env = dict(os.environ, PYTHONPATH=str(SRC))
    work = Workload([], in_process=False)
    for command, (text, check) in configs.items():
        cfg_path = scratch / f"{command}.cfg"
        cfg_path.write_text(text, encoding="utf-8")
        out = scratch / command
        cli_args = ["--config", str(cfg_path), "--out", str(out), "--seed", str(seed)]

        def call(command=command, cli_args=cli_args, out=out):
            stderr_path = scratch / f"{command}.stderr"
            if work.trace_into is None:
                argv = [sys.executable, "-m", "conflictlab.cli", *cli_args]
                code, rss = _spawn(argv, env, stderr_path)
            else:
                spans = scratch / f"{command}.spans.npz"
                argv = [sys.executable, str(LAUNCHER), str(spans), "--", *cli_args]
                code, rss = _spawn(argv, env, stderr_path)
                if spans.exists():
                    work.trace_into.absorb(spans)
                    spans.unlink()
            if code != 0:
                tail = stderr_path.read_text(errors="replace").strip().splitlines()[-1:]
                raise RuntimeError(f"{command} exited with {code}: {' '.join(tail)}")
            work.child_rss_kb.append(rss)
            return out

        work.ops.append(Op(command, call, check, lambda _: 1))
    return work


def warm_cold_start() -> None:
    """One child importing conflictlab.cli: fills the bytecode and page
    caches that every cold start of the CLI reads."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import conflictlab.cli"], env=env, cwd=ROOT,
                   check=True, timeout=CHILD_TIMEOUT_S)


WORKLOADS = {"cli-cold": cli_cold, "plane": plane, "steady": steady, "flow": flow}
