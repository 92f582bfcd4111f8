"""Configuration-driven command line front end.

One run equals one configuration file: a [run] section with the model
parameters and a command name, plus an optional section named after the
command for its options.  Each command writes CSV tables with
'#'-prefixed header comments carrying the resolved configuration, so a
regression baseline can be reproduced from any output file.  Floats are
written with 17 significant digits and rows in grid order, so repeated
runs of one configuration write the same bytes.

Commands come from one table, _COMMANDS: each command's row maps the
option keys its section accepts to their parsers, in parse and header
order, and names its handler.  A handler returns its tables by file name,
and run writes them under the one header of the resolved configuration.
A handler imports the modules it calls when it runs, so a command loads
only its own part of the package.

Exit codes: 0 success, 2 iterative solver failure, 3 a configuration that
cannot be read or is invalid (inadmissible parameters included, as ``steady``
with alpha m1 >= 8 pi + 2 beta m2, a blow-down ladder out of order, or a
grid or sweep too large to allocate) or outputs that cannot be written.
main writes the one line that names a failure; nothing else in the package
writes to stderr.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .model import (
    DEFAULT_LADDER,
    FLOW_LIMITS,
    Params,
    RadialField,
    make_grid,
    project_density,
)

__all__ = ["RunConfig", "main", "parse_config", "run"]

_CHOICES = {"case": FLOW_LIMITS, "init": ("bump", "random")}


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved run: command, model parameters, and options."""

    command: str
    params: Params
    grid_n: int = 4096
    m1_range: tuple = (0.0, 40.0)
    m2_range: tuple = (0.0, 40.0)
    resolution: int = 200
    psis: tuple = DEFAULT_LADDER
    scales: tuple = (1e-4, 1e-6, 1e-8)
    case: str = "single"
    dt: float = 1e-3
    t_end: float = 0.5
    adapt: bool = True
    init: str = "bump"


def _converter(convert, expected):
    """A parser of a section's key by convert, refusing a raw value it cannot read."""

    def parse(section, key):
        raw = section[key]
        try:
            return convert(raw)
        except ValueError:
            raise ValueError(f"{key} = {raw!r} is not {expected}") from None

    return parse


_float = _converter(float, "a number")
_int = _converter(int, "an integer")
_floats = _converter(lambda raw: tuple(float(tok) for tok in raw.split(",")),
                     "a comma-separated list")


def _pair(section, key):
    vals = _floats(section, key)
    if len(vals) != 2:
        raise ValueError(f"{key} = {section[key]!r} must be two numbers")
    return vals


def _bool(section, key):
    raw = section[key].strip().lower()
    if raw in ("true", "yes", "on", "1"):
        return True
    if raw in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"{key} = {section[key]!r} is not a boolean")


def _choice(section, key):
    raw = section[key].strip()
    if raw not in _CHOICES[key]:
        raise ValueError(f"{key} = {raw!r}; expected one of {sorted(_CHOICES[key])}")
    return raw


# The [run] model values, in parse and header order: they make Params, and
# so are checked, before grid_n is parsed.
_PARSERS = {
    "alpha": _float,
    "beta": _float,
    "gamma": _float,
    "theta": _int,
    "m1": _float,
    "m2": _float,
}
_RUN_KEYS = frozenset({"command", *_PARSERS, "grid_n"})


def _parsed(section, parsers) -> dict:
    """The values of the parsers' keys present in the section, in their order."""
    return {key: parse(section, key) for key, parse in parsers.items() if key in section}


def parse_config(text: str) -> RunConfig:
    """Strict parse of the sectioned key=value configuration format."""
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValueError(str(exc)) from exc
    if not cp.has_section("run"):
        raise ValueError("missing [run] section")
    run_sec = cp["run"]
    stray = set(run_sec) - _RUN_KEYS
    if stray:
        raise ValueError(f"unknown [run] keys: {sorted(stray)}")
    if "command" not in run_sec:
        raise ValueError("[run] needs a command")
    command = run_sec["command"].strip()
    if command not in _COMMANDS:
        raise ValueError(
            f"unknown command {command!r}; expected one of {sorted(_COMMANDS)}"
        )
    extra = set(cp.sections()) - {"run", command}
    if extra:
        raise ValueError(f"unknown sections: {sorted(extra)}")
    missing = [k for k in _PARSERS if k not in run_sec]
    if missing:
        raise ValueError(f"[run] is missing {missing}")
    params = Params(**_parsed(run_sec, _PARSERS))
    kwargs = _parsed(run_sec, {"grid_n": _int})
    if cp.has_section(command):
        sec = cp[command]
        parsers = _COMMANDS[command][0]
        stray = set(sec) - set(parsers)
        if stray:
            raise ValueError(f"unknown [{command}] keys: {sorted(stray)}")
        kwargs.update(_parsed(sec, parsers))
    return RunConfig(command=command, params=params, **kwargs)


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _header_lines(cfg: RunConfig, seed: int) -> list:
    """The resolved configuration: the [run] values, the seed and every
    option of the command, defaults included."""
    items = [
        ("command", cfg.command),
        *((key, getattr(cfg.params, key)) for key in _PARSERS),
        ("grid_n", cfg.grid_n),
        ("seed", seed),
        *((key, getattr(cfg, key)) for key in _COMMANDS[cfg.command][0]),
    ]
    lines = [f"conflictlab {__version__}"]
    for key, value in items:
        shown = ", ".join(map(_fmt, value)) if isinstance(value, tuple) else _fmt(value)
        lines.append(f"{key} = {shown}")
    return lines


def _table_lines(rows):
    """The CSV lines of a table's rows, each cell as _fmt writes it: one
    %-format for the table, %.17g for a column of floats and %s for a
    column of other values; the cells of a column mixing the two go
    through _fmt one by one."""
    cols = list(zip(*rows))
    fmts = []
    for i, col in enumerate(cols):
        floats = {issubclass(t, (float, np.floating)) for t in set(map(type, col))}
        if floats == {True, False}:
            cols[i] = list(map(_fmt, col))
        fmts.append("%.17g" if floats == {True} else "%s")
    fmt = ",".join(fmts) + "\n"
    return [fmt % row for row in zip(*cols)]


def _write_csv(path: Path, header, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        fh.writelines(_table_lines(rows))


def _density(grid, shape, m):
    """The density of the given shape with mass m; zero at m = 0."""
    if m == 0.0:
        return RadialField.density(grid, np.zeros(grid.r.size))
    return project_density(RadialField.density(grid, shape), m)


def _base_fields(grid, p: Params):
    from .calculus import inv_laplacian

    rho = _density(grid, 2.0 - grid.r**2, p.m1)
    return rho, inv_laplacian(_density(grid, np.exp(-3.0 * grid.r**2), p.m2))


def _cmd_classify(cfg: RunConfig, seed: int) -> dict:
    from .phase import classify

    p = cfg.params
    verdict = classify(p)
    columns = ["m1", "m2", "verdict", "rule"] + [name for name, _ in verdict.fired]
    row = [p.m1, p.m2, verdict.verdict, verdict.rule]
    row += [value for _, value in verdict.fired]
    return {"classify.csv": ([], columns, [row])}


def _cmd_sweep(cfg: RunConfig, seed: int) -> dict:
    from .phase import sweep

    res = sweep(cfg.params, cfg.m1_range, cfg.m2_range, cfg.resolution)
    mm1, mm2 = np.meshgrid(res.m1s, res.m2s, indexing="ij")
    cells = (mm1, mm2, res.verdicts, *res.lambdas, res.rules)
    rows = zip(*(c.ravel().tolist() for c in cells))
    curve_rows = [(name, m1, m2) for name in sorted(res.curves) for m1, m2 in res.curves[name]]
    columns = ["m1", "m2", "verdict", "lambda", "lambda1", "lambda2", "rule_fired"]
    return {
        "sweep.csv": ([], columns, rows),
        "sweep_curves.csv": ([], ["curve", "m1", "m2"], curve_rows),
    }


def _cmd_steady(cfg: RunConfig, seed: int) -> dict:
    from .liouville import _densities, residual, solve_pair

    p = cfg.params
    grid = make_grid(cfg.grid_n)
    sol = solve_pair(p, grid)
    res1, res2 = residual(sol, p)
    rho1, rho2 = _densities(grid, p, sol.u1.values, sol.u2.values)[0]
    columns = ["r", "u1", "u2", "rho1", "rho2", "residual1", "residual2"]
    rows = [[*row, res1, res2] for row in zip(grid.r, sol.u1.values, sol.u2.values, rho1, rho2)]
    return {"steady.csv": ([f"iterations = {sol.iterations}"], columns, rows)}


def _cmd_flow(cfg: RunConfig, seed: int) -> dict:
    from .calculus import inv_laplacian
    from .flow import _REGIMES, FlowConfig, initial_state, run_flow, trace_rows

    p = cfg.params
    grid = make_grid(cfg.grid_n)
    limits = FLOW_LIMITS[cfg.case]
    fcfg = FlowConfig(*limits, dt=cfg.dt, t_end=cfg.t_end, adapt=cfg.adapt)
    if cfg.init == "random":
        rng = np.random.default_rng(seed)
        width = rng.uniform(0.5, 3.0)
        amp = rng.uniform(-0.4, 0.4)
        k = int(rng.integers(1, 4))
        shape = np.exp(-width * grid.r**2) * (1.0 + amp * np.cos(math.pi * k * grid.r))
    else:
        shape = np.exp(-2.0 * grid.r**2)
    _, kind, keys, _, _ = _REGIMES[limits]
    rhos = (_density(grid, shape, p.m1), _density(grid, np.exp(-grid.r**2), p.m2))
    fields = map(inv_laplacian, rhos) if kind == "potential" else rhos
    state = initial_state(p, fcfg, **dict(zip(keys, fields)))
    end = run_flow(state, p, fcfg)
    series = (grid.r, end.rho1.values, end.u1.values, end.u2.values, end.rho2.values)
    return {
        "flow_trace.csv": ([], ["t", "mass1", "mass2", "energy", "sup_rho1"], trace_rows(end)),
        "flow_state.csv": ([], ["r", "rho1", "u1", "u2", "rho2"], zip(*series)),
    }


def _cmd_blowdown(cfg: RunConfig, seed: int) -> dict:
    from .blowdown import BlowdownFamily, _fitted_slope, _shift_table

    p = cfg.params
    grid = make_grid(cfg.grid_n, kind="graded")
    fam = BlowdownFamily(*_base_fields(grid, p), psis=cfg.psis)
    shifts, fit = _shift_table(fam, p)
    header = [f"slope = {_fmt(_fitted_slope(fit))}"]
    rows = [(r.psi, r.term, r.predicted, r.measured) for r in shifts]
    return {"blowdown.csv": (header, ["psi", "term", "predicted", "measured"], rows)}


def _cmd_oracle(cfg: RunConfig, seed: int) -> dict:
    from .annulus_ode import AnnulusParams, asymptotic_ratio

    p = cfg.params
    half = p.m2 / (2.0 * math.pi)
    limit = half * half
    if not math.isfinite(limit):
        raise ValueError(f"m2 = {p.m2!r} overflows the oracle's limit (m2/2pi)^2")
    rows = []
    for psi in cfg.scales:
        lp = AnnulusParams(gamma=p.gamma, beta_m=p.beta * p.m1, m2=p.m2, psi=psi)
        ratio = asymptotic_ratio(lp, n=cfg.grid_n)
        rows.append((psi, ratio, limit, abs(ratio - limit) / limit))
    return {"oracle.csv": ([], ["psi", "ratio", "limit", "rel_err"], rows)}


def _cmd_functional(cfg: RunConfig, seed: int) -> dict:
    from .blowdown import BlowdownFamily, _ladder
    from .functionals import moser_trudinger

    p = cfg.params
    grid = make_grid(cfg.grid_n, kind="graded")
    fam = BlowdownFamily(*_base_fields(grid, p), psis=cfg.psis)
    rows = [
        (psi, rep.entropy1, rep.interaction, rep.dirichlet, rep.log_terms,
         rep.total, moser_trudinger(u_s, p.m1, p.alpha))
        for psi, u_s, _, rep in _ladder(fam.base_rho, fam.base_w, p, fam.psis)
    ]
    columns = ["psi", "entropy", "interaction", "dirichlet", "log_terms", "total",
               "moser_trudinger"]
    return {"functional.csv": ([], columns, rows)}


# Each command's option keys with their parsers, in parse and header order,
# and its handler, which returns its tables by file name: the header lines
# it adds, the columns and the rows.
_COMMANDS = {
    "classify": ({}, _cmd_classify),
    "steady": ({}, _cmd_steady),
    "sweep": ({"m1_range": _pair, "m2_range": _pair, "resolution": _int}, _cmd_sweep),
    "flow": (
        {"case": _choice, "dt": _float, "t_end": _float, "adapt": _bool, "init": _choice},
        _cmd_flow,
    ),
    "blowdown": ({"psis": _floats}, _cmd_blowdown),
    "functional": ({"psis": _floats}, _cmd_functional),
    "oracle": ({"scales": _floats}, _cmd_oracle),
}


def run(cfg: RunConfig, out_dir=".", seed=0) -> int:
    """Dispatch a parsed configuration and write its tables under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = _header_lines(cfg, seed)
    for name, (extra, columns, rows) in _COMMANDS[cfg.command][1](cfg, seed).items():
        _write_csv(out / name, header + extra, columns, rows)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="conflictlab",
        description="Steady states, free-energy flows, and phase diagrams "
        "for a two-species chemotaxis model on the unit disk.",
    )
    parser.add_argument("--config", required=True, help="configuration file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized initial data")
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 3
    try:
        return run(parse_config(text), out_dir=args.out, seed=args.seed)
    except (ValueError, MemoryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
