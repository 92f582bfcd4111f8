"""Configuration-driven command line front end.

One run equals one configuration file: a [run] section with the model
parameters and a command name, plus an optional section named after the
command for its options.  Each command writes CSV tables with
'#'-prefixed header comments carrying the resolved configuration, so a
regression baseline can be reproduced from any output file.  Floats are
written with 17 significant digits and rows in grid order, so repeated
runs of one configuration write the same bytes.

Options and headers come from one table: each command's tuple of option
keys gives the keys its section accepts, the order they are parsed in and
the order of its header lines, and one map gives each key's parser.

Exit codes: 0 success, 2 iterative solver failure, 3 configuration or
validation error (including mathematically inadmissible parameters that
the solvers reject up front).
"""

from __future__ import annotations

import argparse
import configparser
import logging
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .annulus_ode import AnnulusParams, asymptotic_ratio
from .blowdown import (
    DEFAULT_LADDER,
    BlowdownFamily,
    _ladder,
    slope_estimate,
    verify_identities,
)
from .calculus import inv_laplacian
from .errors import ParseError, UnknownKey
from .functionals import moser_trudinger
from .liouville import _exponents, residual, solve_pair
from .model import Params, RadialField, make_grid, project_density, validate_params
from .phase import classify_conflict, classify_conflict_free, sweep

__all__ = ["RunConfig", "main", "parse_config", "run"]

logger = logging.getLogger(__name__)

# The options of each command's section, in parse and header order.
_COMMAND_KEYS = {
    "classify": (),
    "steady": (),
    "sweep": ("m1_range", "m2_range", "resolution"),
    "flow": ("case", "dt", "t_end", "adapt", "init"),
    "blowdown": ("psis", "mode"),
    "functional": ("psis", "mode"),
    "oracle": ("scales",),
}
_PARAM_KEYS = ("alpha", "beta", "gamma", "theta", "m1", "m2")
_RUN_KEYS = frozenset({"command", *_PARAM_KEYS, "grid_n"})
_FLOW_LIMITS = {
    "single": (1.0, 0.0, 0.0),
    "pair": (1.0, 1.0, 0.0),
    "potentials": (0.0, 0.0, 1.0),
}
_CHOICES = {"case": _FLOW_LIMITS, "mode": ("full", "half"), "init": ("bump", "random")}


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
    mode: str = "full"
    scales: tuple = (1e-4, 1e-6, 1e-8)
    case: str = "single"
    dt: float = 1e-3
    t_end: float = 0.5
    adapt: bool = True
    init: str = "bump"


def _float(section, key):
    raw = section[key]
    try:
        return float(raw)
    except ValueError:
        raise ParseError(f"{key} = {raw!r} is not a number") from None


def _int(section, key):
    raw = section[key]
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"{key} = {raw!r} is not an integer") from None


def _floats(section, key):
    raw = section[key]
    try:
        vals = tuple(float(tok) for tok in raw.split(","))
    except ValueError:
        raise ParseError(f"{key} = {raw!r} is not a comma-separated list") from None
    if not vals:
        raise ParseError(f"{key} must list at least one value")
    return vals

def _pair(section, key):
    vals = _floats(section, key)
    if len(vals) != 2:
        raise ParseError(f"{key} = {section[key]!r} must be two numbers")
    return vals


def _bool(section, key):
    raw = section[key].strip().lower()
    if raw in ("true", "yes", "on", "1"):
        return True
    if raw in ("false", "no", "off", "0"):
        return False
    raise ParseError(f"{key} = {section[key]!r} is not a boolean")


def _choice(section, key):
    raw = section[key].strip()
    if raw not in _CHOICES[key]:
        raise ParseError(f"{key} = {raw!r}; expected one of {sorted(_CHOICES[key])}")
    return raw


_PARSERS = {
    "alpha": _float,
    "beta": _float,
    "gamma": _float,
    "theta": _int,
    "m1": _float,
    "m2": _float,
    "grid_n": _int,
    "m1_range": _pair,
    "m2_range": _pair,
    "resolution": _int,
    "psis": _floats,
    "mode": _choice,
    "scales": _floats,
    "case": _choice,
    "dt": _float,
    "t_end": _float,
    "adapt": _bool,
    "init": _choice,
}


def _parsed(section, keys) -> dict:
    """The values of those keys present in the section, parsed in key order."""
    return {key: _PARSERS[key](section, key) for key in keys if key in section}


def parse_config(text: str) -> RunConfig:
    """Strict parse of the sectioned key=value configuration format."""
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ParseError(str(exc)) from exc
    if not cp.has_section("run"):
        raise ParseError("missing [run] section")
    run_sec = cp["run"]
    stray = set(run_sec) - _RUN_KEYS
    if stray:
        raise UnknownKey(f"unknown [run] keys: {sorted(stray)}")
    if "command" not in run_sec:
        raise ParseError("[run] needs a command")
    command = run_sec["command"].strip()
    if command not in _COMMAND_KEYS:
        raise ParseError(
            f"unknown command {command!r}; expected one of {sorted(_COMMAND_KEYS)}"
        )
    extra = set(cp.sections()) - {"run", command}
    if extra:
        raise UnknownKey(f"unknown sections: {sorted(extra)}")
    missing = [k for k in _PARAM_KEYS if k not in run_sec]
    if missing:
        raise ParseError(f"[run] is missing {missing}")
    params = validate_params(Params(**_parsed(run_sec, _PARAM_KEYS)))
    kwargs = _parsed(run_sec, ("grid_n",))
    if cp.has_section(command):
        sec = cp[command]
        stray = set(sec) - set(_COMMAND_KEYS[command])
        if stray:
            raise UnknownKey(f"unknown [{command}] keys: {sorted(stray)}")
        kwargs.update(_parsed(sec, _COMMAND_KEYS[command]))
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
        *((key, getattr(cfg.params, key)) for key in _PARAM_KEYS),
        ("grid_n", cfg.grid_n),
        ("seed", seed),
        *((key, getattr(cfg, key)) for key in _COMMAND_KEYS[cfg.command]),
    ]
    lines = [f"conflictlab {__version__}"]
    for key, value in items:
        shown = ", ".join(map(_fmt, value)) if isinstance(value, tuple) else _fmt(value)
        lines.append(f"{key} = {shown}")
    return lines


def _write_csv(path: Path, header, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    logger.info("wrote %s", path)


def _base_fields(grid, p: Params):
    rho = project_density(
        RadialField.density(grid, 2.0 - grid.r**2), p.m1
    )
    if p.m2 > 0:
        w = inv_laplacian(
            project_density(
                RadialField.density(grid, np.exp(-3.0 * grid.r**2)), p.m2
            )
        )
    else:
        w = RadialField.potential(grid, np.zeros(grid.r.size))
    return rho, w


def _cmd_classify(cfg: RunConfig, out: Path, header) -> None:
    p = cfg.params
    verdict = classify_conflict(p) if p.theta == -1 else classify_conflict_free(p)
    columns = ["m1", "m2", "verdict", "rule"] + [name for name, _ in verdict.fired]
    row = [p.m1, p.m2, verdict.verdict, verdict.rule]
    row += [value for _, value in verdict.fired]
    _write_csv(out / "classify.csv", header, columns, [row])


def _cmd_sweep(cfg: RunConfig, out: Path, header) -> None:
    res = sweep(cfg.params, cfg.m1_range, cfg.m2_range, cfg.resolution)
    mm1, mm2 = np.meshgrid(res.m1s, res.m2s, indexing="ij")
    columns = (mm1, mm2, res.verdicts, *res.lambdas, res.rules)
    _write_csv(
        out / "sweep.csv",
        header,
        ["m1", "m2", "verdict", "lambda", "lambda1", "lambda2", "rule_fired"],
        zip(*(c.ravel().tolist() for c in columns)),
    )
    curve_rows = []
    for name in sorted(res.curves):
        for m1, m2 in res.curves[name]:
            curve_rows.append((name, m1, m2))
    _write_csv(
        out / "sweep_curves.csv", header, ["curve", "m1", "m2"], curve_rows
    )


def _cmd_steady(cfg: RunConfig, out: Path, header) -> None:
    p = cfg.params
    grid = make_grid(cfg.grid_n)
    sol = solve_pair(p, grid)
    res1, res2 = residual(sol, p)
    g1, g2 = _exponents(p, sol.u1.values, sol.u2.values)
    rho1 = sol.multipliers[0] * np.exp(g1)
    rho2 = sol.multipliers[1] * np.exp(g2)
    rows = zip(grid.r, sol.u1.values, sol.u2.values, rho1, rho2)
    _write_csv(
        out / "steady.csv",
        header + [f"iterations = {sol.iterations}"],
        ["r", "u1", "u2", "rho1", "rho2", "residual1", "residual2"],
        [list(row) + [res1, res2] for row in rows],
    )


def _cmd_flow(cfg: RunConfig, out: Path, header, seed: int) -> None:
    # only this command steps flows; the other commands skip importing the module
    from .flow import FlowConfig, initial_state, run_flow, trace_rows

    p = cfg.params
    grid = make_grid(cfg.grid_n)
    limits = _FLOW_LIMITS[cfg.case]
    fcfg = FlowConfig(*limits, dt=cfg.dt, t_end=cfg.t_end, adapt=cfg.adapt)
    if cfg.init == "random":
        rng = np.random.default_rng(seed)
        width = rng.uniform(0.5, 3.0)
        amp = rng.uniform(-0.4, 0.4)
        k = int(rng.integers(1, 4))
        shape = np.exp(-width * grid.r**2) * (1.0 + amp * np.cos(math.pi * k * grid.r))
    else:
        shape = np.exp(-2.0 * grid.r**2)
    rho1 = project_density(RadialField.density(grid, shape), p.m1)
    fields = {}
    if cfg.case == "single":
        fields["rho1"] = rho1
    elif cfg.case == "pair":
        fields["rho1"] = rho1
        fields["rho2"] = project_density(
            RadialField.density(grid, np.exp(-grid.r**2)), p.m2
        )
    else:
        fields["u1"] = inv_laplacian(rho1)
        fields["u2"] = inv_laplacian(
            project_density(RadialField.density(grid, np.exp(-grid.r**2)), p.m2)
        )
    state = initial_state(p, fcfg, **fields)
    end = run_flow(state, p, fcfg)
    _write_csv(
        out / "flow_trace.csv",
        header,
        ["t", "mass1", "mass2", "energy", "sup_rho1"],
        trace_rows(end),
    )
    columns = ["r", "rho1", "u1", "u2"]
    series = [grid.r, end.rho1.values, end.u1.values, end.u2.values]
    if end.rho2 is not None:
        columns.append("rho2")
        series.append(end.rho2.values)
    _write_csv(out / "flow_state.csv", header, columns, zip(*series))


def _cmd_blowdown(cfg: RunConfig, out: Path, header) -> None:
    p = cfg.params
    grid = make_grid(cfg.grid_n, kind="graded")
    rho, w = _base_fields(grid, p)
    fam = BlowdownFamily(rho, w, psis=np.asarray(cfg.psis), mode=cfg.mode)
    rows = verify_identities(fam, p)
    slope = slope_estimate(fam, p)
    table = [
        (
            r.psi,
            r.term,
            math.nan if r.predicted is None else r.predicted,
            r.measured,
        )
        for r in rows
    ]
    _write_csv(
        out / "blowdown.csv",
        header + [f"slope = {_fmt(slope)}"],
        ["psi", "term", "predicted", "measured"],
        table,
    )


def _cmd_oracle(cfg: RunConfig, out: Path, header) -> None:
    p = cfg.params
    limit = (p.m2 / (2.0 * math.pi)) ** 2
    rows = []
    for psi in cfg.scales:
        lp = AnnulusParams(gamma=p.gamma, beta_m=p.beta * p.m1, m2=p.m2, psi=psi)
        ratio = asymptotic_ratio(lp, n=cfg.grid_n)
        rows.append((psi, ratio, limit, abs(ratio - limit) / limit))
    _write_csv(
        out / "oracle.csv", header, ["psi", "ratio", "limit", "rel_err"], rows
    )


def _cmd_functional(cfg: RunConfig, out: Path, header) -> None:
    p = cfg.params
    grid = make_grid(cfg.grid_n, kind="graded")
    rho, w = _base_fields(grid, p)
    rows = [
        (psi, rep.entropy1, rep.interaction, rep.dirichlet, rep.log_terms,
         rep.total, moser_trudinger(u_s, p.m1, p.alpha))
        for psi, _, u_s, _, rep in _ladder(rho, w, p, cfg.psis, cfg.mode)
    ]
    _write_csv(
        out / "functional.csv",
        header,
        ["psi", "entropy", "interaction", "dirichlet", "log_terms", "total",
         "moser_trudinger"],
        rows,
    )


def run(cfg: RunConfig, out_dir=".", seed=0) -> int:
    """Dispatch a parsed configuration and write its tables under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = _header_lines(cfg, seed)
    if cfg.command == "flow":
        _cmd_flow(cfg, out, header, seed)
        return 0
    dispatch = {
        "classify": _cmd_classify,
        "sweep": _cmd_sweep,
        "steady": _cmd_steady,
        "blowdown": _cmd_blowdown,
        "oracle": _cmd_oracle,
        "functional": _cmd_functional,
    }
    dispatch[cfg.command](cfg, out, header)
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
        cfg = parse_config(text)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    try:
        return run(cfg, out_dir=args.out, seed=args.seed)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
