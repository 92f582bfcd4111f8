"""Checks of the program's outputs, computed apart from the program.

Nothing here imports conflictlab.  Each check re-derives what an output
must satisfy from the model's definitions (the phase rule tables, the
bubble closed form, the finite-volume Green operator of the radial disk,
the blow-down shift coefficients, the annulus limit) and raises CheckError
when the output disagrees.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi
EIGHT_PI = 8.0 * math.pi

# The classifier calls a point a fence (Unknown) when a deciding margin lies
# within 1e-12 of its threshold.  Points whose margins, as evaluated here,
# lie within _AMBIGUOUS of that band may round either way in the program's
# scalar arithmetic, so they are excluded from the verdict comparison.
_FENCE = 1e-12
_AMBIGUOUS = 1e-7


class CheckError(AssertionError):
    """An output of the program failed an independent check."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------- CSV files


def read_csv(path) -> tuple[list[str], list[str], list[list[str]]]:
    """Parse a conflictlab CSV into (header comments, columns, rows).

    Every token that parses as a number must be the canonical 17-digit
    text of that double, so the file parses back to the written values
    bit for bit.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = [line[1:].strip() for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    require(bool(body), f"{path}: no column line")
    columns = body[0].split(",")
    rows = [line.split(",") for line in body[1:]]
    require(all(len(r) == len(columns) for r in rows), f"{path}: ragged rows")
    for tokens in zip(*rows):
        try:
            values = [float(t) for t in tokens]
        except ValueError:
            continue  # a text column
        bad = [t for v, t in zip(values, tokens) if format(v, ".17g") != t]
        if bad:
            raise CheckError(f"{path}: {bad[0]!r} does not round-trip as a double")
    return header, columns, rows


def numeric_columns(columns, rows, names) -> dict:
    idx = {c: i for i, c in enumerate(columns)}
    for name in names:
        require(name in idx, f"missing column {name!r}")
    return {n: np.array([float(r[idx[n]]) for r in rows]) for n in names}


def header_value(header, key) -> str:
    for line in header:
        k, sep, v = line.partition(" = ")
        if sep and k == key:
            return v
    raise CheckError(f"header has no {key!r}")


# ------------------------------------------------------------- phase plane


def lambda_parts(m1, m2, alpha, beta, gamma):
    """(Lambda, Lambda1, Lambda2) of the conflict inequality."""
    lam1 = m2 * ((beta * m1 - gamma * m2) / TWO_PI - 2.0)
    lam2 = 2.0 * m1 - alpha * m1 * m1 / FOUR_PI + gamma * m2 * m2 / FOUR_PI
    return lam1 + lam2, lam1, lam2


def _decide(margins):
    """Arrays (fire, fail, ambiguous) for 'all margins hold strictly'."""
    fail = np.zeros(np.shape(margins[0]), dtype=bool)
    fire = np.ones_like(fail)
    amb = np.zeros_like(fail)
    for m in margins:
        m = np.asarray(m, dtype=float)
        fail |= m <= -_FENCE
        fire &= m >= _FENCE
        amb |= np.abs(np.abs(m) - _FENCE) < _AMBIGUOUS
    return fire & ~fail, fail, amb


def _strip_edge(alpha, beta, gamma):
    if not (alpha > 0.0 and beta - alpha / 2.0 > 0.0):
        return None
    if gamma == 0.0:
        return math.inf
    top = (FOUR_PI / gamma) * (2.0 * beta / alpha - 1.0)
    b = (EIGHT_PI + 2.0 * beta * top) / alpha
    c = (EIGHT_PI * top + gamma * top * top) / alpha
    disc = b * b - 4.0 * c
    return None if disc < 0.0 else 0.5 * (b + math.sqrt(disc))


def classify_conflict(m1, m2, alpha, beta, gamma):
    """Rule table of the conflict convention on arrays.

    Returns (verdict strings, rule numbers, ambiguous mask).  Rule 4 takes
    the maximum of the concave quadratic Lambda(m1, .) on [0, hi] in closed
    form, at clip((beta m1 - 4pi)/gamma, 0, hi), or at an end when gamma = 0.
    """
    m1 = np.asarray(m1, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    lam, _, lam2 = lambda_parts(m1, m2, alpha, beta, gamma)
    verdict = np.full(m1.shape, "Unknown", dtype=object)
    rule = np.zeros(m1.shape, dtype=int)
    amb = np.zeros(m1.shape, dtype=bool)
    open_ = np.ones(m1.shape, dtype=bool)

    def settle(fire, fail, a, name, number):
        nonlocal open_
        amb[open_ & a] = True
        hit = open_ & fire
        verdict[hit], rule[hit] = name, number
        open_ = open_ & fail

    crit = np.full(m1.shape, math.inf) if alpha == 0.0 else EIGHT_PI / alpha - m1
    settle(*_decide([crit]), "BoundedBelow", 1)
    settle(*_decide([-lam, -lam2]), "UnboundedBelow", 2)
    beta_gap = beta - alpha / 2.0
    edge = _strip_edge(alpha, beta, gamma)
    if edge is None:
        return verdict, rule, amb
    strip_gap = (
        np.full(m1.shape, math.inf)
        if alpha == 0.0
        else 2.0 * beta / alpha - gamma * m2 / FOUR_PI - 1.0
    )
    fire, fail, a = _decide([np.full(m1.shape, beta_gap), lam, strip_gap, edge - m1])
    settle(fire, fail, a, "RadiallyBounded", 3)
    if beta_gap >= _FENCE:
        gated = open_ & (edge - m1 >= _FENCE)
        amb |= open_ & (np.abs(edge - m1 - _FENCE) < _AMBIGUOUS)
        hi = m2 if gamma == 0.0 else np.minimum(m2, (FOUR_PI / gamma) * (2.0 * beta / alpha - 1.0))
        if gamma == 0.0:
            slope = beta * m1 / TWO_PI - 2.0
            x = np.where(slope > 0.0, hi, 0.0)
        else:
            x = np.clip((beta * m1 - FOUR_PI) / gamma, 0.0, hi)
        best = lambda_parts(m1, x, alpha, beta, gamma)[0]
        fire, fail, a = _decide([best])
        open_ = gated
        settle(fire, fail, a, "RadiallyBounded", 4)
    return verdict, rule, amb


def classify_conflict_free(m1, m2, alpha, beta, gamma):
    """Existence cases of the cooperative convention on arrays."""
    m1 = np.asarray(m1, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    crit = np.full(m1.shape, math.inf) if alpha == 0.0 else EIGHT_PI / alpha - m1
    a2, a1, a0 = 0.5 * gamma, FOUR_PI - beta * m1, 0.5 * m1 * (EIGHT_PI - alpha * m1)
    box_min = np.minimum(a0, (a2 * m2 + a1) * m2 + a0)
    if a2 > 0.0:
        v = -a1 / (2.0 * a2)
        inside = (v > 0.0) & (v < m2)
        box_min = np.where(inside, np.minimum(box_min, (a2 * v + a1) * v + a0), box_min)
    verdict = np.full(m1.shape, "Unknown", dtype=object)
    rule = np.zeros(m1.shape, dtype=int)

    def from_margins(margins, number, mask):
        fire, fail, a = _decide(margins)
        verdict[mask & fire], rule[mask & fire] = "Exists", number
        verdict[mask & fail], rule[mask & fail] = "NotCovered", number
        return mask & a

    everywhere = np.ones(m1.shape, dtype=bool)
    if 2.0 * beta < alpha:
        return verdict, rule, from_margins([crit], 1, everywhere)
    if gamma == 0.0:
        return verdict, rule, from_margins([box_min], 2, everywhere)
    lead = beta * beta + alpha * gamma
    b = EIGHT_PI * (beta + gamma) / lead
    c = 16.0 * math.pi**2 / lead
    onset = 0.5 * (b + math.sqrt(b * b - 4.0 * c))
    gap = onset - m1
    early = gap >= _FENCE
    verdict[early], rule[early] = "Exists", 3
    late = gap <= -_FENCE
    amb = np.abs(np.abs(gap) - _FENCE) < _AMBIGUOUS
    return verdict, rule, amb | from_margins([crit, box_min], 3, late)


def classify(m1, m2, alpha, beta, gamma, theta):
    if theta == -1:
        return classify_conflict(m1, m2, alpha, beta, gamma)
    return classify_conflict_free(m1, m2, alpha, beta, gamma)


def _compare_verdicts(path, got_v, got_rule, m1, m2, params):
    want_v, want_rule, amb = classify(m1, m2, *params)
    decided = ~amb
    require(amb.mean() < 0.01, f"{path}: {amb.sum()} of {amb.size} points sit on a fence")
    bad = decided & ((got_v != want_v) | (got_rule != want_rule))
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise CheckError(
            f"{path}: ({m1[i]!r}, {m2[i]!r}) is {got_v[i]}/{got_rule[i]}, "
            f"the rule table gives {want_v[i]}/{want_rule[i]}"
        )


def _close(a, b, rel, what):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    err = np.abs(a - b) / scale
    require(a.shape == b.shape, f"{what}: shape {a.shape} != {b.shape}")
    require(np.all(err <= rel), f"{what}: relative error {float(np.max(err)):.3e} > {rel:.1e}")


def check_sweep(out_dir, params, m1_range, m2_range, resolution) -> int:
    """sweep.csv against the array rule tables and the grid definition;
    sweep_curves.csv against the equations of its curves.  Returns the rows
    of both files."""
    path = Path(out_dir) / "sweep.csv"
    _, columns, rows = read_csv(path)
    require(
        columns == ["m1", "m2", "verdict", "lambda", "lambda1", "lambda2", "rule_fired"],
        f"{path}: columns {columns}",
    )
    require(len(rows) == resolution * resolution, f"{path}: {len(rows)} rows")
    lo1, hi1 = m1_range
    lo2, hi2 = m2_range
    m1s = lo1 + (hi1 - lo1) * np.arange(1, resolution + 1) / resolution
    m2s = np.linspace(lo2, hi2, resolution)
    want1, want2 = (g.ravel() for g in np.meshgrid(m1s, m2s, indexing="ij"))
    col = numeric_columns(columns, rows, ["m1", "m2", "lambda", "lambda1", "lambda2"])
    require(np.array_equal(col["m1"], want1) and np.array_equal(col["m2"], want2),
            f"{path}: mass grid differs from the sampled rectangle")
    alpha, beta, gamma, theta = params
    lam = lambda_parts(want1, want2, alpha, beta, gamma)
    for name, ref in zip(("lambda", "lambda1", "lambda2"), lam):
        _close(col[name], ref, 1e-12, f"{path}: {name}")
    got_v = np.array([r[2] for r in rows], dtype=object)
    got_rule = np.array([int(r[6]) for r in rows])
    _compare_verdicts(path, got_v, got_rule, want1, want2, (alpha, beta, gamma, theta))
    return len(rows) + check_curves(Path(out_dir) / "sweep_curves.csv", params)


def check_curves(path, params) -> int:
    alpha, beta, gamma, theta = params
    _, columns, rows = read_csv(path)
    require(columns == ["curve", "m1", "m2"], f"{path}: columns {columns}")
    names = np.array([r[0] for r in rows])
    xy = numeric_columns(columns, rows, ["m1", "m2"])
    m1, m2 = xy["m1"], xy["m2"]
    ok = np.isfinite(m1) & np.isfinite(m2)
    lam, lam1, _ = lambda_parts(m1, m2, alpha, beta, gamma)
    scale = 1.0 + np.abs(m1) + np.abs(m2) ** 2
    for name, resid in (("lambda_zero", lam), ("lambda1_zero", lam1)):
        sel = ok & (names == name)
        require(np.all(np.abs(resid[sel]) <= 1e-9 * scale[sel]), f"{path}: {name} off its equation")
    sel = ok & (names == "m1_critical")
    require(np.all(m1[sel] == EIGHT_PI / alpha), f"{path}: m1_critical is not 8pi/alpha")
    return len(rows)


def check_classify(out_dir, params, m1, m2) -> int:
    path = Path(out_dir) / "classify.csv"
    _, columns, rows = read_csv(path)
    require(len(rows) == 1, f"{path}: {len(rows)} rows")
    col = numeric_columns(columns, rows, ["m1", "m2", "lambda", "lambda1", "lambda2"])
    require(col["m1"][0] == m1 and col["m2"][0] == m2, f"{path}: wrong point")
    alpha, beta, gamma, theta = params
    for name, ref in zip(("lambda", "lambda1", "lambda2"), lambda_parts(m1, m2, alpha, beta, gamma)):
        _close(col[name], [ref], 1e-12, f"{path}: {name}")
    row = dict(zip(columns, rows[0]))
    _compare_verdicts(path, np.array([row["verdict"]], dtype=object),
                      np.array([int(row["rule"])]), np.array([m1]), np.array([m2]), params)
    return 1


# ------------------------------------------------- radial finite volumes


def cell_volumes(r):
    faces = 0.5 * (r[1:] + r[:-1])
    edges = np.concatenate(([0.0], faces, [1.0]))
    return 0.5 * np.diff(edges * edges)


def boltzmann(r, g, m):
    """m e^g / (2 pi sum V e^g) on the cell-volume rule."""
    e = np.exp(g - np.max(g))
    return m * e / (TWO_PI * np.dot(cell_volumes(r), e))


def green(r, rho):
    """Potential u with Delta u = -rho, u(1) = 0, from the annulus integrals
    u_j - u_{j+1} = mtilde_j ln(r_{j+1}/r_j) and u_0 - u_1 = 2 mtilde_0."""
    mt = np.cumsum(cell_volumes(r) * rho)[:-1]
    drops = np.empty(r.size - 1)
    drops[0] = 2.0 * mt[0]
    drops[1:] = mt[1:] * np.log(r[2:] / r[1:-1])
    u = np.zeros_like(r)
    u[:-1] = np.cumsum(drops[::-1])[::-1]
    return u


def fv_defect(r, u, rho):
    """(sup cell defect, sup face-flux mismatch, wall mass) of u against rho.

    The face flux of u is -r u_r through the same annulus integral the Green
    operator uses; the mismatch is that flux minus the enclosed mass / 2pi.
    """
    vol = cell_volumes(r)
    flux = np.empty(r.size - 1)
    flux[0] = 0.5 * (u[0] - u[1])
    flux[1:] = (u[1:-1] - u[2:]) / np.log(r[2:] / r[1:-1])
    mismatch = flux - np.cumsum(vol * rho)[:-1]
    cell = np.empty(r.size - 1)
    cell[0] = mismatch[0] / vol[0]
    cell[1:] = np.diff(mismatch) / vol[1:-1]
    wall = TWO_PI * (flux[-1] + vol[-1] * rho[-1])
    return float(np.max(np.abs(cell))), float(np.max(np.abs(mismatch))), wall


def exponents(u1, u2, alpha, beta, gamma, theta):
    return alpha * u1 - beta * u2, -gamma * u2 - theta * beta * u1


def check_steady_pair(r, u1, u2, params, m1, m2) -> None:
    """Flux-form residual of both equations, the face-flux mismatch, and
    the disk masses read off the wall flux.

    The cell residual may reach twice the solvers' absolute tolerance 1e-10
    plus the round-off of differencing u on n cells, 1e-15 n^2 rho_max.
    """
    alpha, beta, gamma, theta = params
    n = r.size - 1
    require(u1[-1] == 0.0 and u2[-1] == 0.0, "potentials are not zero at the wall")
    for u, g, m in zip((u1, u2), exponents(u1, u2, alpha, beta, gamma, theta), (m1, m2)):
        if m == 0.0:
            require(np.all(u == 0.0), "a massless species has a potential")
            continue
        rho = boltzmann(r, g, m)
        cell, face, wall = fv_defect(r, u, rho)
        require(cell <= 2e-10 + 1e-15 * n * n * np.max(rho),
                f"cell defect {cell:.3e} against rho_max {np.max(rho):.3e} on {n} cells")
        require(face <= 1e-10 * m, f"face-flux mismatch {face:.3e}")
        require(abs(wall - m) <= 1e-10 * m, f"wall flux gives mass {wall!r}, not {m!r}")


def bubble(r, m, alpha):
    delta = m * alpha / (EIGHT_PI - m * alpha)
    return (2.0 / alpha) * np.log((1.0 + delta) / (1.0 + delta * r * r)), delta


def check_single_bubble(r, u, m, alpha) -> None:
    """Distance to the bubble closed form within C(m) n^-2, with
    C(m) = 8 (1 + delta)(1 + ln(1 + delta)) and delta = m alpha/(8 pi - m alpha)."""
    exact, delta = bubble(r, m, alpha)
    n = r.size - 1
    bound = 8.0 * (1.0 + delta) * (1.0 + math.log1p(delta)) / (n * n)
    err = float(np.max(np.abs(u - exact)))
    require(err <= bound, f"bubble distance {err:.3e} > {bound:.3e} at m = {m!r}, n = {n}")
    check_steady_pair(r, u, np.zeros_like(u), (alpha, 0.0, 0.0, -1), m, 0.0)


# ------------------------------------------------------------------ flows


def energy_enforced(case, params) -> bool:
    alpha, beta, gamma, theta = params
    if case == "single":
        return True
    if case == "pair":
        return theta == 1 and alpha * gamma >= beta * beta
    return theta == -1 and abs(alpha * gamma - beta * beta) > 1e-12 and alpha * gamma > beta * beta


def check_flow(case, params, m1, m2, dt, steps, t, mass1, mass2, energy, sup1, r, rho1, u1, u2, rho2):
    """Invariants of the flow method.

    Times advance by dt exactly (adapt is off); both masses stay at their
    targets to round-off; the monitored energy does not rise where the
    regime is a gradient flow for it; densities stay nonnegative; the
    potentials vanish at the wall; the density regimes carry the Green
    potentials of their densities, and the potential regime the Boltzmann
    densities of its potentials.
    """
    require(t.size == steps + 1, f"{t.size - 1} steps, expected {steps}")
    require(np.allclose(t, dt * np.arange(steps + 1), rtol=0.0, atol=1e-12 * max(1.0, t[-1])),
            "times are not multiples of dt")
    for got, m in ((mass1, m1), (mass2, m2)):
        require(np.all(np.abs(got - m) <= 1e-10 * max(m, 1.0)), f"mass drifts from {m!r}")
    if energy_enforced(case, params):
        rise = np.diff(energy)
        require(np.all(rise <= 1e-10 * np.maximum(1.0, np.abs(energy[:-1]))),
                f"energy rose by {float(np.max(rise)):.3e}")
    require(np.all(np.isfinite(energy)), "energy is not finite")
    require(np.all(rho1 >= 0.0) and (rho2 is None or np.all(rho2 >= 0.0)), "negative density")
    require(u1[-1] == 0.0 and u2[-1] == 0.0, "potentials are not zero at the wall")
    require(sup1[-1] == np.max(rho1), "sup rho1 trace disagrees with the state")
    alpha, beta, gamma, theta = params
    g1, g2 = exponents(u1, u2, alpha, beta, gamma, theta)
    if case == "potentials":
        _close(rho1, boltzmann(r, g1, m1), 1e-9, "rho1 against its Boltzmann density")
    else:
        scale = max(1.0, float(np.max(np.abs(u1))))
        _close(u1 / scale, green(r, rho1) / scale, 1e-11, "u1 against the Green potential of rho1")
    if case == "pair":
        scale = max(1.0, float(np.max(np.abs(u2))))
        _close(u2 / scale, green(r, rho2) / scale, 1e-11, "u2 against the Green potential of rho2")
    elif m2 > 0.0:
        _close(rho2, boltzmann(r, g2, m2), 1e-9, "rho2 against its Boltzmann density")


def check_flow_csvs(out_dir, case, params, m1, m2, dt, steps) -> int:
    out_dir = Path(out_dir)
    _, tc, tr = read_csv(out_dir / "flow_trace.csv")
    tcol = numeric_columns(tc, tr, ["t", "mass1", "mass2", "energy", "sup_rho1"])
    _, sc, sr = read_csv(out_dir / "flow_state.csv")
    names = ["r", "rho1", "u1", "u2"] + (["rho2"] if "rho2" in sc else [])
    s = numeric_columns(sc, sr, names)
    check_flow(case, params, m1, m2, dt, steps, tcol["t"], tcol["mass1"], tcol["mass2"],
               tcol["energy"], tcol["sup_rho1"], s["r"], s["rho1"], s["u1"], s["u2"], s.get("rho2"))
    return len(tr) + len(sr)


def check_steady_csv(out_dir, params, m1, m2, grid_n) -> int:
    path = Path(out_dir) / "steady.csv"
    _, columns, rows = read_csv(path)
    require(len(rows) == grid_n + 1, f"{path}: {len(rows)} rows")
    c = numeric_columns(columns, rows, ["r", "u1", "u2", "rho1", "rho2"])
    require(np.array_equal(c["r"], np.linspace(0.0, 1.0, grid_n + 1)), f"{path}: not the uniform grid")
    check_steady_pair(c["r"], c["u1"], c["u2"], params, m1, m2)
    g1, g2 = exponents(c["u1"], c["u2"], *params)
    _close(c["rho1"], boltzmann(c["r"], g1, m1), 1e-9, f"{path}: rho1")
    _close(c["rho2"], boltzmann(c["r"], g2, m2), 1e-9, f"{path}: rho2")
    return len(rows)


# ------------------------------------------------- blow-down and annulus


def blowdown_coefficient(params, m1, m2) -> float:
    """Slope of the joint free energy in ln psi: Lambda when the chemical
    exponent x = (-theta beta m1 - gamma m2)/2pi - 2 is positive, else Lambda2."""
    alpha, beta, gamma, theta = params
    x = (-theta * beta * m1 - gamma * m2) / TWO_PI - 2.0
    lam2 = 2.0 * m1 - alpha * m1 * m1 / FOUR_PI + gamma * m2 * m2 / FOUR_PI
    return lam2 + (m2 * x if x > 0.0 else 0.0)


def check_blowdown(out_dir, params, m1, m2, psis) -> int:
    """Fitted slope against the computed coefficient (relative 1e-4), and the
    entropy, interaction and Dirichlet shifts against 2 m1, -m1^2/2pi and
    m2^2/2pi times ln psi."""
    path = Path(out_dir) / "blowdown.csv"
    header, columns, rows = read_csv(path)
    slope = float(header_value(header, "slope"))
    coef = blowdown_coefficient(params, m1, m2)
    require(abs(slope - coef) <= 1e-4 * abs(coef), f"{path}: slope {slope!r}, coefficient {coef!r}")
    require(len(rows) == 5 * len(psis), f"{path}: {len(rows)} rows")
    per_ln = {"entropy": 2.0 * m1, "interaction": -m1 * m1 / TWO_PI, "dirichlet": m2 * m2 / TWO_PI}
    for psi_tok, term, _, measured in rows:
        if term in per_ln:
            want = per_ln[term] * math.log(float(psi_tok))
            require(abs(float(measured) - want) <= 1e-8 * max(1.0, abs(want)),
                    f"{path}: {term} shift {measured} at psi {psi_tok}, expected {want!r}")
    return len(rows)


def check_functional(out_dir, params, m1, m2, psis) -> int:
    """Row totals are the sums of their parts, and between rungs the entropy,
    interaction and Dirichlet columns shift by their exact ln psi multiples."""
    alpha, beta, gamma, theta = params
    path = Path(out_dir) / "functional.csv"
    _, columns, rows = read_csv(path)
    c = numeric_columns(columns, rows, ["psi", "entropy", "interaction", "dirichlet", "log_terms", "total"])
    require(np.array_equal(c["psi"], np.asarray(psis, dtype=float)), f"{path}: psi ladder")
    parts = c["entropy"] + c["interaction"] + c["dirichlet"] + c["log_terms"]
    _close(c["total"], parts, 1e-12, f"{path}: total against its parts")
    dln = np.diff(np.log(c["psi"]))
    for name, coef in (("entropy", 2.0 * m1), ("interaction", -0.5 * alpha * m1 * m1 / TWO_PI),
                       ("dirichlet", 0.5 * gamma * m2 * m2 / TWO_PI)):
        _close(np.diff(c[name]), coef * dln, 1e-9, f"{path}: {name} shifts")
    return len(rows)


def check_oracle(out_dir, m2, scales) -> int:
    """The Dirichlet-growth ratio stays below (m2/2pi)^2 and rises as psi shrinks."""
    path = Path(out_dir) / "oracle.csv"
    _, columns, rows = read_csv(path)
    c = numeric_columns(columns, rows, ["psi", "ratio", "limit", "rel_err"])
    limit = (m2 / TWO_PI) ** 2
    require(np.array_equal(c["psi"], np.asarray(scales, dtype=float)), f"{path}: psi column")
    _close(c["limit"], np.full(len(rows), limit), 1e-15, f"{path}: limit")
    require(np.all(c["ratio"] < limit), f"{path}: ratio reaches the limit {limit!r}")
    order = np.argsort(c["psi"])[::-1]
    require(np.all(np.diff(c["ratio"][order]) > 0.0), f"{path}: ratio does not rise as psi shrinks")
    _close(c["rel_err"], np.abs(c["ratio"] - limit) / limit, 1e-12, f"{path}: rel_err")
    return len(rows)
