"""Tests of the benchmark itself: each checker passes a genuine output and
fails on one deliberately corrupted copy of it; each workload runs end to
end at smoke size.

    python -m pytest bench/test_bench.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from conflictlab import cli, liouville, model  # noqa: E402
from conflictlab.calculus import inv_laplacian  # noqa: E402
from conflictlab.flow import initial_state, run_flow  # noqa: E402

CONFLICT = (1.0, 2.0, 1.0, -1)


def run_cli(tmp_path, text, name="out"):
    out = tmp_path / name
    assert cli.run(cli.parse_config(text), out) == 0
    return out


def rewrite(path, old, new, count=1):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, count))


def test_sweep_checker_catches_a_flipped_verdict(tmp_path):
    ranges = ((0.0, 40.0), (0.0, 60.0))
    out = run_cli(tmp_path, workloads.sweep_config(*CONFLICT, *ranges, 12))
    assert checks.check_sweep(out, CONFLICT, *ranges, 12) > 144
    rewrite(out / "sweep.csv", ",BoundedBelow,", ",UnboundedBelow,")
    with pytest.raises(checks.CheckError, match="rule table"):
        checks.check_sweep(out, CONFLICT, *ranges, 12)


def test_rule_four_closed_form_matches_the_program(tmp_path):
    ranges = ((0.0, 40.0), (0.0, 60.0))
    out = run_cli(tmp_path, workloads.sweep_config(*CONFLICT, *ranges, 24))
    _, _, rows = checks.read_csv(out / "sweep.csv")
    assert any(r[6] == "4" for r in rows)
    checks.check_sweep(out, CONFLICT, *ranges, 24)


def test_free_sweep_checker_catches_a_flipped_verdict(tmp_path):
    params = (1.0, 2.0, 1.0, 1)
    ranges = ((0.0, 40.0), (0.0, 40.0))
    out = run_cli(tmp_path, workloads.sweep_config(*params, *ranges, 12))
    checks.check_sweep(out, params, *ranges, 12)
    rewrite(out / "sweep.csv", ",Exists,", ",NotCovered,")
    with pytest.raises(checks.CheckError):
        checks.check_sweep(out, params, *ranges, 12)


def test_csv_reader_catches_a_token_that_does_not_round_trip(tmp_path):
    ranges = ((0.0, 40.0), (0.0, 40.0))
    out = run_cli(tmp_path, workloads.sweep_config(*CONFLICT, *ranges, 4))
    text = (out / "sweep.csv").read_text().splitlines()
    fields = text[-1].split(",")
    fields[3] = repr(float(fields[3])) + "0"
    (out / "sweep.csv").write_text("\n".join(text[:-1] + [",".join(fields)]) + "\n")
    with pytest.raises(checks.CheckError, match="round-trip"):
        checks.read_csv(out / "sweep.csv")


def test_classify_checker_catches_a_wrong_rule(tmp_path):
    text = workloads.run_config("classify", *CONFLICT, 30.0, 4.0, 256)
    out = run_cli(tmp_path, text)
    checks.check_classify(out, CONFLICT, 30.0, 4.0)
    _, columns, rows = checks.read_csv(out / "classify.csv")
    rule = rows[0][columns.index("rule")]
    rewrite(out / "classify.csv", f",{rows[0][2]},{rule},", f",{rows[0][2]},{int(rule) % 4 + 1},")
    with pytest.raises(checks.CheckError):
        checks.check_classify(out, CONFLICT, 30.0, 4.0)


def test_bubble_checker_catches_a_perturbed_potential():
    grid = model.make_grid(1024)
    sol = liouville.solve_single(15.0, 1.0, grid)
    checks.check_single_bubble(grid.r, sol.u1.values, 15.0, 1.0)
    bad = sol.u1.values * (1.0 + 1e-4)
    with pytest.raises(checks.CheckError):
        checks.check_single_bubble(grid.r, bad, 15.0, 1.0)


def test_pair_checker_catches_a_perturbed_potential():
    grid = model.make_grid(1024)
    p = model.Params(1.0, 2.0, 1.0, -1, 10.0, 4.0)
    sol = liouville.solve_pair(p, grid)
    u1, u2 = sol.u1.values, sol.u2.values
    checks.check_steady_pair(grid.r, u1, u2, CONFLICT, 10.0, 4.0)
    bump = 1e-6 * np.sin(math.pi * grid.r)
    with pytest.raises(checks.CheckError):
        checks.check_steady_pair(grid.r, u1, u2 + bump, CONFLICT, 10.0, 4.0)


@pytest.mark.parametrize("case", sorted(workloads.FLOW_CASES))
def test_flow_checker_catches_lost_mass_and_rising_energy(case):
    case, limits, a, b, g, th = workloads.FLOW_CASES[case]
    p = model.Params(a, b, g, th, 10.0, 4.0)
    grid = model.make_grid(32)
    dt = workloads.FLOW_DT
    cfg = model.FlowConfig(*limits, dt=dt, t_end=40 * dt, adapt=False)
    rho1 = model.project_density(model.RadialField.density(grid, np.exp(-2.0 * grid.r**2)), 10.0)
    rho2 = model.project_density(model.RadialField.density(grid, np.exp(-grid.r**2)), 4.0)
    fields = {"single": {"rho1": rho1}, "pair": {"rho1": rho1, "rho2": rho2}}.get(case)
    if fields is None:
        fields = {"u1": inv_laplacian(rho1), "u2": inv_laplacian(rho2)}
    s = run_flow(initial_state(p, cfg, **fields), p, cfg)
    trace = dict(t=s.energy_trace[:, 0], mass1=s.mass_trace[:, 1], mass2=s.mass_trace[:, 2],
                 energy=s.energy_trace[:, 1], sup1=s.sup_trace[:, 1])
    state = dict(r=grid.r, rho1=s.rho1.values, u1=s.u1.values, u2=s.u2.values,
                 rho2=None if s.rho2 is None else s.rho2.values)
    args = (case, (a, b, g, th), 10.0, 4.0, dt, 40)
    checks.check_flow(*args, **trace, **state)
    lost = dict(trace, mass1=trace["mass1"] * np.where(np.arange(41) > 20, 1 - 1e-8, 1.0))
    with pytest.raises(checks.CheckError, match="mass"):
        checks.check_flow(*args, **lost, **state)
    rising = dict(trace, energy=trace["energy"].copy())
    rising["energy"][25] = rising["energy"][24] + 1e-6
    if checks.energy_enforced(case, (a, b, g, th)):
        with pytest.raises(checks.CheckError, match="energy"):
            checks.check_flow(*args, **rising, **state)


def _ladder_output(tmp_path, command):
    return run_cli(tmp_path, workloads.run_config(command, *CONFLICT, 30.0, 4.0, 256), command)


PSIS = tuple(float(2**k) for k in range(1, 11))


def test_blowdown_checker_catches_a_wrong_slope(tmp_path):
    out = _ladder_output(tmp_path, "blowdown")
    checks.check_blowdown(out, CONFLICT, 30.0, 4.0, PSIS)
    header, _, _ = checks.read_csv(out / "blowdown.csv")
    slope = checks.header_value(header, "slope")
    rewrite(out / "blowdown.csv", f"slope = {slope}", f"slope = {float(slope) * 1.01!r}")
    with pytest.raises(checks.CheckError, match="slope"):
        checks.check_blowdown(out, CONFLICT, 30.0, 4.0, PSIS)


def test_blowdown_coefficient_is_lambda2_when_the_exponent_is_negative():
    m1, m2 = 20.0, 4.0
    lam, _, lam2 = checks.lambda_parts(m1, m2, 1.0, 2.0, 1.0)
    assert checks.blowdown_coefficient((1.0, 2.0, 1.0, -1), m1, m2) == lam
    assert checks.blowdown_coefficient((1.0, 2.0, 1.0, 1), m1, m2) == lam2


def test_functional_checker_catches_a_perturbed_entropy(tmp_path):
    out = _ladder_output(tmp_path, "functional")
    checks.check_functional(out, CONFLICT, 30.0, 4.0, PSIS)
    _, columns, rows = checks.read_csv(out / "functional.csv")
    old = rows[3][1]
    rewrite(out / "functional.csv", f",{old},", f",{float(old) + 1e-6!r},")
    with pytest.raises(checks.CheckError):
        checks.check_functional(out, CONFLICT, 30.0, 4.0, PSIS)


def test_oracle_checker_catches_a_ratio_above_the_limit(tmp_path):
    scales = (0.1, 0.03, 0.01)
    text = workloads.run_config("oracle", *CONFLICT, 30.0, 4.0, 1024,
                                 "[oracle]\nscales = 0.1, 0.03, 0.01\n")
    out = run_cli(tmp_path, text)
    checks.check_oracle(out, 4.0, scales)
    _, columns, rows = checks.read_csv(out / "oracle.csv")
    rewrite(out / "oracle.csv", f",{rows[2][1]},", f",{float(rows[2][2]) * 1.0001!r},")
    with pytest.raises(checks.CheckError):
        checks.check_oracle(out, 4.0, scales)


def test_steady_csv_checker_catches_a_wrong_density(tmp_path):
    text = workloads.run_config("steady", *CONFLICT, 10.0, 4.0, 256)
    out = run_cli(tmp_path, text)
    checks.check_steady_csv(out, CONFLICT, 10.0, 4.0, 256)
    _, _, rows = checks.read_csv(out / "steady.csv")
    rewrite(out / "steady.csv", f",{rows[5][3]},", f",{float(rows[5][3]) * 1.001!r},")
    with pytest.raises(checks.CheckError):
        checks.check_steady_csv(out, CONFLICT, 10.0, 4.0, 256)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    per_round = 2 if workload == "steady" else 0
    assert result["failed"] == per_round * (2 if trace else 1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert all(m["unit"] == u for m, u in
               zip((result["metrics"][n] for n in names),
                   (m["unit"] for m in spec["per_layer" if trace else "end_to_end"])))


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    (bare / "bench").mkdir(parents=True)
    for f in BENCH.glob("*.py"):
        (bare / "bench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "steady", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
