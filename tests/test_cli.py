import hashlib
import math
import subprocess
import sys

import numpy as np
import pytest

from conflictlab.cli import RunConfig, main, parse_config, run
from conflictlab.errors import BadTheta, NonpositiveMass, ParseError, UnknownKey
from conflictlab.model import Params

EIGHT_PI = 8.0 * math.pi


def config_text(command, alpha=1.0, beta=2.0, gamma=0.0, theta=-1, m1=30.0,
                m2=4.0, grid_n=None, section=""):
    head = (
        f"[run]\ncommand = {command}\nalpha = {alpha}\nbeta = {beta}\n"
        f"gamma = {gamma}\ntheta = {theta}\nm1 = {m1}\nm2 = {m2}\n"
    )
    if grid_n is not None:
        head += f"grid_n = {grid_n}\n"
    return head + section


def read_table(path):
    header, columns, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            header.append(line[1:].strip())
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return header, columns, rows


class TestParseConfig:
    def test_minimal_classify_fills_defaults(self):
        cfg = parse_config(config_text("classify"))
        assert cfg.command == "classify"
        assert cfg.grid_n == 4096
        assert cfg.params == Params(1.0, 2.0, 0.0, -1, 30.0, 4.0)

    def test_sweep_options(self):
        sec = "[sweep]\nm1_range = 0.1, 40\nm2_range = 0, 40\nresolution = 200\n"
        cfg = parse_config(config_text("sweep", section=sec))
        assert cfg.m1_range == (0.1, 40.0)
        assert cfg.m2_range == (0.0, 40.0)
        assert cfg.resolution == 200

    def test_flow_options(self):
        sec = "[flow]\ncase = pair\ndt = 0.01\nt_end = 2\nadapt = no\ninit = random\n"
        cfg = parse_config(config_text("flow", theta=1, section=sec))
        assert cfg.case == "pair"
        assert cfg.dt == 0.01
        assert cfg.t_end == 2.0
        assert cfg.adapt is False
        assert cfg.init == "random"

    def test_zero_theta_rejected_by_validation(self):
        with pytest.raises(BadTheta):
            parse_config(config_text("classify", theta=0))

    @pytest.mark.parametrize(
        "text, error",
        [
            ("alpha = 1\n", ParseError),
            ("[run]\nalpha = 1\n", ParseError),
            (config_text("teleport"), ParseError),
            (config_text("classify") + "wibble = 3\n", UnknownKey),
            (config_text("classify", section="[sweep]\nresolution = 10\n"),
             UnknownKey),
            (config_text("sweep", section="[sweep]\ncolor = red\n"), UnknownKey),
            (config_text("classify", alpha="fast"), ParseError),
            (config_text("sweep", section="[sweep]\nm1_range = 1, 2, 3\n"),
             ParseError),
            (config_text("sweep", section="[sweep]\nresolution = 2.5\n"),
             ParseError),
            (config_text("flow", section="[flow]\nadapt = maybe\n"), ParseError),
            (config_text("blowdown", section="[blowdown]\nmode = diagonal\n"),
             ParseError),
            ("[run]\ncommand = classify\nalpha = 1\nbeta = 1\ngamma = 1\n"
             "theta = -1\nm1 = 1\n", ParseError),
        ],
    )
    def test_malformed_configs_rejected(self, text, error):
        with pytest.raises(error):
            parse_config(text)

    def test_unknown_key_is_a_parse_error(self):
        assert issubclass(UnknownKey, ParseError)


class TestClassifyCommand:
    def test_conflict_verdict_row(self, tmp_path):
        cfg = parse_config(config_text("classify"))
        assert run(cfg, out_dir=tmp_path) == 0
        header, columns, rows = read_table(tmp_path / "classify.csv")
        assert header[0].startswith("conflictlab ")
        assert "command = classify" in header
        assert columns[:4] == ["m1", "m2", "verdict", "rule"]
        assert "lambda" in columns and "strip_gap" in columns
        assert len(rows) == 1
        row = dict(zip(columns, rows[0]))
        assert row["verdict"] == "RadiallyBounded"
        assert row["rule"] == "3"
        assert np.isclose(float(row["lambda"]), 18.577461950701981, rtol=1e-15)

    def test_cooperative_dispatch(self, tmp_path):
        cfg = parse_config(
            config_text("classify", beta=0.4, gamma=1.0, theta=1, m1=10.0, m2=5.0)
        )
        run(cfg, out_dir=tmp_path)
        _, columns, rows = read_table(tmp_path / "classify.csv")
        assert rows[0][columns.index("verdict")] == "Exists"


class TestSteadyCommand:
    def test_single_species_table(self, tmp_path):
        cfg = parse_config(
            config_text("steady", beta=0.0, m1=4.0 * math.pi, m2=0.0, grid_n=512)
        )
        assert run(cfg, out_dir=tmp_path) == 0
        _, columns, rows = read_table(tmp_path / "steady.csv")
        assert columns == ["r", "u1", "u2", "rho1", "rho2", "residual1",
                           "residual2"]
        assert len(rows) == 513
        first = dict(zip(columns, rows[0]))
        assert float(first["r"]) == 0.0
        assert np.isclose(float(first["u1"]), 2.0 * math.log(2.0), atol=1e-4)
        assert float(first["residual1"]) <= 1e-10
        assert float(first["residual2"]) == 0.0


class TestSweepCommand:
    def test_tables_and_curves(self, tmp_path):
        sec = "[sweep]\nm1_range = 0, 40\nm2_range = 0, 40\nresolution = 20\n"
        cfg = parse_config(config_text("sweep", gamma=1.0, section=sec))
        assert run(cfg, out_dir=tmp_path) == 0
        _, columns, rows = read_table(tmp_path / "sweep.csv")
        assert columns == ["m1", "m2", "verdict", "lambda", "lambda1",
                           "lambda2", "rule_fired"]
        assert len(rows) == 400
        verdicts = {r[2] for r in rows}
        assert verdicts <= {"BoundedBelow", "RadiallyBounded", "UnboundedBelow",
                            "Unknown"}
        _, ccols, crows = read_table(tmp_path / "sweep_curves.csv")
        assert ccols == ["curve", "m1", "m2"]
        names = {r[0] for r in crows}
        assert "m1_critical" in names and "lambda_zero" in names


class TestFlowCommand:
    def test_trace_and_state(self, tmp_path):
        sec = "[flow]\ncase = single\ndt = 0.001\nt_end = 0.2\n"
        cfg = parse_config(
            config_text("flow", beta=0.5, gamma=1.0, m1=8.0, m2=3.0,
                        grid_n=256, section=sec)
        )
        assert run(cfg, out_dir=tmp_path) == 0
        _, columns, rows = read_table(tmp_path / "flow_trace.csv")
        assert columns == ["t", "mass1", "mass2", "energy", "sup_rho1"]
        masses = np.array([float(r[1]) for r in rows])
        assert np.max(np.abs(masses - 8.0)) <= 1e-11
        energies = np.array([float(r[3]) for r in rows])
        assert np.all(np.diff(energies) <= 1e-10 * np.abs(energies[:-1]))
        _, scols, srows = read_table(tmp_path / "flow_state.csv")
        assert scols[:4] == ["r", "rho1", "u1", "u2"]
        assert len(srows) == 257

    def test_random_init_is_seed_stable(self, tmp_path):
        sec = "[flow]\ncase = single\ndt = 0.01\nt_end = 0.05\ninit = random\n"
        cfg = parse_config(
            config_text("flow", beta=0.0, gamma=0.0, m1=6.0, m2=0.0,
                        grid_n=128, section=sec)
        )
        run(cfg, out_dir=tmp_path / "a", seed=11)
        run(cfg, out_dir=tmp_path / "b", seed=11)
        run(cfg, out_dir=tmp_path / "c", seed=12)
        a = (tmp_path / "a" / "flow_trace.csv").read_bytes()
        b = (tmp_path / "b" / "flow_trace.csv").read_bytes()
        c = (tmp_path / "c" / "flow_trace.csv").read_bytes()
        assert a == b
        assert a != c


# sha256 of the data lines (everything below the '#' header, which carries
# the package version) of flow_trace.csv and flow_state.csv on 64 cells, as
# written before the flow engine moved to raw arrays, the shared trace
# buffer and direct gtsv calls (numpy 2.4, scipy 1.17, x86-64).
PINNED_FLOWS = {
    ("single", -1, "bump"): ("3f2eb91529a22ea97d0c394516a19de304cf75b9d061d42ffcf4ba7ce4e36f64", "3242cc07220c1f416552df8d096b54c4af029a1f4773902f3dacdfeeaa7cace1"),
    ("single", -1, "random"): ("95fba4944a3902c91b88c11092acc01523606773954b6782e58070329de0d71f", "36870e5b05129c7823dfd7e08b187d25d264b0bea27076f1533e24734fdf0623"),
    ("pair", 1, "bump"): ("b5e543da1f7e9dfdd0b3790238e41a525dd7a4c409d97732a6efc553cb661a2c", "452cd41ef4a51af3d611f2921756f06dc6ba4ceb2f4d212b6be0000156bc277f"),
    ("pair", 1, "random"): ("dce2cd84a56e88dffc1c7c84b5aa4fcdd243278685dcd7306fb27124c0789209", "22150de652504deec6001583b5e206d82892622757661424c2fd81e97345e2e1"),
    ("pair", -1, "bump"): ("45d8706639582ce0ce4fe81e101ea88bd48b603c898809827b1b574625b0ed65", "773ad1c48b03db7368389ca0b4f43884d0e3d43535ea12992dc25ccb37398a34"),
    ("pair", -1, "random"): ("49b015fa23bde5298299239727ee471b4ec10b3d4b1e8c41d5fe0ad3121ed0e7", "5569f6dafbe903010079d519940e08b39db2022a3e2c1833bc80d562bb7249d5"),
    ("potentials", -1, "bump"): ("6786bf8e25c1639ef7b5913d7ccb6ca3ccbbc1985092be4c20bcf290c1bfe964", "c18e241a87c8ea5e0effd676febd866ccefa222977564913d6936c6d508c27e3"),
    ("potentials", -1, "random"): ("a8c910ea792868efaeb32e74b6eb7ce30631deb57ae852bf1dcacb19a90f6798", "5e6e5da7b4a64a53fd538da917cd153bc69463cb219b8f54c3fe0b1577a32ce6"),
}


@pytest.mark.parametrize("case, theta, init", list(PINNED_FLOWS))
def test_flow_csvs_are_pinned(tmp_path, case, theta, init):
    sec = f"[flow]\ncase = {case}\ndt = 0.001\nt_end = 0.2\ninit = {init}\n"
    cfg = parse_config(
        config_text("flow", beta=0.5, gamma=1.0, theta=theta, m1=8.0, m2=4.0,
                    grid_n=64, section=sec)
    )
    assert run(cfg, out_dir=tmp_path, seed=7) == 0
    digests = []
    for name in ("flow_trace.csv", "flow_state.csv"):
        lines = (tmp_path / name).read_text().splitlines(keepends=True)
        data = "".join(line for line in lines if not line.startswith("#"))
        digests.append(hashlib.sha256(data.encode()).hexdigest())
    assert tuple(digests) == PINNED_FLOWS[case, theta, init]


class TestBlowdownCommand:
    def test_shift_table(self, tmp_path):
        sec = "[blowdown]\npsis = 4, 8, 16, 32\n"
        cfg = parse_config(
            config_text("blowdown", m1=30.0, m2=1.0, grid_n=2048, section=sec)
        )
        assert run(cfg, out_dir=tmp_path) == 0
        header, columns, rows = read_table(tmp_path / "blowdown.csv")
        assert columns == ["psi", "term", "predicted", "measured"]
        assert any(line.startswith("slope = ") for line in header)
        applicable = [
            r for r in rows if r[2] != "nan" and r[1] in ("entropy", "pairing")
        ]
        assert applicable
        for r in applicable:
            assert np.isclose(float(r[2]), float(r[3]), rtol=1e-6)


class TestOracleCommand:
    def test_ratio_table(self, tmp_path):
        sec = "[oracle]\nscales = 1e-3, 1e-5\n"
        cfg = parse_config(
            config_text("oracle", beta=10.0 * math.pi, gamma=1.0, m1=1.0,
                        m2=2.0 * math.pi, grid_n=2048, section=sec)
        )
        assert run(cfg, out_dir=tmp_path) == 0
        _, columns, rows = read_table(tmp_path / "oracle.csv")
        assert columns == ["psi", "ratio", "limit", "rel_err"]
        assert len(rows) == 2
        assert float(rows[0][2]) == 1.0
        rels = [float(r[3]) for r in rows]
        assert rels[0] < 2e-3
        assert rels[1] < rels[0]


class TestFunctionalCommand:
    def test_ladder_table(self, tmp_path):
        cfg = parse_config(
            config_text("functional", m1=30.0, m2=1.0, grid_n=1024)
        )
        assert run(cfg, out_dir=tmp_path) == 0
        _, columns, rows = read_table(tmp_path / "functional.csv")
        assert columns == ["psi", "entropy", "interaction", "dirichlet",
                           "log_terms", "total", "moser_trudinger"]
        mt = np.array([float(r[-1]) for r in rows])
        assert np.all(np.diff(mt) < 0.0)
        totals = np.array([float(r[-2]) for r in rows])
        # asymptotic slope against ln(psi) is the Lambda value at (30, 1)
        slope = np.polyfit(np.log([float(r[0]) for r in rows[2:]]), totals[2:], 1)[0]
        assert np.isclose(slope, -4.0704278058391825, rtol=1e-4)


class TestDeterminism:
    def test_identical_bytes_across_runs_and_threads(self, tmp_path):
        sec = "[sweep]\nm1_range = 0, 40\nm2_range = 0, 40\nresolution = 25\n"
        cfg = parse_config(config_text("sweep", gamma=1.0, section=sec))
        run(cfg, out_dir=tmp_path / "a")
        run(cfg, out_dir=tmp_path / "b")
        run(cfg, out_dir=tmp_path / "c")
        for name in ("sweep.csv", "sweep_curves.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            c = (tmp_path / "c" / name).read_bytes()
            assert a == b == c


class TestMain:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "nope.cfg")]) == 3
        assert "cannot read config" in capsys.readouterr().err

    def test_config_error_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(config_text("classify", theta=0))
        assert main(["--config", str(path)]) == 3
        assert "configuration error" in capsys.readouterr().err

    def test_unknown_key_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(config_text("classify") + "wibble = 3\n")
        assert main(["--config", str(path)]) == 3
        assert "wibble" in capsys.readouterr().err

    def test_divergence_exit(self, tmp_path, capsys):
        path = tmp_path / "diverge.cfg"
        path.write_text(config_text("steady", m1=30.0, m2=1.0, grid_n=256))
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 2
        assert "solver failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ranges",
        [
            "m1_range = 0, 40\nm2_range = 0, nan\n",
            "m1_range = 0, inf\nm2_range = 0, 40\n",
        ],
    )
    def test_non_finite_sweep_range_exit(self, tmp_path, capsys, ranges):
        path = tmp_path / "bad.cfg"
        sec = "[sweep]\n" + ranges + "resolution = 8\n"
        path.write_text(config_text("sweep", section=sec))
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 3
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_negative_second_mass_range_is_nonpositive_mass(self, tmp_path):
        sec = "[sweep]\nm1_range = 0, 40\nm2_range = -1, 40\nresolution = 8\n"
        with pytest.raises(NonpositiveMass):
            run(parse_config(config_text("sweep", section=sec)), out_dir=tmp_path)

    def test_success_exit(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text(config_text("classify"))
        assert main(["--config", str(path), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "classify.csv").exists()

    def test_module_entry_point(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text(config_text("classify"))
        result = subprocess.run(
            [sys.executable, "-m", "conflictlab.cli", "--config", str(path),
             "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "classify.csv").exists()
