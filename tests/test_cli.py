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
# buffer and direct gtsv calls (numpy 2.4, scipy 1.17, x86-64).  The two
# single-regime pins were re-recorded when the chemical solve moved from
# Picard to Newton: their values moved by at most 3.2e-12 relative.
PINNED_FLOWS = {
    ("single", -1, "bump"): ("ce5d8647255cdb2f001b6984b13b89c8ad9e10baf1d72c998e5ea620fee800a4", "f1e20798dbecc08fb718c4387c888edf8ca662c1fd32efd87de67635514493ad"),
    ("single", -1, "random"): ("a9fcf11603f9cb07b2a5a79739f021fc2a2853787ae57988ec521d8a43658b39", "386d1e85a2088b0c1bc7285abe04720380ce30d5c72504564e5e413f8633db66"),
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


def _sections(command, **options):
    return f"[{command}]\n" + "".join(f"{k} = {v}\n" for k, v in options.items())


_FLOW = dict(beta=0.5, gamma=1.0, m1=8.0, m2=4.0, grid_n=64)
_SWEEP = _sections("sweep", m1_range="0, 40", m2_range="0, 40", resolution=12)
_LADDER = dict(m1=30.0, m2=1.0, grid_n=128)

# Every command on a small grid: the config text and, per CSV written, the
# sha256 of its lines without the '# conflictlab <version>' line (the
# resolved-config header lines and the data lines), recorded before the
# option table and the shared blow-down ladder replaced the per-command
# branches (numpy 2.4, scipy 1.17, x86-64).  The sweep_curves.csv pins of
# the gamma > 0 sweeps were re-recorded when the lambda_zero roots moved to
# the cancellation-free form: 477 of their 5121 rows, all lambda_zero rows,
# moved by at most 8.4e-15 in m2.  The flow-single pins were re-recorded
# when the chemical solve moved from Picard to Newton: its values moved by
# at most 1.7e-12 relative.
PINNED_TABLES = {
    "classify-conflict": (config_text("classify"), {
        "classify.csv": "51c6559c9e3f23c55746426b1500f8205d06e63f000d50cef3f27b979b921e1e",
    }),
    "classify-cooperative": (config_text("classify", beta=0.4, gamma=1.0, theta=1, m1=10.0, m2=5.0), {
        "classify.csv": "030a44f7a9ce130701ef790752479559e55c75ff55dda6d675c90e9eedeafad7",
    }),
    "sweep-conflict": (config_text("sweep", gamma=1.0, section=_SWEEP), {
        "sweep.csv": "cf8a930956d09595bf4e4fb86b41b76a4761116ac3deeeb335f15d78659282b2",
        "sweep_curves.csv": "5beb77ea9effcabc491f2224cc305aca413aad70e685a160dc00b6fd6f8a6316",
    }),
    "sweep-cooperative": (config_text("sweep", gamma=1.0, theta=1, section=_SWEEP), {
        "sweep.csv": "5484791f22591624146757b58cbdbb8a6b57cb34f24dc04f55294275f60c607e",
        "sweep_curves.csv": "f13e53efe09f748d0547c257448ebab7d393ec46c2f5c58d97f175fbccef3196",
    }),
    "sweep-gamma0": (config_text("sweep", section=_SWEEP), {
        "sweep.csv": "4d7727e160de281dd233bf2fb1c56d9aa99157bee995a68e99055e4f60208290",
        "sweep_curves.csv": "c1557d11e614aa6678dadb73fcddf9870cce91e418dddd36d5899afd35ad9573",
    }),
    "steady": (config_text("steady", beta=0.0, m1=4.0 * math.pi, m2=0.0, grid_n=256), {
        "steady.csv": "bcc0b8ecfcb360d56feae6d3e0406b15de0800793796119f80e1a9d4a4cdc780",
    }),
    "blowdown-full": (config_text("blowdown", **_LADDER), {
        "blowdown.csv": "a553fe892fe2bca597f58b87a28512163cdeda1fb11620c4884d34da7dd3b09f",
    }),
    "blowdown-half": (config_text("blowdown", **_LADDER, section=_sections("blowdown", mode="half")), {
        "blowdown.csv": "71ee6c1532f345593d4cff9f2f5e4936a9389568d3fef51b60b6067b1cb3c8bb",
    }),
    "blowdown-psis": (config_text("blowdown", **_LADDER, section=_sections("blowdown", psis="1.5, 3, 9, 27, 81")), {
        "blowdown.csv": "9600acbe88fbe64e729b84ca48eb63ab8edc96a58e51889bcfd2bbd1b552d277",
    }),
    "functional-full": (config_text("functional", **_LADDER), {
        "functional.csv": "25d83e0749a308bd6320500283f72734ad2fe3179171470a21dcc2b8e29afe73",
    }),
    "functional-half": (config_text("functional", **_LADDER, section=_sections("functional", mode="half")), {
        "functional.csv": "a77286bac0c0a46d6a898f3be99ae1aafaf534f93c42fcccd17b5757a62313a4",
    }),
    "functional-psis": (config_text("functional", **_LADDER, section=_sections("functional", psis="1, 2, 8, 4, 1024")), {
        "functional.csv": "7cdd8770a265ed1af79441d5339cef742945f99e1f777ff34c974541b69fa484",
    }),
    "oracle": (config_text("oracle", beta=10.0 * math.pi, gamma=1.0, m1=1.0, m2=2.0 * math.pi, grid_n=1000), {
        "oracle.csv": "5e69503c07aedf7d9fa78c51e25a95af3d0ffb2c172acb5c34f80c4a727b4ec4",
    }),
    "flow-single": (config_text("flow", **_FLOW, section=_sections("flow", case="single", dt=0.001, t_end=0.05)), {
        "flow_trace.csv": "23a3b4b227cd3b764cfe085824328aac22e54d03622c3454dc8c628902ab5986",
        "flow_state.csv": "43feaa64ee4c526b79930ede0813d93c77eb04c1162ff390b7b786ebafe4c890",
    }),
    "flow-pair": (config_text("flow", **_FLOW, theta=1, section=_sections("flow", case="pair", dt=0.001, t_end=0.05, adapt="no", init="random")), {
        "flow_trace.csv": "add0c4eaffdd8917e66f0c8d1240f38939f1b83d42a58ba38afea74df3ea8cca",
        "flow_state.csv": "87a24db700193cf3dc4208c4b8f4841e2e7bc38d7aae9b93f265d5a48ab63131",
    }),
    "flow-potentials": (config_text("flow", **_FLOW, section=_sections("flow", case="potentials", dt=0.001, t_end=0.05)), {
        "flow_trace.csv": "d1b6f25afc04d160774a657caf45af2b5aa9aea313dbd36932372952937a7b5b",
        "flow_state.csv": "428dfbbeb917817af8347a0f1b4f02891891329496303c7789022047b540ac9c",
    }),
}


def _table_digest(path):
    lines = path.read_text().splitlines(keepends=True)
    kept = "".join(line for line in lines if not line.startswith("# conflictlab "))
    return hashlib.sha256(kept.encode()).hexdigest()


@pytest.mark.parametrize("name", list(PINNED_TABLES))
def test_command_csvs_are_pinned(tmp_path, name):
    text, pins = PINNED_TABLES[name]
    assert run(parse_config(text), out_dir=tmp_path, seed=7) == 0
    written = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert written == sorted(pins)
    assert {f: _table_digest(tmp_path / f) for f in pins} == pins


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

    def test_undecodable_config_file(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"\xff\xfe[run]\n")
        assert main(["--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("cannot read config") and err.count("\n") == 1

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
