import json
import os

import numpy as np
import pytest

from hamelflow import cli
from hamelflow.grid import RadialGrid
from hamelflow.nonlinear import VelocityField


def run_cfg(tmp_path, **kw):
    out = tmp_path / "out"
    defaults = dict(alpha=1.0, gamma=4.0, rho=2.5, mode_cutoff=1, panels=24,
                    epsilon=1e-3, output_dir=str(out))
    defaults.update(kw)
    return cli.RunConfig(**defaults), out


def test_parse_defaults_and_flags():
    cfg = cli.parse_config(["--gamma", "3.5", "--rho", "2.4", "--epsilon", "0.01"])
    assert cfg.gamma == 3.5 and cfg.rho == 2.4 and cfg.epsilon == 0.01
    assert cfg.family == "power"


def test_parse_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({
        "alpha": 2.0, "gamma": 3.0, "rho": 2.4, "mode_cutoff": 2,
        "forcing": {"family": "bump", "epsilon": 0.5, "coefficients": {"0": 1.0}},
    }))
    cfg = cli.parse_config(["--config", str(cfg_file), "--epsilon", "0.25"])
    assert cfg.alpha == 2.0 and cfg.family == "bump"
    assert cfg.epsilon == 0.25
    assert cfg.coefficients == {0: 1.0}


@pytest.mark.parametrize("kw,fragment", [
    (dict(gamma=1.5), "gamma"),
    (dict(rho=3.0), "rho"),
    (dict(rho=2.9, gamma=2.5), "rho"),
])
def test_invalid_parameters_exit_code(tmp_path, capsys, kw, fragment):
    cfg, _ = run_cfg(tmp_path, **kw)
    assert cli.run(cfg) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "parameters outside Theorem hypotheses" in err
    assert fragment in err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    # `threads` is no RunConfig field: the per-mode solves always run serially
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"threads": 2}))
    assert cli.main(["--config", str(cfg_file)]) == cli.EXIT_CONFIG
    assert "unknown config key 'threads'" in capsys.readouterr().err


@pytest.mark.parametrize("config,fragment", [
    ({"forcing": {"family": "bump", "n_modes": 3}}, "unexpected keyword argument 'n_modes'"),
    ({"forcing": {"family": "power", "foo": 1}}, "unexpected keyword argument 'foo'"),
    ({"mode_cutoff": "2"}, "mode_cutoff='2' must be of type int"),
    ({"mode_cutoff": 2, "forcing": {"coefficients": {"5": 1}}},
     "mode cutoff 2 drops every nonzero forcing coefficient"),
    ({"mode_cutoff": 0, "forcing": {"family": "random", "n_modes": -1}},
     "n_modes=-1 must be >= 0"),
    ({"forcing": {"coefficients": [1, 2]}}, "coefficients=[1, 2] must map modes to numbers"),
    ({"coefficients": {"1": [1]}}, "coefficients={'1': [1]} must map modes to numbers"),
], ids=["bump-n_modes", "power-foo", "mode_cutoff-str", "power-truncated",
        "random-n_modes-negative", "coefficients-list", "coefficient-list"])
def test_bad_config_file_exits_2(tmp_path, capsys, config, fragment):
    # a family option the family does not take, a value of the wrong type,
    # a malformed coefficient map, and a forcing that the mode cutoff would
    # truncate to nothing
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg_file), "--output-dir", str(out)]) == cli.EXIT_CONFIG
    assert fragment in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ['[1, 2]', '{"1": [1]}'])
def test_malformed_coefficients_flag_exits_2(tmp_path, capsys, flag):
    out = tmp_path / "out"
    argv = ["--coefficients", flag, "--output-dir", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "must map modes to numbers" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_family_lists_families(tmp_path, capsys):
    cfg, _ = run_cfg(tmp_path, family="vortex-soup")
    assert cli.run(cfg) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    for name in ("power", "bump", "random"):
        assert name in err


def test_inadmissible_envelope_rejected(tmp_path, capsys):
    cfg, _ = run_cfg(tmp_path, family_options={"f_exponent": -1.2})
    assert cli.run(cfg) == cli.EXIT_CONFIG
    assert "envelope" in capsys.readouterr().err


def test_zero_amplitude_run(tmp_path):
    cfg, out = run_cfg(tmp_path, epsilon=0.0)
    assert cli.run(cfg) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["picard"]["iterations"] == 1
    assert summary["picard"]["converged"] is True
    assert summary["solution_norms"]["x_rho"] == 0.0
    assert summary["decay_fit"] is None


def test_converged_run_artifacts(tmp_path):
    cfg, out = run_cfg(tmp_path)
    assert cli.run(cfg) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["picard"]["converged"] is True
    assert summary["weak_residual"] < 1e-5
    assert "decay_fit" in summary and "slope" in summary["decay_fit"]
    assert summary["lambda_formula_c0_1"] > 0

    decay = (out / "decay.csv").read_text().splitlines()
    assert decay[0] == "r,amplitude"
    r, amp = zip(*(map(float, line.split(",")) for line in decay[1:]))
    assert len(r) == 24 * 8 + 2
    assert all(a >= 0 for a in amp)

    profiles = sorted(os.listdir(out / "profiles"))
    assert "mode_+0_vr.csv" in profiles and "mode_-1_v3.csv" in profiles
    header = (out / "profiles" / "mode_+1_vt.csv").read_text().splitlines()[0]
    assert header == "r,re,im"


def test_byte_identical_summaries(tmp_path):
    cfg_a, out_a = run_cfg(tmp_path, family="random", seed=11)
    cli.run(cfg_a)
    first = (out_a / "summary.json").read_bytes()
    cli.run(cfg_a)
    assert (out_a / "summary.json").read_bytes() == first


def test_summary_config_records_family_options(tmp_path):
    # n_modes changes the forcing, so two runs that differ only there must
    # write different config blocks
    summaries = []
    for n_modes in (1, 3):
        cfg_file = tmp_path / f"run{n_modes}.json"
        cfg_file.write_text(json.dumps(
            {"mode_cutoff": 3, "forcing": {"family": "random", "n_modes": n_modes}}))
        out = tmp_path / f"out{n_modes}"
        assert cli.main(["--config", str(cfg_file), "--output-dir", str(out)]) == cli.EXIT_OK
        summaries.append(json.loads((out / "summary.json").read_text()))
    one, three = summaries
    assert one["config"]["family_options"] == {"n_modes": 1}
    assert three["config"]["family_options"] == {"n_modes": 3}
    assert one["config"] != three["config"]
    assert one["solution_norms"]["x_rho"] != three["solution_norms"]["x_rho"]


def test_non_contraction_exit_with_diagnostics(tmp_path, capsys):
    cfg, out = run_cfg(tmp_path, epsilon=1000.0, max_iter=20)
    assert cli.run(cfg) == cli.EXIT_NO_CONTRACTION
    assert "outside contraction regime" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert "error" in summary
    assert len(summary["picard"]["contraction_factors"]) >= 3


def test_main_entrypoint_config_error(capsys):
    assert cli.main(["--gamma", "1.0"]) == cli.EXIT_CONFIG


def test_boundary_error_exit_with_summary(tmp_path, capsys):
    # the CLI defaults at r_max = 100 fail mode 1's moment identity (modes are
    # solved in 0..N order, so the error names mode 1, not its mirror -1)
    out = tmp_path / "out"
    assert cli.main(["--r-max", "100", "--output-dir", str(out)]) == cli.EXIT_BOUNDARY
    assert "moment residual" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert "moment residual" in summary["error"]
    assert summary["config"]["r_max"] == 100.0


def _old_profile_writer(prof_dir, fieldv):
    """The line-by-line f-string writer the template writer replaced."""
    r = fieldv.grid.r_nodes
    N = fieldv.cutoff
    for n in range(-N, N + 1):
        for tag, values in zip(("vr", "vt", "v3"), fieldv.values[n + N]):
            lines = ["r,re,im"]
            for j in range(len(r)):
                lines.append(f"{r[j]:.17g},{values[j].real:.17g},{values[j].imag:.17g}")
            (prof_dir / f"mode_{n:+d}_{tag}.csv").write_text("\n".join(lines) + "\n")


def test_profile_writer_bytes_and_round_trip(tmp_path):
    grid = RadialGrid.build(4, 4, 50.0)
    rng = np.random.default_rng(3)
    m = grid.n_nodes
    special = np.array([0.0, -0.0, -1.5, 1e-300, -3e-300, 5e-324, 1.0 / 3.0, -2.0 ** 60])
    fieldv = VelocityField.zero(grid, 2)
    for n in range(-2, 3):
        for k in range(3):
            re = rng.normal(size=m) * 10.0 ** rng.integers(-300, 300, size=m)
            im = rng.normal(size=m)
            re[:special.size] = special
            im[-special.size:] = special[::-1]
            if (n + k) % 4 == 0:
                re, im = np.zeros(m), np.zeros(m)
            fieldv.values[n + 2, k] = re + 1j * im

    new_dir, old_dir = tmp_path / "new", tmp_path / "old"
    cli._write_profiles(new_dir, fieldv)
    old_dir.mkdir()
    _old_profile_writer(old_dir, fieldv)
    written = sorted(p.name for p in (new_dir / "profiles").iterdir())
    assert written == sorted(p.name for p in old_dir.iterdir())
    assert len(written) == 15
    for name in written:
        assert (new_dir / "profiles" / name).read_bytes() == (old_dir / name).read_bytes()

    for n, trip in enumerate(fieldv.values, start=-2):
        for tag, values in zip(("vr", "vt", "v3"), trip):
            lines = (new_dir / "profiles" / f"mode_{n:+d}_{tag}.csv").read_text().splitlines()
            assert lines[0] == "r,re,im"
            rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
            assert np.array_equal(rows[:, 0], grid.r_nodes)
            assert np.array_equal(rows[:, 1], values.real)
            assert np.array_equal(rows[:, 2], values.imag)
            assert np.array_equal(np.signbit(rows[:, 1:]),
                                  np.signbit(np.column_stack((values.real, values.imag))))


@pytest.mark.parametrize("argv,reason", [
    (["--mode-cutoff", "0", "--r-max", "4"], "strictly inside"),
    (["--mode-cutoff", "0", "--panels", "2", "--r-max", "100"], "collapsed"),
])
def test_converged_run_without_room_for_test_functions(tmp_path, argv, reason):
    # the weak residual's bump support (2, 4) does not fit these grids: the
    # converged solve is still written, with a null residual and the reason
    out = tmp_path / "out"
    assert cli.main(argv + ["--output-dir", str(out)]) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["picard"]["converged"]
    assert summary["weak_residual"] is None
    assert reason in summary["weak_residual_error"]
    assert sorted(p.name for p in (out / "profiles").iterdir()) == [
        "mode_+0_v3.csv", "mode_+0_vr.csv", "mode_+0_vt.csv"]
