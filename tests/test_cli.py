import itertools
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamelflow import cli
from hamelflow.forcing import build_family
from hamelflow.grid import RadialGrid
from hamelflow.nonlinear import VelocityField, picard_iterate

ARTIFACTS = ["decay.csv", "profiles.npy", "summary.json"]


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
    ([1], "must hold a JSON object"),
    ({"forcing": [1]}, "forcing=[1] must be a JSON object"),
    ({"forcing": {"family": "power", "f_exponent": float("nan")}},
     "divergence forcing has a non-finite value at mode 0 (rr)"),
    ({"alpha": 10 ** 400}, "alpha is too large for a float"),
    ({"panels": True}, "panels=True must be of type int"),
    ({"alpha": False, "mode_cutoff": True}, "alpha=False must be of type float"),
    ({"mode_cutoff": True}, "mode_cutoff=True must be of type int"),
    ({"forcing": {"epsilon": True}}, "epsilon=True must be of type float"),
    ({"forcing": {"coefficients": {"0": True, "1": 1.0}}}, "must map modes to numbers"),
    ({"mode_cutoff": 3, "forcing": {"family": "random", "n_modes": True}},
     "n_modes=True must be a number"),
], ids=["bump-n_modes", "power-foo", "mode_cutoff-str", "power-truncated",
        "random-n_modes-negative", "coefficients-list", "coefficient-list",
        "top-level-list", "forcing-list", "power-f_exponent-nan", "alpha-overflow",
        "panels-bool", "alpha-bool", "mode_cutoff-bool", "epsilon-bool", "coefficient-bool",
        "n_modes-bool"])
def test_bad_config_file_exits_2(tmp_path, capsys, config, fragment):
    # a family option the family does not take, a value of the wrong type
    # (a JSON boolean in a numeric field among them), a malformed coefficient
    # map, a forcing that the mode cutoff would truncate to nothing, a config
    # or forcing block that is no JSON object, a family option that makes the
    # forcing non-finite, and a float field holding an integer too large for
    # a float
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg_file), "--output-dir", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert fragment in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_missing_config_file_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    missing = tmp_path / "absent.json"
    assert cli.main(["--config", str(missing), "--output-dir", str(out)]) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flag", ['[1, 2]', '{"1": [1]}', '{"0": true, "1": false}'])
def test_malformed_coefficients_flag_exits_2(tmp_path, capsys, flag):
    out = tmp_path / "out"
    argv = ["--coefficients", flag, "--output-dir", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "must map modes to numbers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,fragment", [
    (["--epsilon", "nan"], "epsilon=nan must be finite"),
    (["--coefficients", '{"0": NaN}'], "coefficients={'0': nan} must be finite"),
    (["--coefficients", '{"1": -Infinity}'], "coefficients={'1': -inf} must be finite"),
    (["--r-max", "inf"], "r_max=inf must be finite"),
    (["--r-max", "nan"], "r_max=nan must be finite"),
    (["--alpha", "nan"], "alpha=nan must be finite"),
    (["--alpha", "inf"], "alpha=inf must be finite"),
    (["--gamma", "inf"], "gamma=inf must be finite"),
    (["--tol", "nan"], "tol=nan must be finite"),
    (["--max-iter", "0"], "max_iter=0 must be >= 1"),
    (["--max-iter", "-3"], "max_iter=-3 must be >= 1"),
])
def test_non_finite_value_or_no_step_exits_2(tmp_path, capsys, argv, fragment):
    # rejected before any solve: not a zero "converged" field, an assert
    # traceback from the grid, NaN Picard steps or "did not reach tol in 0 steps"
    out = tmp_path / "out"
    assert cli.main(argv + ["--output-dir", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err
    assert err.count("\n") == 1
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

    assert sorted(os.listdir(out)) == ARTIFACTS

    decay = (out / "decay.csv").read_text().splitlines()
    assert decay[0] == "r,amplitude"
    r, amp = zip(*(map(float, line.split(",")) for line in decay[1:]))
    assert len(r) == 24 * 8 + 2
    assert all(a >= 0 for a in amp)

    # modes 0..N only (mode -n is the conjugate of mode n) at decay.csv's radii,
    # bit for bit the field that picard_iterate solves for the same config
    profiles = np.load(out / "profiles.npy")
    assert profiles.dtype == np.complex128 and profiles.shape == (2, 3, len(r))
    params = cfg.validate()
    grid = RadialGrid.build(cfg.panels, cfg.gauss_order, cfg.r_max)
    forcing = build_family(cfg.family, grid, params, cfg.epsilon,
                           coefficients=cfg.coefficients, seed=cfg.seed, cutoff=cfg.mode_cutoff)
    fieldv, _ = picard_iterate(forcing, params, grid, max_iter=cfg.max_iter, tol=cfg.tol)
    assert np.array_equal(np.array(r), grid.r_nodes)
    assert np.array_equal(profiles.view(np.uint64), fieldv.values.view(np.uint64))


def test_byte_identical_summaries(tmp_path):
    cfg_a, out_a = run_cfg(tmp_path, family="random", seed=11)
    cli.run(cfg_a)
    first = {name: (out_a / name).read_bytes() for name in ARTIFACTS}
    cli.run(cfg_a)
    assert {name: (out_a / name).read_bytes() for name in ARTIFACTS} == first


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


@st.composite
def small_configs(draw):
    """Flags of a config drawn across the admissible range on small grids;
    grids too coarse or too short for the data, and large data, make some
    of them fail."""
    gamma = draw(st.sampled_from([2.05, 2.3, 3.0, 4.0, 8.0, 20.0]))
    rho = draw(st.floats(2.01, min(2.99, gamma)))
    values = dict(
        gamma=gamma, rho=rho,
        alpha=draw(st.sampled_from([-3.0, 0.0, 1.0, 10.0, 100.0])),
        r_max=draw(st.sampled_from([1.5, 10.0, 1e2, 1e3, 1e5])),
        family=draw(st.sampled_from(cli.FAMILIES)),
        epsilon=draw(st.sampled_from([1e-6, 1e-3, 0.1, 1.0])),
        mode_cutoff=draw(st.integers(0, 2)),
        panels=draw(st.sampled_from([1, 2, 4, 8])),
        gauss_order=draw(st.sampled_from([2, 4, 6])),
        max_iter=20,
    )
    return [x for k, v in values.items() for x in (f"--{k.replace('_', '-')}", str(v))]


_RUN_DIRS = itertools.count()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(argv=small_configs())
def test_exit_code_contract(tmp_path_factory, argv):
    # every config exits with a documented code and never a traceback; every
    # run that got past validation leaves its summary, and only a solved one
    # its arrays
    out = tmp_path_factory.getbasetemp() / f"contract{next(_RUN_DIRS)}"
    code = cli.main(argv + ["--output-dir", str(out)])
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NO_CONTRACTION, cli.EXIT_BOUNDARY)
    assert (out / "summary.json").exists() == (code != cli.EXIT_CONFIG)
    for name in ("profiles.npy", "decay.csv"):
        assert (out / name).exists() == (code == cli.EXIT_OK)


def test_main_entrypoint_config_error(capsys):
    assert cli.main(["--gamma", "1.0"]) == cli.EXIT_CONFIG


def test_uncreatable_output_dir_exits_with_one_line(tmp_path, capsys):
    # a directory under a regular file cannot be made: one error line, exit 1
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg, _ = run_cfg(tmp_path, output_dir=str(blocker / "out"))
    assert cli.run(cfg) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("blocked,kw", [
    ("summary.json", {}),
    ("profiles.npy", {}),
    ("decay.csv", {}),
    ("summary.json", dict(epsilon=1000.0, max_iter=20)),
], ids=["summary", "profiles", "decay", "summary-after-exit-3"])
def test_unwritable_artifact_exits_with_one_line(tmp_path, capsys, blocked, kw):
    # a directory where an artifact goes: the solve runs, the write fails with
    # one error line and exit 1, also when the run would have exited 3
    cfg, out = run_cfg(tmp_path, **kw)
    (out / blocked).mkdir(parents=True)
    assert cli.run(cfg) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert blocked in err and "Traceback" not in err


def test_boundary_error_exit_with_summary(tmp_path, capsys):
    # the CLI defaults at r_max = 100 fail mode 1's moment identity (modes are
    # solved in 0..N order, so the error names mode 1, not its mirror -1)
    out = tmp_path / "out"
    assert cli.main(["--r-max", "100", "--output-dir", str(out)]) == cli.EXIT_BOUNDARY
    assert "moment residual" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert "moment residual" in summary["error"]
    assert summary["config"]["r_max"] == 100.0


def _old_decay_writer(out_dir, radii, amplitude):
    """The f-string writer of decay.csv that `np.savetxt` replaced."""
    lines = ["r,amplitude"]
    for r, a in zip(radii, amplitude):
        lines.append(f"{r:.17g},{a:.17g}")
    (out_dir / "decay.csv").write_text("\n".join(lines) + "\n")


def test_profile_writer_bytes_and_round_trip(tmp_path):
    grid = RadialGrid.build(4, 4, 50.0)
    rng = np.random.default_rng(3)
    m = grid.n_nodes
    special = np.array([0.0, -0.0, -1.5, 1e-300, -3e-300, 5e-324, 1.0 / 3.0, -2.0 ** 60])
    fieldv = VelocityField.zero(grid, 2)
    for n in range(3):
        for k in range(3):
            re = rng.normal(size=m) * 10.0 ** rng.integers(-300, 300, size=m)
            im = rng.normal(size=m)
            re[:special.size] = special
            im[-special.size:] = special[::-1]
            if (n + k) % 4 == 0:
                re, im = np.zeros(m), np.zeros(m)
            fieldv.values[n, k] = re + 1j * im

    amplitudes = [np.zeros(m), np.resize(special, m),
                  np.abs(rng.normal(size=m)) * 10.0 ** rng.integers(-300, 300, size=m),
                  np.abs(rng.normal(size=m))]
    for i, amplitude in enumerate(amplitudes):
        new_dir, old_dir = tmp_path / f"new{i}", tmp_path / f"old{i}"
        new_dir.mkdir()
        old_dir.mkdir()
        cli._write_arrays(new_dir, fieldv, amplitude)
        _old_decay_writer(old_dir, grid.r_nodes, amplitude)
        assert sorted(os.listdir(new_dir)) == ["decay.csv", "profiles.npy"]
        assert (new_dir / "decay.csv").read_bytes() == (old_dir / "decay.csv").read_bytes()

        # every bit back, signed zeros and subnormals included
        profiles = np.load(new_dir / "profiles.npy")
        assert profiles.dtype == np.complex128 and profiles.shape == (3, 3, m)
        assert np.array_equal(profiles.view(np.uint64), fieldv.values.view(np.uint64))


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
    assert sorted(os.listdir(out)) == ARTIFACTS
    assert np.load(out / "profiles.npy").shape[:2] == (1, 3)
