import numpy as np
import pytest

from llglab.cgl import CglConfig
from llglab.cli import build_parser, main
from llglab.fields import as_complex_components, load_snapshot, make_grid, save_snapshot
from llglab.initial_data import InitialDataSpec, spectral_bump
from llglab.llg import LlgConfig
from llglab.morrey import morrey_norm
from llglab.semigroup import DECAY_C_MAX, DECAY_GRID, DECAY_NUM_T

TWO_PI = 2.0 * np.pi


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


class TestParserDefaults:
    def test_cgl_solve_defaults_are_the_config_fields(self):
        args = build_parser().parse_args(["cgl", "solve", "--v0", "v0.llgf"])
        cfg = CglConfig(lam=args.lam)
        assert (args.p, args.t_end, args.steps, args.tol, args.substeps) == (
            cfg.p, cfg.t_end, cfg.time_steps, cfg.picard_tol, cfg.duhamel_substeps)

    def test_llg_run_defaults_are_the_config_fields(self):
        args = build_parser().parse_args(["llg", "run"])
        spec = InitialDataSpec(kind=args.kind)
        assert (args.amplitude, args.wavenumber, args.width, args.mollification_k) == (
            spec.amplitude, spec.wavenumber, spec.width, spec.mollification_k)
        grid = make_grid(args.dim, args.n, args.length)
        assert args.scheme == LlgConfig(grid=grid, lam=args.lam, t_end=args.t_end,
                                        dt=1e-6).scheme

    def test_verify_semigroup_defaults_are_the_semigroup_owners(self):
        args = build_parser().parse_args(["verify-semigroup"])
        assert (args.dim, args.n, args.length) == DECAY_GRID
        assert (args.num_t, args.c_max) == (DECAY_NUM_T, DECAY_C_MAX)


class TestVerifySemigroup:
    def test_writes_csv_and_passes(self, tmp_path):
        out = tmp_path / "decay"
        code = main(["verify-semigroup", "--dim", "2", "--n", "32",
                     "--p", "2", "--p-tilde", "2", "--q", "2",
                     "--out", str(out)])
        assert code == 0
        csv = out / "decay_p2_pt2_q2.csv"
        assert csv.exists()
        lines = csv.read_text().splitlines()
        assert lines[0] == "t,norm,compensated_ratio"
        assert len(lines) == 14

    def test_gradient_flag_names_file(self, tmp_path):
        out = tmp_path / "decay"
        code = main(["verify-semigroup", "--n", "64", "--p", "2",
                     "--p-tilde", "4", "--gradient", "--out", str(out)])
        assert code == 0
        assert (out / "decay_p2_pt4_q2_grad.csv").exists()

    def test_same_datum_as_runner_check(self, tmp_path):
        cfg = tmp_path / "decay.cfg"
        cfg.write_text("[grid]\ndim = 1\nn = 16\nlength = 6.283185307179586\n"
                       "[experiments]\nchecks = semigroup_decay\n"
                       f"[output]\ndir = {tmp_path / 'run'}\n")
        assert main(["run", "--config", str(cfg)]) == 0
        assert main(["verify-semigroup", "--p", "2", "--p-tilde", "4", "--gradient",
                     "--out", str(tmp_path / "cli")]) == 0
        run_csv = (tmp_path / "run" / "decay_p2_pt4_grad.csv").read_bytes()
        assert run_csv == (tmp_path / "cli" / "decay_p2_pt4_q2_grad.csv").read_bytes()

    @pytest.mark.parametrize("flags", [["--n", "12"], ["--lambda", "-1"], ["--q", "5"],
                                       ["--c-max", "nan"], ["--c-max", "-1"]],
                             ids=["bad_n", "negative_lambda", "bad_q",
                                  "nan_c_max", "negative_c_max"])
    def test_invalid_input_exit_code(self, tmp_path, capsys, flags):
        code = main(["verify-semigroup", "--n", "16", "--out", str(tmp_path / "d")] + flags)
        assert code == 2
        assert_one_error_line(capsys)


class TestLlgRun:
    def test_ledger_and_snapshots(self, tmp_path):
        out = tmp_path / "llg"
        code = main(["llg", "run", "--dim", "1", "--n", "32",
                     "--kind", "equatorial_wave", "--amplitude", "0.1",
                     "--lambda", "1.0", "--T", "0.02", "--dt-fraction", "1.0",
                     "--outputs", "5", "--snapshot-every", "2",
                     "--out-dir", str(out)])
        assert code == 0
        ledger = (out / "ledger.csv").read_text().splitlines()
        assert ledger[0] == "t,E,dissipation,sup_grad,morrey22"
        assert len(ledger) == 6
        assert (out / "m_0000.llgf").exists()
        assert (out / "m_0002.llgf").exists()
        assert not (out / "m_0001.llgf").exists()


    @pytest.mark.parametrize("flags", [
        ["--dt", "-1"],
        ["--lambda", "-1"],
        ["--outputs", "0"],
        ["--dt-fraction", "0"],
        ["--amplitude", "nan"],
        ["--dt", "1e-5", "--dt-fraction", "0.5"],
        ["--snapshot-every", "-1"],
        ["--kind", "rough_mollified", "--mollification-k", "1e200"],
    ], ids=["negative_dt", "lambda_minus_one", "zero_outputs", "zero_dt_fraction",
            "nan_amplitude", "dt_and_dt_fraction", "negative_snapshot_every",
            "mollification_k_square_overflows"])
    def test_invalid_input_exit_code(self, tmp_path, capsys, flags):
        code = main(["llg", "run", "--dim", "1", "--n", "16", "--T", "0.01",
                     "--out-dir", str(tmp_path / "llg")] + flags)
        assert code == 2
        assert_one_error_line(capsys)


class TestCglSolve:
    def _write_v0(self, tmp_path, scale=1e-3):
        g = make_grid(2, 16, TWO_PI)
        x, y = g.coordinates()
        bump = spectral_bump(g, width=0.5)
        v0 = np.zeros((2,) + g.shape, dtype=complex)
        v0[0] = bump * np.exp(1j * x)
        v0[1] = 0.5j * bump * np.exp(1j * (x + y))
        v0 *= scale / morrey_norm(g, v0, 2.0, 2.0).value
        path = tmp_path / "v0.llgf"
        save_snapshot(path, g, v0)
        return g, v0, path

    def test_solve_writes_iterations_and_snapshots(self, tmp_path):
        g, v0, path = self._write_v0(tmp_path)
        out = tmp_path / "cgl"
        code = main(["cgl", "solve", "--p", "3.2", "--lambda", "1.0",
                     "--T", "0.2", "--steps", "4", "--substeps", "2",
                     "--tol", "1e-10", "--v0", str(path), "--out", str(out)])
        assert code == 0
        lines = (out / "iterations.csv").read_text().splitlines()
        assert lines[0] == "iter,increment,xpt_R1,xpt_R2,xpt_R3"
        assert (out / "times.csv").exists()
        final = out / "u_0004.llgf"
        assert final.exists()
        g2, comps = load_snapshot(final)
        assert as_complex_components(comps).shape == (2,) + g2.shape

    def test_component_mismatch_exits_nonzero(self, tmp_path):
        g = make_grid(2, 16, TWO_PI)
        path = tmp_path / "bad.llgf"
        save_snapshot(path, g, np.zeros((3,) + g.shape))  # 3 real components
        code = main(["cgl", "solve", "--v0", str(path), "--out",
                     str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("flags", [["--tol", "-1"], ["--T", "nan"]],
                             ids=["negative_tol", "nan_t_end"])
    def test_invalid_input_exit_code(self, tmp_path, capsys, flags):
        _, _, path = self._write_v0(tmp_path)
        code = main(["cgl", "solve", "--v0", str(path), "--out",
                     str(tmp_path / "o")] + flags)
        assert code == 2
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("content", [None, b"", b"LLGF"], ids=["missing", "empty", "truncated"])
    def test_unreadable_snapshot_exit_code(self, tmp_path, capsys, content):
        path = tmp_path / "v0.llgf"
        if content is not None:
            path.write_bytes(content)
        assert main(["cgl", "solve", "--v0", str(path), "--out", str(tmp_path / "o")]) == 2
        assert_one_error_line(capsys)


class TestRunCommand:
    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[grid]\ndim = 2\nn = 16\nlength = 1.0\nwhat = 3\n")
        assert main(["run", "--config", str(bad)]) == 2

    def test_non_utf8_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"\xff\xfe")
        assert main(["run", "--config", str(bad)]) == 2
        assert "config error: malformed config" in capsys.readouterr().err

    def test_bad_seed_env_exit_code(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("[grid]\ndim = 1\nn = 16\nlength = 1.0\n"
                       "[experiments]\nchecks = exponent_window mollify\n[output]\n")
        monkeypatch.setenv("LLGLAB_SEED", "abc")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error: LLGLAB_SEED = 'abc'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["config", "env"])
    def test_negative_seed_exit_code(self, tmp_path, capsys, monkeypatch, where):
        # a negative seed used to fail only when a check drew random data
        cfg = tmp_path / "ok.cfg"
        seed = "seed = -1\n" if where == "config" else ""
        cfg.write_text("[grid]\ndim = 1\nn = 16\nlength = 1.0\n"
                       "[experiments]\nchecks = mollify\n[output]\n" + seed)
        if where == "env":
            monkeypatch.setenv("LLGLAB_SEED", "-2")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        message = "[output] seed = '-1'" if where == "config" else "LLGLAB_SEED = '-2'"
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section,body", [
        ("grid", "[grid]\ndim = 2\nn = 12\nlength = 1.0\n"),
        ("initial_data", "[grid]\ndim = 2\nn = 16\nlength = 1.0\n"
                         "[initial_data]\nkind = equatorial_wave\nm_infinity = 0 0 2\n"),
        ("initial_data", "[grid]\ndim = 2\nn = 16\nlength = 1.0\n"
                         "[initial_data]\nkind = equatorial_wave\namplitude = nan\n"),
        ("initial_data", "[grid]\ndim = 2\nn = 16\nlength = 1.0\n"
                         "[initial_data]\nkind = bump_chart\nwidth = nan\n"),
        ("initial_data", "[grid]\ndim = 2\nn = 16\nlength = 1.0\n"
                         "[initial_data]\nkind = bump_chart\namplitude = inf\n"),
        ("initial_data", "[grid]\ndim = 2\nn = 16\nlength = 1.0\n"
                         "[initial_data]\nkind = rough_mollified\nmollification_k = 1e200\n"),
    ], ids=["grid", "initial_data", "nan_amplitude", "nan_width", "inf_amplitude",
            "mollification_k_square_overflows"])
    def test_invalid_section_value_exit_code(self, tmp_path, capsys, section, body):
        bad = tmp_path / "bad.cfg"
        bad.write_text(body + "[experiments]\nchecks = exponent_window\n[output]\ndir = o\n")
        assert main(["run", "--config", str(bad)]) == 2
        assert f"config error: [{section}]" in capsys.readouterr().err

    @pytest.mark.parametrize("llg_body,message", [
        ("lambda = -1\nt_end = 0.01\ndt_fraction = 0.5\n", "[llg] damping parameter lam"),
        ("lambda = 1\nt_end = 0.01\ndt_fraction = 0.5\noutputs = 0\n", "[llg] outputs"),
        ("lambda = 1\nt_end = 0.01\ndt_fraction = 0.5\noutputs = 1\n", "[llg] outputs"),
        ("lambda = 1\nt_end = 0.01\n", "[llg] needs dt or dt_fraction"),
        ("lambda = 1\nt_end = 0.01\ndt = 1e-5\ndt_fraction = 0.5\n", "[llg] sets both"),
    ], ids=["lambda_before_dt_fraction", "zero_outputs", "one_output", "no_step",
            "dt_and_dt_fraction"])
    def test_invalid_llg_section_exit_code(self, tmp_path, capsys, llg_body, message):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[grid]\ndim = 1\nn = 16\nlength = 1.0\n[llg]\n" + llg_body
                       + "[experiments]\nchecks = energy\n[output]\ndir = o\n")
        assert main(["run", "--config", str(bad)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    def test_check_listed_twice_exit_code(self, tmp_path, capsys):
        # it used to run twice and write two summary rows
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("[grid]\ndim = 1\nn = 16\nlength = 1.0\n"
                       "[experiments]\nchecks = exponent_window exponent_window\n[output]\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert ("config error: [experiments] checks lists 'exponent_window' twice"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_empty_output_dir_exit_code(self, tmp_path, capsys, monkeypatch):
        # Path("") is ".": the CSVs used to land in the working directory
        cfg = tmp_path / "empty_dir.cfg"
        cfg.write_text("[grid]\ndim = 1\nn = 16\nlength = 1.0\n"
                       "[experiments]\nchecks = exponent_window\n[output]\ndir =\n")
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 2
        assert "config error: [output] dir is empty" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["empty_dir.cfg"]

    def test_out_flag_overrides_the_configured_dir(self, tmp_path, monkeypatch):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("[grid]\ndim = 1\nn = 16\nlength = 1.0\n"
                       "[experiments]\nchecks = exponent_window\n[output]\ndir = configured\n")
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", "given"]) == 0
        assert (tmp_path / "given" / "summary.csv").exists()
        assert not (tmp_path / "configured").exists()

    def test_cross_solver_lambda_mismatch_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        out = tmp_path / "out"
        bad.write_text("[grid]\ndim = 1\nn = 16\nlength = 1.0\n"
                       "[llg]\nlambda = 1.0\nt_end = 0.01\ndt_fraction = 0.5\n"
                       "[cgl]\nlambda = 0.5\nt_end = 0.01\n"
                       "[experiments]\nchecks = cross_solver\n[output]\n")
        assert main(["run", "--config", str(bad), "--out", str(out)]) == 2
        assert ("config error: check 'cross_solver' needs equal [llg] and [cgl] lambda"
                in capsys.readouterr().err)
        assert not out.exists()
