import numpy as np
import pytest

from llglab.cli import main
from llglab.fields import as_complex_components, load_snapshot, make_grid, save_snapshot
from llglab.initial_data import spectral_bump
from llglab.morrey import morrey_norm

TWO_PI = 2.0 * np.pi


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


class TestRunCommand:
    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[grid]\ndim = 2\nn = 16\nlength = 1.0\nwhat = 3\n")
        assert main(["run", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("section,body", [
        ("grid", "[grid]\ndim = 2\nn = 12\nlength = 1.0\n"),
        ("initial_data", "[grid]\ndim = 2\nn = 16\nlength = 1.0\n"
                         "[initial_data]\nkind = equatorial_wave\nm_infinity = 0 0 2\n"),
    ], ids=["grid", "initial_data"])
    def test_invalid_section_value_exit_code(self, tmp_path, capsys, section, body):
        bad = tmp_path / "bad.cfg"
        bad.write_text(body + "[experiments]\nchecks = exponent_window\n[output]\ndir = o\n")
        assert main(["run", "--config", str(bad)]) == 2
        assert f"config error: [{section}]" in capsys.readouterr().err
