import sys
from dataclasses import replace

import numpy as np
import pytest

from llglab import cgl, experiments, runner
from llglab.cgl import CglConfig, NonContraction, picard_iterate
from llglab.config import ConfigError, parse_config
from llglab.experiments import (
    compare_with_mild,
    cross_validate,
    cross_validate_refinement,
    decay_report,
    direct_config,
    _uniqueness_configs,
    mild_initial_data,
    uniqueness_experiment,
)
from llglab.fields import SpinField, float_repr, make_grid
from llglab.frames import build_frame, coulomb_gauge_fix, derive_gauge
from llglab.initial_data import InitialDataSpec, generate_initial_data
from llglab.llg import LlgConfig, llg_rhs, solve, stability_cap
from llglab.runner import _write_csv, _write_picard_log, run_config, run_experiment

TWO_PI = 2.0 * np.pi


def constant_spin(grid):
    values = np.zeros((3,) + grid.shape)
    values[2] = 1.0
    return SpinField(grid, values)


class TestCrossValidate:
    def test_constant_data_zero_discrepancy(self):
        g = make_grid(2, 16, TWO_PI)
        rep = cross_validate(g, constant_spin(g), lam=1.0, t_end=0.05,
                             time_steps=4, duhamel_substeps=2)
        assert rep.sup_discrepancy == 0.0

    def test_equatorial_small_data_agreement(self):
        g = make_grid(2, 32, TWO_PI)
        m0 = generate_initial_data(
            InitialDataSpec(kind="equatorial_wave", amplitude=0.01), g)
        rep = cross_validate(g, m0, lam=1.0, t_end=0.1,
                             time_steps=8, duhamel_substeps=4, picard_tol=1e-12)
        assert rep.sup_discrepancy <= 1e-3

    def test_refinement_improves(self):
        g = make_grid(2, 32, TWO_PI)
        m0 = generate_initial_data(
            InitialDataSpec(kind="equatorial_wave", amplitude=0.01), g)
        base, fine, ratio = cross_validate_refinement(
            g, m0, lam=1.0, t_end=0.1, time_steps=8,
            duhamel_substeps=4, picard_tol=1e-12)
        assert ratio >= 2.0

    @staticmethod
    def rough_refinement():
        # a mollified rough datum, whose gradient is large enough that the
        # cubic (f1) and transport (f2) parts of the nonlinearity show in the
        # agreement; its ball norm is above the warning threshold, yet the
        # mild solve converges in a few sweeps
        g = make_grid(2, 32, TWO_PI)
        m0 = generate_initial_data(
            InitialDataSpec(kind="rough_mollified", amplitude=0.1, mollification_k=2.0),
            g, seed=3)
        return cross_validate_refinement(g, m0, lam=1.0, t_end=0.5, time_steps=16,
                                         duhamel_substeps=8, picard_tol=1e-12,
                                         smallness=np.inf)

    def test_rough_datum_refinement_improves(self):
        base, fine, ratio = self.rough_refinement()
        assert base.sup_discrepancy <= 1e-3
        assert ratio >= 2.0

    @pytest.mark.parametrize("part", ["f1", "f2"])
    def test_rough_datum_refinement_sees_a_flipped_part(self, monkeypatch, part):
        # with one part's sign flipped the mild solver solves another flow, so
        # refining no longer brings the two solvers together
        original = cgl.nonlinearity_F

        def flipped(*args, **kwargs):
            parts = original(*args, **kwargs)
            return replace(parts, **{part: -getattr(parts, part)})

        monkeypatch.setattr(cgl, "nonlinearity_F", flipped)
        _, _, ratio = self.rough_refinement()
        assert ratio < 2.0

    def test_compare_with_mild_is_the_report_of_cross_validate(self):
        # the runner's path (a kept solve, then a direct run) and
        # cross_validate's share one comparison: the same bytes
        g = make_grid(2, 16, TWO_PI)
        m0 = generate_initial_data(
            InitialDataSpec(kind="equatorial_wave", amplitude=0.01), g)
        cfg = CglConfig(lam=1.0, t_end=0.05, time_steps=4, duhamel_substeps=2,
                        picard_tol=1e-12)
        mild = picard_iterate(g, mild_initial_data(g, m0), cfg)
        direct = solve(m0, direct_config(g, 1.0, 0.05), output_times=mild.trajectory.times)
        got = compare_with_mild(g, mild, direct)
        want = cross_validate(g, m0, lam=1.0, t_end=0.05, time_steps=4,
                              duhamel_substeps=2, picard_tol=1e-12)
        assert got.times.tobytes() == want.times.tobytes()
        assert got.discrepancies.tobytes() == want.discrepancies.tobytes()
        assert (got.sup_discrepancy, got.direct_steps, got.mild_iterations) == (
            want.sup_discrepancy, want.direct_steps, want.mild_iterations)

    def test_direct_run_holds_only_the_mild_magnitudes(self):
        # the comparison reads |u| of the mild solve alone, so the solve and
        # its datum go before the direct run.  2-D N=32, 16 x 8 nodes; a
        # field is one (2, 32, 32) complex array.  Holding the solve through
        # the direct run peaked at 54.1 fields, and the mild solve's final
        # trajectory norm at 41.6; with that norm made only on read, 35.9
        import tracemalloc

        g = make_grid(2, 32, TWO_PI)
        m0 = generate_initial_data(
            InitialDataSpec(kind="equatorial_wave", amplitude=0.01), g)

        def run():
            return cross_validate(g, m0, lam=1.0, t_end=0.5, time_steps=16,
                                  duhamel_substeps=8, picard_tol=1e-12)

        run()  # warm: grid tables, ball lattices, FFT plans
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        field = 2 * g.num_points * np.dtype(complex).itemsize
        assert peak <= 46 * field, f"cross_validate peaked at {peak / field:.1f} fields"

    def test_reads_no_norm_the_comparison_does_not_need(self, monkeypatch):
        # neither the mild solve's trajectory norms nor the direct run's
        # ledger norms are made: the one ball norm is the smallness check
        calls = []
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "llglab":
                continue
            for fn in ("morrey_norm", "xpt_norm"):
                if hasattr(module, fn):
                    def spy(*args, _fn=fn, _original=getattr(module, fn), **kwargs):
                        calls.append(_fn)
                        return _original(*args, **kwargs)

                    monkeypatch.setattr(module, fn, spy)
        g = make_grid(2, 16, TWO_PI)
        m0 = generate_initial_data(
            InitialDataSpec(kind="equatorial_wave", amplitude=0.01), g)
        rep = cross_validate(g, m0, lam=1.0, t_end=0.05, time_steps=4,
                             duhamel_substeps=2, picard_tol=1e-12)
        assert rep.sup_discrepancy <= 1e-3
        assert calls == ["morrey_norm"]

    def test_refinement_rejects_zero_direct_dt(self):
        g = make_grid(2, 16, TWO_PI)
        with pytest.raises(ValueError):
            cross_validate_refinement(g, constant_spin(g), lam=1.0, t_end=0.05,
                                      direct_dt=0.0, time_steps=4, duhamel_substeps=2)

    def test_bad_direct_dt_fails_before_mild_solve(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the mild solve ran before direct_dt was checked")

        monkeypatch.setattr("llglab.experiments.picard_iterate", forbidden)
        g = make_grid(2, 16, TWO_PI)
        with pytest.raises(ValueError, match="dt"):
            cross_validate(g, constant_spin(g), lam=1.0, t_end=0.05, direct_dt=0.0,
                           time_steps=4, duhamel_substeps=2)


    @staticmethod
    def mild_config_of(monkeypatch, **cgl):
        """The CglConfig that cross_validate hands its mild solve, which is
        stopped there."""
        seen = []

        def stop(grid, v0, config, track_xpt=False):
            seen.append(config)
            raise StopIteration

        monkeypatch.setattr("llglab.experiments.picard_iterate", stop)
        g = make_grid(2, 16, TWO_PI)
        with pytest.raises(StopIteration):
            cross_validate(g, constant_spin(g), lam=0.8, t_end=0.05, **cgl)
        return seen[0]

    def test_mild_keywords_default_to_the_config_fields(self, monkeypatch):
        assert self.mild_config_of(monkeypatch) == CglConfig(lam=0.8, t_end=0.05)
        mild = dict(p=3.1, time_steps=4, duhamel_substeps=2, picard_tol=1e-11,
                    picard_max_iter=3, smallness=np.inf)
        assert self.mild_config_of(monkeypatch, **mild) == CglConfig(lam=0.8, t_end=0.05,
                                                                     **mild)

    @pytest.mark.parametrize("bad,error", [({"duhamel_substeps": 0}, ValueError),
                                           ({"substeps": 2}, TypeError)],
                             ids=["duhamel_substeps_0", "unknown_key"])
    def test_bad_mild_keyword_fails_before_either_solve(self, monkeypatch, bad, error):
        def forbidden(*args, **kwargs):
            raise AssertionError("a solve ran before the mild keywords were checked")

        monkeypatch.setattr("llglab.experiments.picard_iterate", forbidden)
        monkeypatch.setattr("llglab.experiments.solve", forbidden)
        g = make_grid(2, 16, TWO_PI)
        with pytest.raises(error):
            cross_validate(g, constant_spin(g), lam=1.0, t_end=0.05, **bad)

    def test_mild_solve_takes_p_and_iteration_cap(self):
        g = make_grid(2, 16, TWO_PI)
        m0 = generate_initial_data(
            InitialDataSpec(kind="equatorial_wave", amplitude=0.01), g)
        rep = cross_validate(g, m0, lam=1.0, t_end=0.05, time_steps=4,
                             duhamel_substeps=2, p=3.1, picard_max_iter=1)
        assert rep.mild_iterations == 1

    def test_runner_passes_the_whole_cgl_section(self, tmp_path, monkeypatch):
        seen = []

        def spy(grid, v0, config, track_xpt=False):
            seen.append(config)
            return picard_iterate(grid, v0, config, track_xpt)

        monkeypatch.setattr("llglab.runner.picard_iterate", spy)
        cfg = tmp_path / "cross.cfg"
        cfg.write_text(
            "[grid]\ndim = 2\nn = 16\nlength = 6.283185307179586\n"
            "[initial_data]\nkind = equatorial_wave\namplitude = 0.01\n"
            "[llg]\nlambda = 0.8\nt_end = 0.05\ndt_fraction = 1.0\n"
            "[cgl]\nlambda = 0.8\np = 3.1\nt_end = 0.05\ntime_steps = 4\n"
            "duhamel_substeps = 2\npicard_max_iter = 1\nsmallness = 1.0\n"
            "[experiments]\nchecks = cross_solver\n[output]\n")
        parsed = parse_config(cfg)
        run_config(parsed, out_dir=tmp_path / "out")
        assert seen == [parsed.cgl]

    def test_lambda_mismatch_rejected(self, tmp_path):
        cfg = tmp_path / "cross.cfg"
        body = ("[grid]\ndim = 1\nn = 16\nlength = 1.0\n"
                "[llg]\nlambda = 1.0\nt_end = 0.01\ndt_fraction = 0.5\n"
                "[cgl]\nlambda = 0.5\nt_end = 0.01\n"
                "[experiments]\nchecks = {checks}\n[output]\n")
        cfg.write_text(body.format(checks="cross_solver"))
        with pytest.raises(ConfigError, match=r"\[llg\] and \[cgl\] lambda, got 1.0 and 0.5"):
            parse_config(cfg)
        cfg.write_text(body.format(checks="energy picard"))
        assert parse_config(cfg).cgl.lam == 0.5


class TestMildInitialData:
    def test_gauge_coefficients_without_llg_rhs(self, monkeypatch):
        g = make_grid(2, 32, TWO_PI)
        m0 = generate_initial_data(InitialDataSpec(kind="bump_chart", amplitude=0.4), g)
        frame = build_frame(m0)
        expected = coulomb_gauge_fix(
            g, derive_gauge(g, m0, llg_rhs(g, m0.values, 1.0), frame)).u

        def forbidden(*args, **kwargs):
            raise AssertionError("llg_rhs evaluated")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "llglab" and hasattr(module, "llg_rhs"):
                monkeypatch.setattr(module, "llg_rhs", forbidden)
        assert np.array_equal(mild_initial_data(g, m0), expected)

    def test_datum_on_another_grid_rejected(self):
        # same shape, twice the box: the coefficients would be those of another field
        m0 = generate_initial_data(InitialDataSpec(kind="bump_chart", amplitude=0.4),
                                   make_grid(1, 16, TWO_PI))
        with pytest.raises(ValueError, match="not on"):
            mild_initial_data(make_grid(1, 16, 2.0 * TWO_PI), m0)


def fresh_uniqueness(grid, m0, lam, t_end, outputs, dt=None):
    """uniqueness_experiment on two solves of its configs made here."""
    times = np.linspace(0.0, t_end, outputs)
    return uniqueness_experiment(grid, *(
        solve(m0, cfg, times) for cfg in _uniqueness_configs(grid, lam, t_end, dt)))


class TestUniqueness:
    def test_identical_discretizations_exact_zero(self):
        # a constant datum is a fixed point of both discretizations
        g = make_grid(2, 16, TWO_PI)
        m0 = generate_initial_data(InitialDataSpec(kind="constant"), g)
        rep = fresh_uniqueness(g, m0, lam=1.0, t_end=0.1, outputs=5)
        assert rep.differences.max() == 0.0
        assert rep.exact_zero
        assert rep.status == "PASS"

    def test_two_discretizations_gronwall_pass(self):
        g = make_grid(2, 32, TWO_PI)
        m0 = generate_initial_data(
            InitialDataSpec(kind="equatorial_wave", amplitude=0.1, wavenumber=2), g)
        rep = fresh_uniqueness(g, m0, lam=1.0, t_end=0.6, outputs=9)
        assert rep.status == "PASS"
        assert rep.transient_steps < 5

    def test_large_data_never_reports_pass_on_growth(self):
        g = make_grid(1, 64, TWO_PI)
        x = g.coordinates()[0]
        theta = 2.5 * np.sin(6 * x)
        m0 = SpinField.from_values(g, np.stack(
            [np.cos(theta), np.sin(theta), np.zeros_like(theta)]))
        rep = fresh_uniqueness(g, m0, lam=0.2, t_end=0.05, outputs=9)
        # growth-dominated window: either INCONCLUSIVE or genuinely monotone,
        # but a rising tail must never be stamped PASS
        comp = rep.compensated[rep.times > 0]
        peak = int(np.argmax(comp))
        if rep.status == "PASS":
            assert peak < 5
            assert np.all(np.diff(comp[peak:]) <= 1e-9 * comp.max())

    def test_runs_at_other_times_rejected(self):
        g = make_grid(1, 16, TWO_PI)
        m0 = generate_initial_data(InitialDataSpec(kind="equatorial_wave"), g)
        cfg_a, cfg_b = _uniqueness_configs(g, 1.0, 0.01)
        with pytest.raises(ValueError, match="same output times"):
            uniqueness_experiment(g, solve(m0, cfg_a, np.linspace(0.0, 0.01, 3)),
                                  solve(m0, cfg_b, np.linspace(0.0, 0.01, 5)))


class TestSolutionDecay:
    def test_constant_data_all_zero(self):
        g = make_grid(1, 16, TWO_PI)
        cfg = LlgConfig(grid=g, lam=1.0, t_end=0.05, dt=stability_cap(g, 1.0))
        res = solve(constant_spin(g), cfg, np.linspace(0.0, cfg.t_end, 5))
        table = decay_report(g, res.trajectory)
        assert np.abs(table.first_order).max() < 1e-14
        assert np.abs(table.second_order).max() < 1e-12
        assert table.passed

    def test_small_equatorial_bounded(self):
        g = make_grid(1, 64, TWO_PI)
        m0 = generate_initial_data(
            InitialDataSpec(kind="equatorial_wave", amplitude=0.1), g)
        cfg = LlgConfig(grid=g, lam=1.0, t_end=0.5, dt=stability_cap(g, 1.0))
        res = solve(m0, cfg, np.linspace(0.0, cfg.t_end, 17))
        table = decay_report(g, res.trajectory)
        assert table.passed

    def test_small_rough_data_compensated_norms_bounded(self):
        g = make_grid(1, 64, TWO_PI)
        m0 = generate_initial_data(
            InitialDataSpec(kind="rough_mollified", amplitude=0.2,
                            mollification_k=8.0), g, seed=3)
        cfg = LlgConfig(grid=g, lam=1.0, t_end=0.3, dt=stability_cap(g, 1.0))
        res = solve(m0, cfg, np.linspace(0.0, cfg.t_end, 13))
        table = decay_report(g, res.trajectory)
        assert table.passed
        assert np.isfinite(table.first_order).all()
        assert np.isfinite(table.second_order).all()


SMOKE_TEMPLATE = """
[grid]
dim = 2
n = 16
length = 6.283185307179586

[initial_data]
kind = equatorial_wave
amplitude = 0.1
wavenumber = 1

[llg]
lambda = 1.0
t_end = 0.05
dt_fraction = 1.0
outputs = 5

[experiments]
checks = {checks}

[output]
dir = {outdir}
seed = 7
"""


CGL_BLOCK = """
[cgl]
lambda = 1.0
p = 3.2
t_end = 0.05
time_steps = 4
duhamel_substeps = 2
picard_tol = 1e-10
smallness = 1.0

"""
SHARED_SOLVES = "energy solution_decay picard cross_solver"


class TestRunner:
    @staticmethod
    def config_with_cgl(tmp_path, checks, outdir):
        path = tmp_path / f"{outdir}.cfg"
        text = SMOKE_TEMPLATE.format(checks=checks, outdir=tmp_path / outdir)
        path.write_text(text.replace("[experiments]", CGL_BLOCK + "[experiments]"))
        return parse_config(path)

    @staticmethod
    def spy_on_solves(monkeypatch):
        calls = []
        for module in (runner, experiments):
            for name in ("solve", "picard_iterate"):
                def spy(*args, _name=name, _original=getattr(module, name), **kwargs):
                    calls.append(_name)
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, spy)
        return calls

    def test_run_makes_each_solve_once(self, tmp_path, monkeypatch):
        # [llg] and the cross_solver direct run ask for the same config and
        # output times (stability-cap step, 5 outputs to t = 0.05): one solve
        calls = self.spy_on_solves(monkeypatch)
        outcomes, _ = run_config(self.config_with_cgl(tmp_path, SHARED_SOLVES, "out"))
        assert [o.status for o in outcomes] == ["PASS"] * 4
        assert sorted(calls) == ["picard_iterate", "solve"]

    def test_direct_runs_at_other_times_are_solved_apart(self, tmp_path, monkeypatch):
        calls = self.spy_on_solves(monkeypatch)
        cfg = self.config_with_cgl(tmp_path, SHARED_SOLVES, "out")
        cfg = replace(cfg, cgl=replace(cfg.cgl, time_steps=2))
        outcomes, _ = run_config(cfg)
        assert [o.status for o in outcomes] == ["PASS"] * 4
        assert sorted(calls) == ["picard_iterate", "solve", "solve"]

    @staticmethod
    def uniqueness_config(tmp_path):
        # 1-D N=16; [llg] is solve A of uniqueness (RK2 at the stability cap)
        path = tmp_path / "uniqueness.cfg"
        text = SMOKE_TEMPLATE.format(checks="energy uniqueness", outdir=tmp_path / "out")
        path.write_text(text.replace("dim = 2", "dim = 1"))
        return parse_config(path)

    def test_uniqueness_reads_the_llg_run(self, tmp_path, monkeypatch):
        schemes = []
        for module in (runner, experiments):
            def spy(m0, config, *args, _original=module.solve, **kwargs):
                schemes.append(config.scheme)
                return _original(m0, config, *args, **kwargs)

            monkeypatch.setattr(module, "solve", spy)
        outcomes, _ = run_config(self.uniqueness_config(tmp_path))
        assert [o.status for o in outcomes] == ["PASS", "PASS"]
        assert schemes == ["projected-rk2", "projected-rk4"]

    def test_uniqueness_rows_are_the_experiment_on_fresh_solves(self, tmp_path):
        cfg = self.uniqueness_config(tmp_path)
        run_config(cfg)
        m0 = generate_initial_data(cfg.initial_data, cfg.grid, cfg.effective_seed)
        llg = cfg.llg
        rep = fresh_uniqueness(cfg.grid, m0, llg.lam, llg.t_end, cfg.llg_outputs, llg.dt)
        _write_csv(tmp_path / "want.csv", "t,difference,compensated",
                   zip(rep.times, rep.differences, rep.compensated))
        assert ((tmp_path / "out" / "uniqueness.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())

    def test_checks_alone_write_the_bytes_of_the_full_run(self, tmp_path):
        run_config(self.config_with_cgl(tmp_path, SHARED_SOLVES, "full"))
        for check in ("solution_decay", "cross_solver"):
            run_config(self.config_with_cgl(tmp_path, check, check))
            name = f"{check}.csv"
            assert (tmp_path / check / name).read_bytes() == (tmp_path / "full" / name).read_bytes()

    def test_stability_starts_from_the_mild_solve(self, tmp_path, monkeypatch):
        # the run's mild solve is the stability base: 1 + 3 halvings, not 1 + 1 + 3
        calls = []
        for module in (runner, cgl):
            def spy(*args, _original=module.picard_iterate, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, "picard_iterate", spy)
        outcomes, _ = run_config(self.config_with_cgl(tmp_path, "picard stability", "out"))
        assert [o.status for o in outcomes] == ["PASS", "PASS"]
        assert len(calls) == 4

    def test_stability_alone_writes_the_bytes_of_the_tracked_run(self, tmp_path):
        # alone, the base is an untracked solve; after picard, the tracked one
        run_config(self.config_with_cgl(tmp_path, "picard stability", "full"))
        run_config(self.config_with_cgl(tmp_path, "stability", "alone"))
        name = "stability.csv"
        assert (tmp_path / "alone" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()

    def test_a_failed_mild_solve_is_not_kept(self, tmp_path, monkeypatch):
        calls = []

        def diverge(*args, **kwargs):
            calls.append(1)
            raise NonContraction("increments grew", [1.0, 2.0])

        monkeypatch.setattr(runner, "picard_iterate", diverge)
        outcomes, _ = run_config(self.config_with_cgl(tmp_path, "picard cross_solver", "out"))
        assert [(o.status, o.detail) for o in outcomes] == [
            ("FAIL", "non-contraction: increments grew"),
            ("ERROR", "NonContraction: increments grew")]
        assert len(calls) == 2

    def test_empty_check_list_exit_zero(self, tmp_path):
        cfg_path = tmp_path / "empty.cfg"
        cfg_path.write_text(SMOKE_TEMPLATE.format(checks="", outdir=tmp_path / "out"))
        assert run_experiment(cfg_path) == 0
        summary = (tmp_path / "out" / "summary.csv").read_text()
        assert summary.strip() == "check,status,detail"

    def test_unknown_key_rejected_before_output(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        text = SMOKE_TEMPLATE.format(checks="energy", outdir=tmp_path / "out")
        cfg_path.write_text(text.replace("[llg]", "[llg]\nbogus_key = 1"))
        with pytest.raises(ConfigError):
            parse_config(cfg_path)
        assert not (tmp_path / "out").exists()

    def test_duplicate_section_rejected(self, tmp_path):
        cfg_path = tmp_path / "dup.cfg"
        text = SMOKE_TEMPLATE.format(checks="", outdir=tmp_path / "out")
        cfg_path.write_text(text + "\n[grid]\nn = 8\n")
        with pytest.raises(ConfigError):
            parse_config(cfg_path)

    def test_unknown_check_rejected(self, tmp_path):
        cfg_path = tmp_path / "bad2.cfg"
        cfg_path.write_text(SMOKE_TEMPLATE.format(checks="warp_drive",
                                                  outdir=tmp_path / "out"))
        with pytest.raises(ConfigError):
            parse_config(cfg_path)

    def test_check_needs_block(self, tmp_path):
        cfg_path = tmp_path / "bad3.cfg"
        text = SMOKE_TEMPLATE.format(checks="picard", outdir=tmp_path / "out")
        cfg_path.write_text(text)  # no [cgl] block
        with pytest.raises(ConfigError):
            parse_config(cfg_path)

    def test_energy_and_identity_checks_run(self, tmp_path):
        cfg_path = tmp_path / "ok.cfg"
        cfg_path.write_text(SMOKE_TEMPLATE.format(checks="energy identities",
                                                  outdir=tmp_path / "out"))
        cfg = parse_config(cfg_path)
        outcomes, summary = run_config(cfg)
        assert [o.status for o in outcomes] == ["PASS", "PASS"]
        assert (tmp_path / "out" / "energy_ledger.csv").exists()
        assert (tmp_path / "out" / "identity_residuals.csv").exists()
        assert summary.exists()

    def test_jobs_parallel_matches_serial(self, tmp_path):
        cfg_path = tmp_path / "par.cfg"
        cfg_path.write_text(SMOKE_TEMPLATE.format(checks="energy identities",
                                                  outdir=tmp_path / "o1"))
        cfg = parse_config(cfg_path)
        run_config(cfg, out_dir=tmp_path / "o1")
        run_config(cfg, out_dir=tmp_path / "o2", jobs=2)
        a = (tmp_path / "o1" / "energy_ledger.csv").read_bytes()
        b = (tmp_path / "o2" / "energy_ledger.csv").read_bytes()
        assert a == b

    def test_seed_env_override(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "seed.cfg"
        cfg_path.write_text(SMOKE_TEMPLATE.format(checks="", outdir=tmp_path / "out"))
        cfg = parse_config(cfg_path)
        assert cfg.effective_seed == 7
        monkeypatch.setenv("LLGLAB_SEED", "99")
        assert cfg.effective_seed == 99

    def test_bad_seed_env_is_config_error(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "seed.cfg"
        cfg_path.write_text(SMOKE_TEMPLATE.format(checks="energy", outdir=tmp_path / "out"))
        cfg = parse_config(cfg_path)
        monkeypatch.setenv("LLGLAB_SEED", "abc")
        with pytest.raises(ConfigError, match="LLGLAB_SEED"):
            cfg.effective_seed
        with pytest.raises(ConfigError, match="LLGLAB_SEED"):
            run_config(cfg)
        assert not (tmp_path / "out").exists()


class TestCsvWriter:
    def test_cell_rules(self, tmp_path):
        path = tmp_path / "sub" / "cells.csv"
        x = np.float64(0.1) + np.float64(0.2)
        _write_csv(path, "a,b,c,d,e", [(x, None, 3, 2.5, "cubic_r2"),
                                       (np.int64(7), -0.0, None, 1e-300, '"q"')])
        assert path.read_bytes() == (f"a,b,c,d,e\n{float_repr(x)},,3,2.5,cubic_r2\n"
                                     '7,-0.0,,1e-300,"q"\n').encode()
        assert float_repr(x) == "0.30000000000000004"

    def test_untracked_picard_log_has_empty_xpt_cells(self, tmp_path):
        g = make_grid(2, 16, TWO_PI)
        x, y = g.coordinates()
        v0 = 0.05 * np.stack([np.exp(1j * x), 1j * np.exp(1j * (x + y))])
        cfg = CglConfig(lam=1.0, t_end=0.05, time_steps=2, duhamel_substeps=2,
                        smallness=np.inf)
        result = picard_iterate(g, v0, cfg, track_xpt=False)
        path = tmp_path / "log.csv"
        _write_picard_log(path, result)
        header, *rows = path.read_text().splitlines()
        assert header == "iter,increment,xpt_R1,xpt_R2,xpt_R3"
        assert len(rows) == result.iterations >= 2
        assert result.xpt_history == []
        for it, (inc, row) in enumerate(zip(result.increments, rows), 1):
            assert row == f"{it},{float_repr(inc)},,,"
