"""Command-line surface: determinism, file formats, exit codes."""

import functools
import json

import numpy as np
import pytest

from secar import io
from secar.cli import main


def run(args):
    return main(args)


@pytest.fixture()
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    code = run(["simulate", "-o", "rows=4", "-o", "cols=4", "-o", "T=15",
                "-o", "eta=0.2", "-o", "zeta=0.1", "-o", "tau2=0.5",
                "-o", "seed=11", "-o", f"out={out}"])
    assert code == 0
    return out


class TestSimulate:
    def test_outputs_and_dimensions(self, sim_dir):
        panel = io.read_counts_csv(sim_dir / "counts.csv")
        assert panel.n_d == 16 and panel.T == 15
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        assert manifest["seed"] == 11
        assert manifest["lattice"] == {"rows": 4, "cols": 4, "T": 15, "burn_in": 50}
        lines = (sim_dir / "counts.csv").read_text().splitlines()
        assert lines[0] == "location_id,week,count"
        assert len(lines) == 1 + 16 * 16  # header + weeks 0..15

    def test_same_seed_byte_identical(self, tmp_path):
        out = tmp_path / "a"
        args = ["simulate", "-o", "rows=3", "-o", "cols=3", "-o", "T=8",
                "-o", "seed=4", "-o", f"out={out}"]
        assert run(args) == 0
        first = {name: (out / name).read_bytes()
                 for name in ("counts.csv", "latent.csv", "manifest.json")}
        assert run(args) == 0  # identical config + seed, same destination
        for name, payload in first.items():
            assert (out / name).read_bytes() == payload
        other = tmp_path / "b"
        assert run(["simulate", "-o", "rows=3", "-o", "cols=3", "-o", "T=8",
                    "-o", "seed=9", "-o", f"out={other}"]) == 0
        assert (other / "counts.csv").read_bytes() != first["counts.csv"]

    def test_bad_lattice_exits_2(self, tmp_path, capsys):
        code = run(["simulate", "-o", "rows=2", "-o", "cols=5", "-o", "seed=1",
                    "-o", f"out={tmp_path / 'x'}"])
        assert code == 2
        assert ">= 3" in capsys.readouterr().err

    def test_missing_seed_exits_2(self, tmp_path):
        assert run(["simulate", "-o", "rows=3", "-o", "cols=3",
                    "-o", f"out={tmp_path / 'x'}"]) == 2

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        code = run(["simulate", "-o", "rows=3", "-o", "cols=3", "-o", "seed=1",
                    "-o", "bogus=1", "-o", f"out={tmp_path / 'x'}"])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("pair,key", [("T=0", "T"), ("burn_in=-3", "burn_in")])
    def test_empty_panel_or_negative_burn_in_exits_2(self, tmp_path, capsys, pair, key):
        out = tmp_path / "x"
        code = run(["simulate", "-o", "rows=3", "-o", "cols=3", "-o", "T=5",
                    "-o", "seed=1", "-o", pair, "-o", f"out={out}"])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (out / "counts.csv").exists()


@pytest.mark.parametrize("command", [
    ["simulate", "-o", "rows=3", "-o", "cols=3", "-o", "seed=1", "-o", "T=5",
     "-o", "burn_in=-3"],
    ["simulate", "-o", "rows=3", "-o", "cols=3", "-o", "seed=1", "-o", "bogus=1"],
    ["fit", "-o", "rows=4", "-o", "cols=4", "-o", "method=la1", "-o", "grid_cutoff=-1"],
    ["fit", "-o", "rows=4", "-o", "cols=4", "-o", "method=mcmc"],  # no seed
    ["residuals", "-o", "rows=4", "-o", "cols=4", "-o", "method=mcmc", "-o", "seed=1",
     "-o", "mcmc_iter=many"],
])
def test_rejected_input_leaves_no_output_directory(sim_dir, tmp_path, command):
    out = tmp_path / "a"
    counts = ["-o", f"counts={sim_dir / 'counts.csv'}"] if command[0] != "simulate" else []
    assert run(command + counts + ["-o", f"out={out}"]) == 2
    assert not out.exists()


class TestFit:
    def test_laplace_fit_writes_report_json_and_grid(self, sim_dir, tmp_path):
        out = tmp_path / "fit"
        code = run(["fit", "-o", f"counts={sim_dir / 'counts.csv'}",
                    "-o", "rows=4", "-o", "cols=4", "-o", "method=xla",
                    "-o", "grid_max_points=150", "-o", f"out={out}"])
        assert code == 0
        report = (out / "report.txt").read_text()
        assert "method: xla" in report and "credible intervals" in report
        payload = json.loads((out / "fit.json").read_text())
        assert payload["converged"] is True
        assert set(payload["theta_hat"]) == {"tau2", "zeta", "eta", "beta"}
        assert payload["credible_intervals"]["eta"][0] >= 0.0
        grid_lines = (out / "grid.csv").read_text().splitlines()
        assert grid_lines[0] == "tau2,zeta,eta,beta0,log_posterior,weight"
        assert len(grid_lines) >= 3
        weights = [float(line.split(",")[-1]) for line in grid_lines[1:]]
        assert abs(sum(weights) - 1.0) < 1e-9

    def test_grid_can_be_disabled(self, sim_dir, tmp_path):
        out = tmp_path / "fit_nogrid"
        code = run(["fit", "-o", f"counts={sim_dir / 'counts.csv'}",
                    "-o", "rows=4", "-o", "cols=4", "-o", "method=la1",
                    "-o", "grid=0", "-o", f"out={out}"])
        assert code == 0
        assert not (out / "grid.csv").exists()

    @pytest.mark.parametrize("word", ["ture", "2", ""])
    def test_unrecognised_boolean_exits_2(self, sim_dir, tmp_path, capsys, word):
        out = tmp_path / "fit_badbool"
        code = run(["fit", "-o", f"counts={sim_dir / 'counts.csv'}",
                    "-o", "rows=4", "-o", "cols=4", "-o", "method=la1",
                    "-o", f"grid={word}", "-o", f"out={out}"])
        assert code == 2
        assert f"grid={word!r} is not a valid bool" in capsys.readouterr().err
        assert not (out / "fit.json").exists()

    def test_config_file_with_override(self, sim_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"counts = {sim_dir / 'counts.csv'}\n"
            "rows = 4\ncols = 4\n"
            "method = xla\n"
            f"out = {tmp_path / 'fit_cfg'}\n"
            "# comment line\n", encoding="utf-8")
        code = run(["fit", "--config", str(cfg), "-o", "method=la1"])
        assert code == 0
        report = (tmp_path / "fit_cfg" / "report.txt").read_text()
        assert "method: la1" in report

    def test_missing_counts_file_exits_2(self, tmp_path, capsys):
        code = run(["fit", "-o", "counts=/nonexistent/c.csv", "-o", "rows=4",
                    "-o", "cols=4", "-o", f"out={tmp_path / 'x'}"])
        assert code == 2
        assert "c.csv" in capsys.readouterr().err

    def test_missing_covariates_file_exits_2(self, sim_dir, tmp_path, capsys):
        code = run(["fit", "-o", f"counts={sim_dir / 'counts.csv'}",
                    "-o", "covariates=/nonexistent/x.csv",
                    "-o", "rows=4", "-o", "cols=4", "-o", f"out={tmp_path / 'x'}"])
        assert code == 2
        assert "x.csv" in capsys.readouterr().err

    def test_unknown_method_exits_2(self, sim_dir, tmp_path):
        assert run(["fit", "-o", f"counts={sim_dir / 'counts.csv'}",
                    "-o", "rows=4", "-o", "cols=4", "-o", "method=vb",
                    "-o", f"out={tmp_path / 'x'}"]) == 2

    @pytest.mark.parametrize("pair", ["grid_cutoff=-1", "grid_spacing=0", "grid_spacing=nan",
                                      "grid_max_points=0"])
    def test_bad_grid_setting_exits_2_before_the_fit(self, sim_dir, tmp_path, capsys,
                                                     monkeypatch, pair):
        import secar.cli

        def no_fit(*args, **kwargs):
            raise AssertionError("the fit ran before the grid settings were checked")

        monkeypatch.setattr(secar.cli, "maximize_posterior", no_fit)
        out = tmp_path / "x"
        code = run(["fit", "-o", f"counts={sim_dir / 'counts.csv'}", "-o", "rows=4",
                    "-o", "cols=4", "-o", "method=la1", "-o", pair, "-o", f"out={out}"])
        assert code == 2
        assert pair.split("=")[0] in capsys.readouterr().err
        assert not (out / "fit.json").exists()

    def test_counts_with_only_week_0_exit_2(self, tmp_path, capsys):
        path = tmp_path / "week0.csv"
        path.write_text("location_id,week,count\n"
                        + "".join(f"{i},0,3\n" for i in range(1, 10)), encoding="utf-8")
        code = run(["fit", "-o", f"counts={path}", "-o", "rows=3", "-o", "cols=3",
                    "-o", f"out={tmp_path / 'x'}"])
        assert code == 2
        err = capsys.readouterr().err
        assert "week0.csv" in err and "only week 0" in err

    @pytest.mark.parametrize("case,fragment", [
        ("duplicate", "duplicate cell (2, 3)"),
        ("infinite", "temp='inf' at (4, 7)"),
    ])
    def test_unusable_covariates_exit_2(self, sim_dir, tmp_path, capsys, case, fragment):
        rows = [f"{loc},{week},{0.1 * loc}" for week in range(1, 16) for loc in range(1, 17)]
        if case == "duplicate":
            rows.append("2,3,5.0")
        else:
            rows[6 * 16 + 3] = "4,7,inf"
        path = tmp_path / "covs.csv"
        path.write_text("location_id,week,temp\n" + "\n".join(rows) + "\n",
                        encoding="utf-8")
        code = run(["fit", "-o", f"counts={sim_dir / 'counts.csv'}", "-o", f"covariates={path}",
                    "-o", "rows=4", "-o", "cols=4", "-o", f"out={tmp_path / 'x'}"])
        assert code == 2
        err = capsys.readouterr().err
        assert "covs.csv" in err and fragment in err

    @pytest.mark.parametrize("method", ["la1", "mcmc"])
    @pytest.mark.parametrize("bounds", [(0.3, 0.1), (-5.0, 5.0)])
    def test_zeta_support_outside_the_graph_interval_exits_2(self, sim_dir, tmp_path,
                                                              capsys, method, bounds):
        out = tmp_path / "x"
        chains = ["-o", "mcmc_iter=40", "-o", "mcmc_chains=2", "-o", "seed=1"]
        code = run(["fit", "-o", f"counts={sim_dir / 'counts.csv'}", "-o", "rows=4",
                    "-o", "cols=4", "-o", f"method={method}", "-o", f"zeta_min={bounds[0]}",
                    "-o", f"zeta_max={bounds[1]}", "-o", f"out={out}"]
                   + (chains if method == "mcmc" else []))
        assert code == 2
        assert "zeta prior support" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_nonconvergence_exits_3_with_trace(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "stall"
        code = run(["fit", "-o", f"counts={sim_dir / 'counts.csv'}",
                    "-o", "rows=4", "-o", "cols=4", "-o", "method=la1",
                    "-o", "max_newton=1", "-o", f"out={out}"])
        assert code == 3
        assert (out / "trace.txt").exists()

    def test_same_config_byte_identical(self, sim_dir, tmp_path):
        out = tmp_path / "fit"
        args = ["fit", "-o", f"counts={sim_dir / 'counts.csv'}", "-o", "rows=4",
                "-o", "cols=4", "-o", "method=xla", "-o", "grid_max_points=40",
                "-o", f"out={out}"]
        assert run(args) == 0
        names = ("fit.json", "grid.csv", "manifest.json")
        first = {name: (out / name).read_bytes() for name in names}
        assert run(args) == 0  # identical config, same destination
        for name, payload in first.items():
            assert (out / name).read_bytes() == payload, name

    def test_mcmc_fit_writes_samples(self, sim_dir, tmp_path):
        out = tmp_path / "mcmc"
        code = run(["fit", "-o", f"counts={sim_dir / 'counts.csv'}",
                    "-o", "rows=4", "-o", "cols=4", "-o", "method=mcmc",
                    "-o", "mcmc_iter=600", "-o", "mcmc_chains=2",
                    "-o", "seed=5", "-o", f"out={out}"])
        assert code in (0, 3)  # short chains may not pass the R-hat gate
        lines = (out / "samples.csv").read_text().splitlines()
        assert lines[0] == "chain,draw,tau2,zeta,eta,beta0"
        assert len(lines) == 1 + 2 * 300

    def test_mcmc_same_seed_byte_identical(self, sim_dir, tmp_path):
        out = tmp_path / "mcmc"
        args = ["fit", "-o", f"counts={sim_dir / 'counts.csv'}", "-o", "rows=4",
                "-o", "cols=4", "-o", "method=mcmc", "-o", "mcmc_iter=80",
                "-o", "mcmc_chains=2", "-o", "seed=5", "-o", f"out={out}"]

        def outputs():
            assert run(args) in (0, 3)  # short chains may not pass the R-hat gate
            report = (out / "report.txt").read_text().splitlines()
            return ((out / "samples.csv").read_bytes(), (out / "manifest.json").read_bytes(),
                    [line for line in report if not line.startswith("wall_seconds")])

        assert outputs() == outputs()


class TestResiduals:
    def test_unknown_method_exits_2_before_loading_data(self, tmp_path, capsys):
        code = run(["residuals", "-o", "counts=/nonexistent/c.csv", "-o", "rows=4",
                    "-o", "cols=4", "-o", "method=foo", "-o", "seed=1",
                    "-o", f"out={tmp_path / 'x'}"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown method 'foo'" in err and "'mcmc'" in err
    def test_summary_and_files(self, sim_dir, tmp_path):
        out = tmp_path / "resid"
        code = run(["residuals", "-o", f"counts={sim_dir / 'counts.csv'}",
                    "-o", "rows=4", "-o", "cols=4", "-o", "method=la1",
                    "-o", "n_theta_draws=60", "-o", "seed=2",
                    "-o", f"out={out}"])
        assert code == 0
        summary = (out / "summary.txt").read_text()
        assert "ks_statistic" in summary
        assert "effective_parameters" in summary
        rows = (out / "residuals.csv").read_text().splitlines()
        assert rows[0] == "location_id,week,u"
        assert len(rows) == 1 + 16 * 15
        by_loc = (out / "residuals_by_location.csv").read_text().splitlines()
        assert len(by_loc) == 1 + 16

    def test_same_seed_byte_identical(self, sim_dir, tmp_path):
        out = tmp_path / "resid"
        args = ["residuals", "-o", f"counts={sim_dir / 'counts.csv'}", "-o", "rows=4",
                "-o", "cols=4", "-o", "method=la1", "-o", "n_theta_draws=50",
                "-o", "seed=3", "-o", f"out={out}"]
        assert run(args) == 0
        names = ("residuals.csv", "residuals_by_location.csv", "summary.txt",
                 "manifest.json")
        first = {name: (out / name).read_bytes() for name in names}
        assert run(args) == 0  # identical config + seed, same destination
        for name, payload in first.items():
            assert (out / name).read_bytes() == payload, name

    def test_nonconverged_fit_exits_3(self, sim_dir, tmp_path, capsys, monkeypatch):
        import secar.cli
        from secar.inference import maximize_posterior
        monkeypatch.setattr(secar.cli, "maximize_posterior",
                            functools.partial(maximize_posterior, max_steps=1))
        out = tmp_path / "resid"
        code = run(["residuals", "-o", f"counts={sim_dir / 'counts.csv'}",
                    "-o", "rows=4", "-o", "cols=4", "-o", "method=la1",
                    "-o", "n_theta_draws=50", "-o", "seed=2", "-o", f"out={out}"])
        assert code == 3
        assert "no convergence in 1 Newton steps" in capsys.readouterr().err
        assert not (out / "residuals.csv").exists()

    @pytest.mark.parametrize("failure,message", [
        ("mode", "latent mode iteration did not converge"),
        ("hessian", "posterior Hessian is not negative definite")])
    def test_failed_posterior_draws_exit_3(self, sim_dir, tmp_path, capsys, monkeypatch,
                                           failure, message):
        # the fit converges; then either every later latent mode fails or the
        # fit's Hessian is marked indefinite
        from dataclasses import replace

        import secar.cli
        from helpers import count_find_mode
        from secar.inference import maximize_posterior

        def fit_then_fail(*args, **kwargs):
            fit = maximize_posterior(*args, **kwargs)
            assert fit.converged
            if failure == "mode":
                count_find_mode(monkeypatch, max_iter=1)
                return fit
            return replace(fit, hessian_nd=False)

        monkeypatch.setattr(secar.cli, "maximize_posterior", fit_then_fail)
        out = tmp_path / "resid"
        code = run(["residuals", "-o", f"counts={sim_dir / 'counts.csv'}",
                    "-o", "rows=4", "-o", "cols=4", "-o", "method=la1",
                    "-o", "n_theta_draws=50", "-o", "seed=2", "-o", f"out={out}"])
        assert code == 3
        assert message in capsys.readouterr().err
        assert not (out / "residuals.csv").exists()

    @pytest.mark.parametrize("rhat,code", [(1.5, 3), (1.0, 0)])
    def test_mcmc_chain_settings_and_rhat_gate(self, sim_dir, tmp_path, capsys, monkeypatch,
                                               rhat, code):
        import secar.cli
        from secar.mcmc import run_chains
        calls = []

        def chains_with_rhat(*args, **kwargs):
            calls.append(kwargs)
            samples, diag = run_chains(*args, **kwargs)
            diag.rhat = {name: rhat for name in diag.rhat}
            return samples, diag

        monkeypatch.setattr(secar.cli, "run_chains", chains_with_rhat)
        out = tmp_path / "resid"
        assert run(["residuals", "-o", f"counts={sim_dir / 'counts.csv'}",
                    "-o", "rows=4", "-o", "cols=4", "-o", "method=mcmc",
                    "-o", "mcmc_iter=120", "-o", "mcmc_chains=2",
                    "-o", "n_theta_draws=50", "-o", "seed=2", "-o", f"out={out}"]) == code
        assert [(c["n_iter"], c["n_chains"]) for c in calls] == [(120, 2)]
        assert (out / "residuals.csv").exists() == (code == 0)
        assert ("R-hat 1.500" in capsys.readouterr().err) == (code == 3)


class TestCorr:
    def test_zero_zeta_zero_offdiagonal(self, tmp_path):
        out = tmp_path / "corr"
        code = run(["corr", "-o", "rows=4", "-o", "cols=4", "-o", "zeta=0",
                    "-o", "tau2=0.5", "-o", "eta=0.2", "-o", f"out={out}"])
        assert code == 0
        lines = (out / "corr.csv").read_text().splitlines()[1:]
        assert len(lines) == 16
        for line in lines:
            i, j, corr = line.split(",")
            if i != j:
                assert float(corr) == 0.0

    def test_one_node_graph_has_no_offdiagonal_pairs(self, tmp_path, capsys):
        graph = tmp_path / "one.graph"
        graph.write_text("1\n1 0\n", encoding="ascii")
        out = tmp_path / "corr1"
        code = run(["corr", "-o", f"graph={graph}", "-o", "zeta=0",
                    "-o", "tau2=0.5", "-o", "eta=0.2", "-o", f"out={out}"])
        assert code == 0
        assert "no off-diagonal pairs" in capsys.readouterr().out
        assert len((out / "corr.csv").read_text().splitlines()) == 2
        assert (out / "manifest.json").exists()


class TestBiasStudyCommand:
    def test_tiny_study_runs(self, tmp_path):
        out = tmp_path / "bias"
        code = run(["bias-study", "-o", "cells=0.2:0.5", "-o", "n_reps=1",
                    "-o", "rows=4", "-o", "cols=4", "-o", "T=12",
                    "-o", "zeta=0.15", "-o", "methods=la1", "-o", "seed=6",
                    "-o", "burn_in=10", "-o", f"out={out}"])
        assert code == 0
        lines = (out / "bias_study.csv").read_text().splitlines()
        assert len(lines) == 2
        assert "rel_bias_tau2" in lines[0]
        assert "preferred=" in (out / "bias_summary.txt").read_text()

    def test_same_seed_byte_identical(self, tmp_path):
        out = tmp_path / "bias"
        args = ["bias-study", "-o", "cells=0.2:0.5", "-o", "n_reps=1", "-o", "rows=3",
                "-o", "cols=3", "-o", "T=10", "-o", "zeta=0.15",
                "-o", "methods=la1,xla,mcmc", "-o", "mcmc_iter=60", "-o", "seed=6",
                "-o", "burn_in=10", "-o", f"out={out}"]

        def outputs():
            assert run(args) == 0
            rows = (out / "bias_study.csv").read_text().splitlines()
            k = rows[0].split(",").index("seconds")  # wall time, the one varying column
            return ([row.split(",")[:k] + row.split(",")[k + 1:] for row in rows],
                    (out / "bias_summary.txt").read_bytes(),
                    (out / "manifest.json").read_bytes())

        first = outputs()
        assert [row[3] for row in first[0][1:]] == ["la1", "xla", "mcmc"]
        assert outputs() == first

    def test_defaults_come_from_bias_study_config(self, tmp_path, monkeypatch):
        import secar.cli
        from secar import BiasStudyConfig
        from secar.diagnostics import BiasStudyReport
        seen = []

        def record(config, methods, seed):
            seen.append(config)
            return BiasStudyReport(config=config, methods=methods)

        monkeypatch.setattr(secar.cli, "bias_study", record)
        assert run(["bias-study", "-o", "cells=0.2:0.5", "-o", "seed=1",
                    "-o", f"out={tmp_path / 'bias'}"]) == 0
        assert seen == [BiasStudyConfig(cells=[(0.2, 0.5)])]

    def test_bad_cells_spec_exits_2(self, tmp_path):
        assert run(["bias-study", "-o", "cells=oops", "-o", "seed=1",
                    "-o", f"out={tmp_path / 'x'}"]) == 2


class TestIoRoundtrips:
    def test_counts_roundtrip(self, tmp_path):
        from secar import CountPanel
        panel = CountPanel(np.array([[1, 2], [3, 4]]), np.array([5, 6]))
        path = tmp_path / "c.csv"
        io.write_counts_csv(path, panel)
        back = io.read_counts_csv(path)
        np.testing.assert_array_equal(back.counts, panel.counts)
        np.testing.assert_array_equal(back.initial_counts, panel.initial_counts)

    def test_counts_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("location_id,week,count\n1,0,4\n1,2,1\n", encoding="utf-8")
        with pytest.raises(io.DataFormatError, match="contiguous"):
            io.read_counts_csv(path)
        path.write_text("location_id,week\n1,0\n", encoding="utf-8")
        with pytest.raises(io.DataFormatError, match="missing columns"):
            io.read_counts_csv(path)
        path.write_text("location_id,week,count\n1,0,4\n1,0,5\n1,1,2\n",
                        encoding="utf-8")
        with pytest.raises(io.DataFormatError, match="duplicate"):
            io.read_counts_csv(path)

    def test_covariates_reader_and_standardize(self, tmp_path):
        path = tmp_path / "x.csv"
        rows = ["location_id,week,temp"]
        for week in (1, 2):
            for loc in (1, 2):
                rows.append(f"{loc},{week},{10.0 * week}")
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        design = io.read_covariates_csv(path, T=2, n_d=2)
        assert design.names == ["intercept", "temp"]
        np.testing.assert_allclose(design.values[:, :, 0], 1.0)
        std = io.standardize_covariates(design, ["temp"])
        col = std.values[:, :, 1]
        assert abs(col.mean()) < 1e-12 and abs(col.std() - 1.0) < 1e-12

    def test_covariates_missing_cell_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("location_id,week,temp\n1,1,3.0\n", encoding="utf-8")
        with pytest.raises(io.DataFormatError, match="missing temp"):
            io.read_covariates_csv(path, T=1, n_d=2)


class TestImport:
    def test_import_leaves_scipy_stats_out(self):
        # scipy.stats is most of the package's import time; only the KS test
        # in ResidualField.ks_uniform loads it, on first use
        import os
        import subprocess
        import sys
        from pathlib import Path

        import secar
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(secar.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
        code = "import sys, secar; print('scipy.stats' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"
