"""Tests for the command-line interface (python -m repro)."""

import pytest

from repro.__main__ import main


@pytest.fixture
def equations_file(tmp_path):
    path = tmp_path / "endemic.txt"
    path.write_text(
        "x' = -beta*x*y + alpha*z\n"
        "y' =  beta*x*y - gamma*y\n"
        "z' =  gamma*y  - alpha*z\n"
    )
    return str(path)


@pytest.fixture
def raw_lv_file(tmp_path):
    path = tmp_path / "lv.txt"
    path.write_text(
        "x' = 3*x - 3*x^2 - 6*x*y\n"
        "y' = 3*y - 3*y^2 - 6*x*y\n"
    )
    return str(path)


PARAMS = ["--param", "beta=4", "--param", "gamma=1.0", "--param", "alpha=0.01"]


class TestClassify:
    def test_classify_output(self, equations_file, capsys):
        assert main(["classify", equations_file, *PARAMS]) == 0
        out = capsys.readouterr().out
        assert "flip+sample" in out
        assert "complete" in out

    def test_unbound_symbol_fails(self, equations_file):
        with pytest.raises(Exception):
            main(["classify", equations_file])

    def test_bad_param_format(self, equations_file):
        with pytest.raises(SystemExit):
            main(["classify", equations_file, "--param", "beta"])


class TestSynthesize:
    def test_synthesize_output(self, equations_file, capsys):
        assert main(["synthesize", equations_file, *PARAMS]) == 0
        out = capsys.readouterr().out
        assert "protocol" in out
        assert "message complexity" in out

    def test_explicit_p(self, equations_file, capsys):
        assert main(["synthesize", equations_file, *PARAMS, "--p", "0.2"]) == 0
        assert "p = 0.2" in capsys.readouterr().out

    def test_auto_rewrite_applied(self, raw_lv_file, capsys):
        assert main(["synthesize", raw_lv_file]) == 0
        out = capsys.readouterr().out
        assert "state z" in out  # slack variable appeared

    def test_no_rewrite_fails_on_raw(self, raw_lv_file, capsys):
        assert main(["synthesize", raw_lv_file, "--no-rewrite"]) == 1
        assert "failed" in capsys.readouterr().err


class TestAnalyze:
    def test_analyze_lists_equilibria(self, equations_file, capsys):
        assert main(["analyze", equations_file, *PARAMS]) == 0
        out = capsys.readouterr().out
        assert "stable spiral" in out
        assert "saddle point" in out

    def test_analyze_with_trajectory(self, equations_file, capsys):
        code = main([
            "analyze", equations_file, *PARAMS, "--trajectory",
            "--initial", "x=0.9", "--initial", "y=0.1", "--initial", "z=0",
            "--t-end", "30",
        ])
        assert code == 0
        assert "trajectory" in capsys.readouterr().out


class TestAnalyzeCampaign:
    def run_campaign_with_tensors(self, tmp_path):
        tensors = tmp_path / "tensors"
        assert main([
            "campaign", "--protocol", "lv", "--n", "200", "--trials", "3",
            "--periods", "5", "--seed", "6",
            "--save-tensors", str(tensors),
        ]) == 0
        return tensors

    def test_summarizes_saved_tensors(self, tmp_path, capsys):
        tensors = self.run_campaign_with_tensors(tmp_path)
        capsys.readouterr()
        assert main(["analyze-campaign", str(tensors)]) == 0
        out = capsys.readouterr().out
        assert "1 point(s)" in out
        assert "lv/n=200/f=0/none" in out
        assert "median" in out
        # Every protocol state appears as a table row.
        for state in ("x", "y", "z"):
            assert f"\n{state} " in out

    def test_prints_predicted_vs_measured_messages(self, tmp_path, capsys):
        tensors = self.run_campaign_with_tensors(tmp_path)
        capsys.readouterr()
        assert main(["analyze-campaign", str(tensors)]) == 0
        out = capsys.readouterr().out
        assert "messages: predicted" in out
        assert "vs measured" in out
        assert "MISMATCH" not in out

    def test_missing_manifest(self, tmp_path, capsys):
        assert main(["analyze-campaign", str(tmp_path)]) == 1
        assert "manifest.json" in capsys.readouterr().err

    def test_missing_directory(self, tmp_path, capsys):
        assert main(["analyze-campaign", str(tmp_path / "nope")]) == 1
        assert "no such directory" in capsys.readouterr().err


class TestRunWorkers:
    def test_run_with_workers(self, capsys):
        # endemic starts at its closed-form equilibrium, so the final
        # equilibrium check passes and the exit status stays 0.
        assert main([
            "run", "endemic", "--n", "400", "--trials", "4",
            "--periods", "10", "--seed", "3", "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "workers=2 (shards=2)" in out
        assert "ensemble trajectory summary" in out


class TestRunClusterBackend:
    @pytest.mark.slow
    def test_run_with_cluster_backend(self, capsys):
        assert main([
            "run", "endemic", "--n", "300", "--trials", "2",
            "--periods", "5", "--seed", "3", "--workers", "2",
            "--backend", "cluster", "--heartbeat", "0.2",
        ]) == 0
        out = capsys.readouterr().out
        assert "ensemble trajectory summary" in out


class TestRunBadInput:
    """Every tier rejects a bad run input with one line and exit 1.

    The inputs are checked before dispatch, so no pool or cluster
    worker starts and no traceback reaches the terminal, whichever
    tier or backend would have run.
    """

    @pytest.mark.parametrize("tier", [
        ["--workers", "1"],
        ["--workers", "2"],
        ["--engine", "agent", "--trials", "2"],
        ["--backend", "cluster"],
    ], ids=["workers1", "workers2", "agent", "cluster"])
    @pytest.mark.parametrize("bad", [
        ["--initial", "bogus=400"],
        ["--stride", "0"],
        ["--loss-rate", "1.5"],
        ["--n", "1"],
        ["--seed", "-1"],
    ], ids=["initial", "stride", "loss-rate", "n", "seed"])
    def test_bad_input_exits_1_without_traceback(self, bad, tier, capsys):
        assert main([
            "run", "endemic", "--n", "400", "--trials", "4",
            "--periods", "3", *bad, *tier,
        ]) == 1
        err = capsys.readouterr().err
        assert "invalid experiment:" in err
        assert "Traceback" not in err


class TestFailureProvenanceRendering:
    def test_cluster_failure_renders_provenance(self):
        from repro.__main__ import _render_failure_provenance

        line = _render_failure_provenance({
            "label": "lv/n=200/f=0/none",
            "error": "worker 'w1' lost",
            "attempts": 2,
            "worker": "w1",
            "redispatches": 1,
            "heartbeat_misses": 3,
        })
        assert "lv/n=200/f=0/none" in line
        assert "after 2 attempt(s)" in line
        assert "last worker w1" in line
        assert "re-dispatched 1x" in line
        assert "3 heartbeat miss(es)" in line

    def test_legacy_record_renders_without_provenance(self):
        from repro.__main__ import _render_failure_provenance

        line = _render_failure_provenance({
            "label": "pt", "error": "boom", "attempts": 1,
        })
        assert line == "pt: boom after 1 attempt(s)"


class TestCampaignEquationsAxis:
    def test_equations_axis_runs_and_replays(self, equations_file, tmp_path,
                                             capsys):
        # Bind the rates via '# param:' directives so the file is
        # self-contained (the campaign axis takes no --param flags).
        from pathlib import Path

        text = Path(equations_file).read_text()
        bound = tmp_path / "bound.txt"
        bound.write_text(
            "# param: beta = 4 gamma = 1.0 alpha = 0.01\n" + text
        )
        out_file = tmp_path / "results.json"
        assert main([
            "campaign", "--equations", str(bound), "--n", "300",
            "--trials", "2", "--periods", "5", "--seed", "8",
            "--out", str(out_file),
        ]) == 0
        capsys.readouterr()
        assert main(["campaign", "--replay", str(out_file)]) == 0
        assert "reproduced bit-for-bit" in capsys.readouterr().out

    def test_equations_conflicts_with_config(self, equations_file, tmp_path,
                                             capsys):
        config = tmp_path / "spec.json"
        config.write_text(
            '{"name": "c", "protocols": ["lv"], "group_sizes": [200],'
            ' "loss_rates": [0.0], "scenarios": ["none"]}'
        )
        assert main([
            "campaign", "--config", str(config),
            "--equations", equations_file,
        ]) == 1
        assert "--equations" in capsys.readouterr().err
