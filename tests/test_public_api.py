"""Smoke tests over the package's public API surface."""

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_quickstart_flow():
    """The README quickstart must keep working end-to-end."""
    calibration = repro.calibrate_from_simulator(
        repro.APP_SERV_F, clients_per_type=150, duration_s=20.0, warmup_s=5.0, seed=4
    )
    predictor = repro.HybridPredictor.from_parameters(
        calibration.to_model_parameters(),
        [repro.APP_SERV_S, repro.APP_SERV_F, repro.APP_SERV_VF],
    )
    prediction = predictor.predict_mrt_ms("AppServS", 500)
    assert prediction > 0.0


def test_subpackages_importable():
    import repro.analysis
    import repro.caching
    import repro.distribution
    import repro.experiments
    import repro.historical
    import repro.hybrid
    import repro.lqn
    import repro.prediction
    import repro.resource_manager
    import repro.servers
    import repro.service
    import repro.simulation
    import repro.util
    import repro.workload  # noqa: F401


def test_experiment_registry_complete():
    from repro.experiments.runner import EXPERIMENTS

    expected = {
        "table1",
        "table2",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig7_cost",
        "accuracy",
        "percentiles",
        "caching",
        "delay",
        "recalibration",
        "serving",
        "tracing",
        "chaos",
        "workloads",
        "sharded_serving",
        "overload",
    }
    assert set(EXPERIMENTS) == expected


def test_runner_list_mode(capsys):
    from repro.experiments.runner import main

    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out and "fig8" in out


def test_runner_unknown_experiment():
    import pytest

    from repro.experiments.runner import run_experiment

    with pytest.raises(KeyError):
        run_experiment("fig99")


def test_report_generator(tmp_path):
    import json

    from repro.experiments.runner import main

    digest = tmp_path / "digest.md"
    assert main(["table2", "--fast", "--markdown", str(digest), "--json", str(tmp_path)]) == 0
    report = digest.read_text()
    assert "Regenerated results" in report and "Profile: **fast**" in report
    assert "experiment id: `table2`" in report and "```" in report

    out = tmp_path / "table2.json"
    data = json.loads(out.read_text())
    assert "rows" in data
    assert out.read_text() == json.dumps(data, sort_keys=True, indent=2) + "\n"


def test_report_unknown_id_rejected(tmp_path):
    import pytest

    from repro.experiments.runner import main

    digest = tmp_path / "digest.md"
    with pytest.raises(SystemExit):
        main(["table2", "fig99", "--markdown", str(digest)])
    assert not digest.exists()


def test_runner_unknown_id_with_json_writes_nothing(tmp_path):
    import pytest

    from repro.experiments.runner import main

    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit):
        main(["table2", "fig99", "--fast", "--json", str(out_dir)])
    assert not out_dir.exists()


def test_results_digest_covers_every_runner_id():
    """RESULTS.md has a section for every id ``runner --list`` prints."""
    from pathlib import Path

    from repro.experiments.runner import EXPERIMENTS

    digest = (Path(__file__).resolve().parent.parent / "RESULTS.md").read_text()
    missing = [i for i in EXPERIMENTS if f"*experiment id: `{i}`," not in digest]
    assert missing == []
