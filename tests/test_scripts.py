"""Smoke runs of the experiment scripts in scripts/ on tiny arguments: each
must run to the end against the current package API."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,args,last_line", [
    ("convergence_study", ["--n-grid", "1000", "--reps", "20"], "iterlog(1)"),
    ("classifier_power", ["--n-grid", "400", "--reps", "5"], "400"),
])
def test_script_runs(capsys, monkeypatch, name, args, last_line):
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args])
    _load(name).main()
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1].lstrip().startswith(last_line)


def test_classifier_power_output(capsys, monkeypatch):
    # the rates of sorting each sample and classifying it, which the
    # script's replicate loop must reproduce exactly
    monkeypatch.setattr(sys, "argv", ["classifier_power.py", "--n-grid", "400", "2000",
                                      "--reps", "30", "--seed", "7"])
    _load("classifier_power").main()
    assert capsys.readouterr().out.splitlines() == [
        "policy sqrt, reps 30, seed 7",
        "       n  exp correct  norm correct",
        "     400        86.7%         96.7%",
        "    2000        96.7%        100.0%",
    ]


def test_cold_start_times_one_command(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["cold_start.py", "--label", "smoke", "--commands", "table",
                                      "--repeats", "1"])
    _load("cold_start").main()
    assert capsys.readouterr().out.splitlines()[-1] == "wrote BENCH_smoke.json"
    doc = json.loads((tmp_path / "BENCH_smoke.json").read_text(encoding="utf-8"))
    assert list(doc["runs_s"]) == ["src"] and len(doc["runs_s"]["src"]["table"]) == 1
    assert doc["median_s"]["src"]["table"] > 0.0
    assert doc["scipy_loaded"] == {"src": {"table": []}}
    # the child's own peak RSS: more than an interpreter with numpy, far
    # less than the 4000-draw table could ever need
    assert len(doc["runs_peak_rss_mb"]["src"]["table"]) == 1
    assert 10.0 < doc["median_peak_rss_mb"]["src"]["table"] < 500.0
