"""Smoke runs of the experiment scripts in scripts/ on tiny arguments: each
must run to the end against the current package API."""

import importlib.util
import json
import subprocess
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


@pytest.mark.parametrize("name,args,message", [
    ("classifier_power", ["--n-grid", "50"], "error: need n >= 100, got 50"),
    ("convergence_study", ["--reps", "0"], "error: need at least one replicate, got m=0"),
])
def test_script_reports_a_bad_argument_as_the_cli_does(capsys, monkeypatch, name, args, message):
    # a DomainError ends the script with its message and exit code 2, not a traceback
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args])
    with pytest.raises(SystemExit) as info:
        _load(name).main()
    assert info.value.code == 2
    assert capsys.readouterr().err == message + "\n"


def test_classifier_power_output(capsys, monkeypatch):
    # the rates of sorting each sample and classifying it, which the
    # script's replicate loop must reproduce exactly; the normal parent is
    # the catalog normal, renormalized to |Z|
    monkeypatch.setattr(sys, "argv", ["classifier_power.py", "--n-grid", "400", "2000",
                                      "--reps", "30", "--seed", "7"])
    _load("classifier_power").main()
    assert capsys.readouterr().out.splitlines() == [
        "policy sqrt, reps 30, seed 7",
        "       n  exp correct  norm correct",
        "     400        86.7%         63.3%",
        "    2000        96.7%         76.7%",
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


def test_cold_start_reads_the_large_sample(capsys, monkeypatch, tmp_path):
    cold_start = _load("cold_start")
    lines = Path(cold_start._write_sample(str(tmp_path), 100_000)).read_text(
        encoding="utf-8").splitlines()
    assert len(lines) == 100_000 and all(repr(float(line)) == line for line in lines)
    written = []
    write_sample = cold_start._write_sample
    monkeypatch.setattr(cold_start, "_write_sample",
                        lambda directory, n: written.append(n) or write_sample(directory, n))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["cold_start.py", "--label", "smoke", "--commands",
                                      "estimate-large", "--repeats", "1"])
    cold_start.main()
    assert written == [100_000]  # the 1000-line sample no chosen command reads is not written
    assert capsys.readouterr().out.splitlines()[-1] == "wrote BENCH_smoke.json"
    doc = json.loads((tmp_path / "BENCH_smoke.json").read_text(encoding="utf-8"))
    assert doc["commands"] == {"estimate-large": "estimate <large sample>"}
    assert len(doc["runs_s"]["src"]["estimate-large"]) == 1
    assert doc["median_s"]["src"]["estimate-large"] > 0.0


def _line(correct=True, failed=0, **metrics):
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {name: {"value": value, "unit": "x"} for name, value in metrics.items()}}


def test_bench_pairs_summary_of_canned_lines():
    # four pairs: the change wins ops_per_s in three and setup_s in one;
    # a metric missing from every line is left out
    bench_pairs = _load("bench_pairs")
    base = [(100.0, 0.20), (110.0, 0.21), (90.0, 0.22), (105.0, 0.19)]
    change = [(130.0, 0.22), (120.0, 0.20), (80.0, 0.23), (140.0, 0.25)]
    runs = [{"workload": "w", "pair": p, "seed": 41 + p, "side": side,
             "line": _line(ops_per_s=ops, setup_s=setup, failed=int(side == "change" and p == 2))}
            for p in range(4) for side, (ops, setup) in (("base", base[p]), ("change", change[p]))]
    runs.append({"workload": "v", "pair": 0, "seed": 41, "side": "base",
                 "line": _line(correct=False, ops_per_s=1.0)})
    runs.append({"workload": "v", "pair": 0, "seed": 41, "side": "change",
                 "line": _line(ops_per_s=2.0)})
    better = bench_pairs.directions({"end_to_end": [
        {"name": "ops_per_s", "better": "higher"}, {"name": "setup_s", "better": "lower"},
        {"name": "peak_rss_mb", "better": "lower"}]})
    summary = bench_pairs.summarize(runs, better, {})

    assert list(summary) == ["w", "v"]
    w = summary["w"]
    assert (w["pairs"], w["correct"], w["failed"]) == (4, {"base": True, "change": True},
                                                      {"base": 0, "change": 1})
    assert list(w["metrics"]) == ["ops_per_s", "setup_s"]
    ops = w["metrics"]["ops_per_s"]
    # inclusive quartiles of 90, 100, 105, 110 and of 80, 120, 130, 140
    assert ops["base"] == {"median": 102.5, "q1": 97.5, "q3": 106.25}
    assert ops["change"] == {"median": 125.0, "q1": 110.0, "q3": 132.5}
    assert (ops["better"], ops["change_won"], ops["of_pairs"]) == ("higher", 3, 4)
    assert ops["median_change"] == (125.0 - 102.5) / 102.5
    assert ops["base_iqr"] == 106.25 - 97.5 and ops["gain_exceeds_base_iqr"]
    setup = w["metrics"]["setup_s"]
    assert (setup["better"], setup["change_won"]) == ("lower", 1)
    assert not setup["gain_exceeds_base_iqr"]
    v = summary["v"]
    assert v["correct"] == {"base": False, "change": True}
    assert v["metrics"]["ops_per_s"]["change_won"] == 1
    assert v["metrics"]["ops_per_s"]["base"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    # 3 of 4 pairs won falls short of 9 in 10; with no bound, no spread is
    # called unresolved
    assert not ops["claim_met"] and ops["unresolved"] is None
    # the base ops_per_s IQR is 8.75 / 102.5 = 8.5% of its median, wider than
    # a 5% bound, and a change run (80) is below a base run; setup_s spreads
    # 0.015 / 0.205 = 7.3%, within a 25% bound
    bounded = bench_pairs.summarize(runs, better, {"ops_per_s": 0.05, "setup_s": 0.25})["w"]
    assert bounded["metrics"]["ops_per_s"]["unresolved"] is True
    assert bounded["metrics"]["setup_s"]["unresolved"] is False

    # ten pairs, base 100..109 (IQR 4.5, 4.3% of the median 104.5), change
    # 120 + p but for pair 0: a claim is met at 9 of 10 pairs won and not at
    # 8, and a 1% bound leaves the spread unresolved unless every change run
    # beats every base run
    def ten_pairs(*first_changes):
        change = [*first_changes, *(120.0 + p for p in range(len(first_changes), 10))]
        runs = [{"workload": "u", "pair": p, "seed": p, "side": side, "line": _line(ops_per_s=value)}
                for p in range(10) for side, value in (("base", 100.0 + p), ("change", change[p]))]
        return bench_pairs.summarize(runs, better, {"ops_per_s": 0.01})["u"]["metrics"]["ops_per_s"]

    one_lost, two_lost, none_lost = ten_pairs(95.0), ten_pairs(95.0, 96.0), ten_pairs(200.0)
    assert (one_lost["change_won"], one_lost["base_iqr"]) == (9, 4.5)
    assert one_lost["claim_met"] and one_lost["unresolved"]
    assert two_lost["change_won"] == 8 and not two_lost["claim_met"] and two_lost["unresolved"]
    assert none_lost["claim_met"] and none_lost["unresolved"] is False


def test_bench_pairs_flags_a_median_worse_than_its_bound():
    # relative median changes against the bounds: ops_per_s -30% past 0.25,
    # op_p50_ms +20% within 0.25, peak_rss_mb +7.5% past 0.05, setup_s
    # better by half; op_p90_ms has no bound and trace_s a zero base median
    bench_pairs = _load("bench_pairs")
    base = {"ops_per_s": 100.0, "op_p50_ms": 10.0, "peak_rss_mb": 40.0, "setup_s": 0.2,
            "op_p90_ms": 20.0, "trace_s": 0.0}
    change = {"ops_per_s": 70.0, "op_p50_ms": 12.0, "peak_rss_mb": 43.0, "setup_s": 0.1,
              "op_p90_ms": 90.0, "trace_s": 1.0}
    runs = [{"workload": "w", "pair": 0, "seed": 1, "side": side, "line": _line(**values)}
            for side, values in (("base", base), ("change", change))]
    benchmark = {"end_to_end": [
        {"name": "ops_per_s", "better": "higher", "bound": 0.25},
        {"name": "op_p50_ms", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
        {"name": "op_p90_ms", "better": "lower"},
        {"name": "trace_s", "better": "lower", "bound": 0.25}]}
    assert bench_pairs.bounds(benchmark) == {"ops_per_s": 0.25, "op_p50_ms": 0.25,
                                             "peak_rss_mb": 0.05, "setup_s": 0.25, "trace_s": 0.25}
    summary = bench_pairs.summarize(runs, bench_pairs.directions(benchmark),
                                    bench_pairs.bounds(benchmark))
    worse = {name: m["worse_than_bound"] for name, m in summary["w"]["metrics"].items()}
    assert worse == {"ops_per_s": True, "op_p50_ms": False, "peak_rss_mb": True,
                     "setup_s": False, "op_p90_ms": None, "trace_s": None}
    # with no bounds given, nothing is flagged either way
    unbounded = bench_pairs.summarize(runs, bench_pairs.directions(benchmark), {})
    assert {m["worse_than_bound"] for m in unbounded["w"]["metrics"].values()} == {None}


def test_bench_pairs_keeps_each_runs_env_line(capsys, monkeypatch, tmp_path):
    # a stubbed subprocess.run prints what bench/run.py prints: a comment,
    # the env line naming the tree it ran in, and the result line last; the
    # change doubles ops_per_s and leaves setup_s as it was
    bench_pairs = _load("bench_pairs")
    trees = {}
    for side in ("base", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").touch()
        trees[side] = {"src_sha256_16": f"{side}-digest", "git_commit": f"{side}-commit",
                       "numpy": "2.4.6", "scipy": "1.17.1"}
    lines = {"base": _line(ops_per_s=1.0, setup_s=0.2), "change": _line(ops_per_s=2.0, setup_s=0.2)}
    seen = []

    def fake_run(argv, cwd, capture_output, text):
        seen.append(argv)
        side = Path(cwd).name
        stdout = (f"# gumbeltail benchmark\nenv {json.dumps(trees[side])}\n"
                  f"{json.dumps(lines[side])}\n")
        return subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--label", "env", "--pairs", "1",
                                      "--base", str(tmp_path / "base"),
                                      "--change", str(tmp_path / "change")])
    bench_pairs.main()
    doc = json.loads((tmp_path / "BENCH_env.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in json.loads(
        (SCRIPTS.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]
    assert len(seen) == len(doc["runs"]) == 2 * len(workloads)
    for run in doc["runs"]:
        assert run["env"] == trees[run["side"]]
        assert run["line"] == lines[run["side"]]
    # the summary line flags a median gain larger than the base's quartile
    # spread, which, with the one pair won, meets a claim
    summary = [line for line in capsys.readouterr().out.splitlines() if " won " in line]
    assert len(summary) == 2 * len(workloads)
    for line in summary:
        assert line.endswith("won 1/1  GAIN > BASE IQR  CLAIM MET" if "ops_per_s" in line
                             else "won 0/1")


def test_bench_pairs_writes_the_finished_runs_when_one_fails(capsys, monkeypatch, tmp_path):
    # a stubbed subprocess.run: the change run of the second workload's
    # first pair exits 3 with 30 lines of stderr; the five runs before it
    # are written with the failure, and nothing runs after it
    bench_pairs = _load("bench_pairs")
    for side in ("base", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").touch()
    workloads = [w["name"] for w in json.loads(
        (SCRIPTS.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]
    seen = []

    def fake_run(argv, cwd, capture_output, text):
        seen.append((argv[argv.index("--workload") + 1], Path(cwd).name))
        if len(seen) == 6:
            stderr = "".join(f"trace line {i}\n" for i in range(30))
            return subprocess.CompletedProcess(argv, 3, stdout="", stderr=stderr)
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(_line(ops_per_s=1.0)) + "\n",
                                           stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--label", "fail", "--pairs", "2",
                                      "--first-seed", "41", "--base", str(tmp_path / "base"),
                                      "--change", str(tmp_path / "change")])
    with pytest.raises(SystemExit) as info:
        bench_pairs.main()
    assert info.value.code not in (0, None)
    assert seen[-1] == (workloads[1], "change") and len(seen) == 6
    doc = json.loads((tmp_path / "BENCH_fail.json").read_text(encoding="utf-8"))
    assert [(run["workload"], run["pair"], run["side"]) for run in doc["runs"]] == [
        (workloads[0], 0, "base"), (workloads[0], 0, "change"),
        (workloads[0], 1, "change"), (workloads[0], 1, "base"), (workloads[1], 0, "base")]
    assert doc["failed_run"] == {
        "workload": workloads[1], "pair": 0, "seed": 41, "side": "change", "exit_code": 3,
        "stderr_tail": "\n".join(f"trace line {i}" for i in range(10, 30))}
    assert list(doc["summary"]) == [workloads[0], workloads[1]]
    assert doc["summary"][workloads[0]]["pairs"] == 2
    assert doc["summary"][workloads[1]]["pairs"] == 0
    assert capsys.readouterr().out.splitlines()[-1] == "wrote BENCH_fail.json"


def test_bench_pairs_runs_only_the_named_workloads(capsys, monkeypatch, tmp_path):
    # a stubbed subprocess.run; --workload is repeatable, keeps the order
    # given, runs a name given twice once, and refuses a name that
    # BENCHMARK.json does not declare
    bench_pairs = _load("bench_pairs")
    for side in ("base", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").touch()
    workloads = [w["name"] for w in json.loads(
        (SCRIPTS.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]
    seen = []

    def fake_run(argv, cwd, capture_output, text):
        seen.append(argv[argv.index("--workload") + 1])
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(_line(ops_per_s=1.0)) + "\n",
                                           stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.chdir(tmp_path)
    trees = ["--base", str(tmp_path / "base"), "--change", str(tmp_path / "change")]
    chosen = [workloads[-1], workloads[0], workloads[-1]]
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--label", "some", "--pairs", "2", *trees]
                        + [arg for name in chosen for arg in ("--workload", name)])
    bench_pairs.main()
    assert seen == [workloads[-1]] * 4 + [workloads[0]] * 4
    doc = json.loads((tmp_path / "BENCH_some.json").read_text(encoding="utf-8"))
    assert list(doc["summary"]) == [workloads[-1], workloads[0]]

    seen.clear()
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--label", "all", "--pairs", "1", *trees])
    bench_pairs.main()
    assert seen == [name for name in workloads for _ in range(2)]

    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--label", "bad", *trees,
                                      "--workload", "no-such-workload"])
    with pytest.raises(SystemExit) as info:
        bench_pairs.main()
    assert info.value.code == 2 and "no-such-workload" in capsys.readouterr().err
