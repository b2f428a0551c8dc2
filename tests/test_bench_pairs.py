"""tools/bench_pairs.py records each run's length in its raw rows, and
summarize reports that length, refusing raw files that mix lengths."""

import importlib.util
import json
import types
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
SPEC = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def raw_rows(seconds):
    """Two pairs per workload of BENCHMARK.json, the j-th row run for
    seconds[j % len(seconds)]."""
    metrics = {m["name"]: {"value": 1.0} for m in SPEC["end_to_end"]}
    result = {"failed": 0, "attempted": 10, "metrics": metrics}
    rows = [{"workload": w["name"], "pair": pair, "seed": pair, "side": side,
             "exit": 0, "result": result}
            for w in SPEC["workloads"] for pair in (0, 1) for side in ("parent", "change")]
    for j, row in enumerate(rows):
        if seconds[j % len(seconds)] is not None:
            row["seconds"] = seconds[j % len(seconds)]
    return rows


def summarize(tmp_path, rows):
    raw, out = tmp_path / "runs.jsonl", tmp_path / "BENCH.json"
    raw.write_text("".join(json.dumps(row) + "\n" for row in rows))
    load_tool().main(["summarize", "--raw", str(raw), "--pr", "1",
                      "--parent-commit", "abc", "--out", str(out)])
    return json.loads(out.read_text())


def test_run_records_its_length(tmp_path, monkeypatch):
    tool = load_tool()
    line = json.dumps({"failed": 0, "attempted": 1, "metrics": {}})
    monkeypatch.setattr(tool.subprocess, "run",
                        lambda *a, **kw: types.SimpleNamespace(stdout=line + "\n", returncode=0))
    raw = tmp_path / "runs.jsonl"
    tool.main(["run", "--parent", ".", "--change", ".", "--workload", "sweep-small",
               "--seeds", "1,2", "--seconds", "7.5", "--raw", str(raw)])
    rows = [json.loads(x) for x in raw.read_text().splitlines()]
    assert len(rows) == 4 and {row["seconds"] for row in rows} == {7.5}


def test_summary_reports_the_recorded_length(tmp_path):
    assert summarize(tmp_path, raw_rows([20.0]))["run_seconds"] == 20.0


@pytest.mark.parametrize("seconds", [[20.0, 30.0], [20.0, None], [None]],
                         ids=["mixed", "some-missing", "missing"])
def test_summary_refuses_unclear_lengths(tmp_path, seconds):
    with pytest.raises(SystemExit, match="one run length"):
        summarize(tmp_path, raw_rows(seconds))
