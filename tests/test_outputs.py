"""The case list of the moved-outputs recorder (tools/outputs.py) runs on
this tree: every case exits as listed and writes its output, so the list
cannot rot between the changes that compare two trees with it.  About 2.5 s
of tier-1 time on one core, 2 s of it the two cases of the 19^4 4-axis
graph (n = 5), which also take the test process to about 230 MB."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("outputs_tool", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_recorder_cases_run_and_exit_as_listed(tmp_path):
    tool = load_tool()
    tool.write_inputs(tmp_path)
    results = tool.run_cases(tmp_path)
    assert {name: rec["exit"] for name, rec in results.items()} == {
        name: code for name, (_, code) in tool.CASES.items()}
    for name, rec in results.items():
        assert ("output" in rec) == (rec["exit"] == 0), name
    assert set(results["analyze:torus --csv"]["csv"]) >= {"u", "v", "x1", "k1", "r", "rho"}
    record = tool.compare(results, results)
    assert tool.summary(record)["fields_moved"] == 0
