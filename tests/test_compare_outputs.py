import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_dir(root: Path, table: str, wall: float, extra: dict) -> Path:
    """One result tree: a run whose manifest names its own --out directory."""
    out = root / "chain" / "decay" / "out"
    out.mkdir(parents=True)
    (out / "energy.csv").write_text(table)
    (out / "timing.json").write_text(json.dumps({"wall_time_s": wall}))
    manifest = {"options": {"out": str(out)}, "outputs": [str(out / "energy.csv")], **extra}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    (root / "chain" / "decay" / "console.txt").write_text("exit 0\ndecay: done\n")
    return out


def test_equal_trees_differ_only_in_out_paths_and_wall_times(tmp_path):
    tool = _load_tool()
    _run_dir(tmp_path / "base", "t,E\r\n0,1\r\n", 0.5, {"rate": 1.0})
    _run_dir(tmp_path / "change", "t,E\r\n0,1\r\n", 2.5, {"rate": 1.0})
    assert tool.compare_trees(tmp_path / "base", tmp_path / "change") == []


def test_every_differing_file_and_every_one_sided_file_is_listed(tmp_path):
    tool = _load_tool()
    _run_dir(tmp_path / "base", "t,E\r\n0,1\r\n", 0.5, {"rate": 1.0})
    out = _run_dir(tmp_path / "change", "t,E\r\n0,1.0000000000000002\r\n", 0.5, {"rate": 2.0})
    (out / "extra.csv").write_text("x\r\n")
    (tmp_path / "base" / "chain" / "decay" / "console.txt").write_text("exit 2\n")
    assert tool.compare_trees(tmp_path / "base", tmp_path / "change") == [
        "chain/decay/console.txt",
        "chain/decay/out/energy.csv",
        "chain/decay/out/extra.csv",
        "chain/decay/out/manifest.json",
    ]


def test_only_a_manifest_has_its_out_path_normalised(tmp_path):
    # a CSV that happens to hold the run's directory compares as written
    tool = _load_tool()
    for side in ("base", "change"):
        out = _run_dir(tmp_path / side, "t,E\r\n", 0.5, {})
        (out / "paths.csv").write_text(str(out))
    assert tool.compare_trees(tmp_path / "base", tmp_path / "change") == [
        "chain/decay/out/paths.csv"]


def test_largest_change_of_same_shaped_numeric_cells(tmp_path):
    tool = _load_tool()
    base = _run_dir(tmp_path / "base", "t,E\r\n0,1\r\n1,-2e-3\r\n2,inf\r\n", 0.5,
                    {"rate": 1.0})
    change = _run_dir(tmp_path / "change",
                      "t,E\r\n0,1.0000000000000002\r\n1,-2.002e-3\r\n2,inf\r\n", 0.5,
                      {"rate": 1.5})
    assert tool.column_changes(base / "energy.csv", change / "energy.csv") == {
        "t": 0.0, "E": pytest.approx(1e-3)}
    # the manifest's own --out paths are normalised first; its one number moved by half
    assert tool.column_changes(base / "manifest.json", change / "manifest.json") == {
        '"rate":': 0.5}
    # a cell that leaves zero or a finite value moves infinitely far
    (base / "zero.csv").write_text("x\r\n0\r\n1\r\n")
    (change / "zero.csv").write_text("x\r\n1e-300\r\n1\r\n")
    (base / "nan.csv").write_text("x\r\nnan\r\n0.5\r\n")
    (change / "nan.csv").write_text("x\r\nnan\r\ninf\r\n")
    for name in ("zero.csv", "nan.csv"):
        assert tool.column_changes(base / name, change / name) == {"x": float("inf")}


def test_largest_change_needs_the_same_text_between_the_numbers(tmp_path):
    tool = _load_tool()
    for side, text in (("base", "x,y\r\n1,2\r\n"), ("change", "x,y\r\n1,2\r\n3,4\r\n")):
        (tmp_path / f"{side}.csv").write_text(text)
    assert tool.column_changes(tmp_path / "base.csv", tmp_path / "change.csv") is None
    # digits inside a name or a dotted version are text, not cells
    (tmp_path / "a.txt").write_text("edge1 numpy 2.4.6 value 3\n")
    (tmp_path / "b.txt").write_text("edge2 numpy 2.4.7 value 3\n")
    assert tool.column_changes(tmp_path / "a.txt", tmp_path / "b.txt") is None
    (tmp_path / "b.txt").write_text("edge1 numpy 2.4.6 value 6\n")
    assert tool.column_changes(tmp_path / "a.txt", tmp_path / "b.txt") == {
        "edge1 numpy 2.4.6 value": 1.0}


def test_changes_are_reported_per_column(tmp_path):
    # a column of rounding noise, such as |D| at converged roots, no longer hides the others
    tool = _load_tool()
    (tmp_path / "base.csv").write_text("re,im,residual\r\n-0.5,2,1e-17\r\n-0.25,4,3e-18\r\n")
    (tmp_path / "change.csv").write_text("re,im,residual\r\n-0.5,2.002,5e-17\r\n-0.25,4,2e-18\r\n")
    changes = tool.column_changes(tmp_path / "base.csv", tmp_path / "change.csv")
    assert changes == {"re": 0.0, "im": pytest.approx(1e-3), "residual": pytest.approx(4.0)}
    # elsewhere a number's column is the text that leads up to it on its line
    (tmp_path / "base.json").write_text('{\n  "gap": 0.5,\n  "roots": [1, 2]\n}\n')
    (tmp_path / "change.json").write_text('{\n  "gap": 0.75,\n  "roots": [1, 3]\n}\n')
    assert tool.column_changes(tmp_path / "base.json", tmp_path / "change.json") == {
        '"gap":': 0.5, '"roots": [': 0.0, '"roots": [#,': 0.5}


def test_largest_absolute_change_beside_the_relative_one(tmp_path):
    # a column that leaves or crosses 0 reads a relative change of inf or about 1, whatever
    # the size of the move; its absolute change gives that size
    tool = _load_tool()
    (tmp_path / "base.csv").write_text("beta,im\r\n0,-1e-9\r\n0.5,2\r\n1,nan\r\n")
    (tmp_path / "change.csv").write_text("beta,im\r\n1e-12,2e-9\r\n0.5,2\r\n1,nan\r\n")
    moves = tool.column_moves(tmp_path / "base.csv", tmp_path / "change.csv")
    assert moves == {"beta": (float("inf"), 1e-12), "im": pytest.approx((3.0, 3e-9))}
    assert tool.column_changes(tmp_path / "base.csv", tmp_path / "change.csv") == {
        "beta": float("inf"), "im": pytest.approx(3.0)}
    # a move to or from a non-finite value is an infinite move by either measure
    (tmp_path / "change.csv").write_text("beta,im\r\n0,-1e-9\r\n0.5,inf\r\n1,0\r\n")
    assert tool.column_moves(tmp_path / "base.csv", tmp_path / "change.csv") == {
        "beta": (0.0, 0.0), "im": (float("inf"), float("inf"))}
    assert tool.column_moves(tmp_path / "base.csv", tmp_path / "base.csv") == {
        "beta": (0.0, 0.0), "im": (0.0, 0.0)}
