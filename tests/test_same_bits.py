"""The hash-and-compare half of tools/same_bits.py, on two small trees."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_bits.py"
_SPEC = importlib.util.spec_from_file_location("same_bits", _PATH)
same_bits = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_bits)


def _tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return same_bits.tree_hashes(root)


def test_identical_trees_do_not_differ(tmp_path):
    files = {"runs/abc/aggregate.json": "{}", "runs/abc/trial_0/scores.csv": "1,0.5,1\n"}
    base = _tree(tmp_path / "base", files)
    assert set(base) == set(files)
    assert same_bits.differing(base, _tree(tmp_path / "work", files)) == []


def test_every_changed_or_one_sided_file_is_named(tmp_path):
    base = _tree(tmp_path / "base", {"a/same.csv": "x", "a/changed.csv": "0.5",
                                     "gone.json": "{}"})
    work = _tree(tmp_path / "work", {"a/same.csv": "x", "a/changed.csv": "0.5000001",
                                     "new.json": "{}"})
    assert same_bits.differing(base, work) == ["a/changed.csv", "gone.json", "new.json"]


def test_error_text_is_not_compared(tmp_path):
    # a traceback names its own tree's paths, so it differs on identical code
    base = _tree(tmp_path / "base", {"trial_0/error.txt": "File /tmp/base/src/x.py"})
    work = _tree(tmp_path / "work", {"trial_0/error.txt": "File /repo/src/x.py"})
    assert base == work == {}
