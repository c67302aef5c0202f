"""tools/ab.py, the in-process A/B timing harness: an A/A read of this
tree against itself on a tiny workload, and the refusal to report on a
tree whose outputs differ from the parent's."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
AB_PATH = ROOT / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", AB_PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

FRAGMENT_KEYS = {"workload", "rounds", "ratio", "won", "aa_ratio", "median_s", "ratios",
                 "aa_ratios"}


@pytest.mark.parametrize("workload", ["run", "sweep", "small", "build"])
def test_a_tree_against_itself(workload):
    fragment = ab.compare(ROOT, ROOT, workload, rounds=2, size=2)
    assert set(fragment) == FRAGMENT_KEYS
    assert fragment["workload"] == workload and fragment["rounds"] == 2
    assert len(fragment["ratios"]) == len(fragment["aa_ratios"]) == 2
    assert 0 <= fragment["won"] <= 2
    assert set(fragment["median_s"]) == {"parent", "control", "change"}
    assert all(ratio > 0 for ratio in fragment["ratios"] + fragment["aa_ratios"])
    assert json.loads(json.dumps(fragment)) == fragment


def test_a_tree_whose_outputs_differ_is_refused(tmp_path):
    """A change whose MulPair adds one to every product gives other
    outputs: compare raises, and the command exits 1 with nothing on
    standard output."""
    changed = tmp_path / "changed"
    shutil.copytree(ROOT / "src" / "aridem", changed / "src" / "aridem",
                    ignore=shutil.ignore_patterns("__pycache__"))
    engine = changed / "src" / "aridem" / "engine.py"
    source = engine.read_text()
    assert source.count("value = val * hit[2]\n") == 1
    engine.write_text(source.replace("value = val * hit[2]\n", "value = val * hit[2] + 1\n"))
    with pytest.raises(ab.OutputsDiffer, match="change"):
        ab.compare(ROOT, changed, "run", rounds=1, size=2)
    done = subprocess.run([sys.executable, str(AB_PATH), str(ROOT), str(changed),
                           "--workload", "run", "--rounds", "1", "--size", "2"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error: change")
