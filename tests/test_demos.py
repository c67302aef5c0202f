"""Golden stdout of each demo script.

Each demos/*.py runs in its own interpreter with PYTHONPATH=src, as the
README tells readers to run it, and its stdout must match
demo_golden/<stem>.txt byte for byte.

To rewrite the files after an intended change to a demo's output:

    PYTHONPATH=src python tests/test_demos.py --write
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).with_name("demo_golden")
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def demo_stdout(demo: Path) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_every_demo_has_a_golden():
    assert [d.stem for d in DEMOS] == sorted(p.stem for p in GOLDEN_DIR.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_stdout_matches_golden(demo):
    assert demo_stdout(demo) == (GOLDEN_DIR / f"{demo.stem}.txt").read_text()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_demos.py --write")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for demo in DEMOS:
        (GOLDEN_DIR / f"{demo.stem}.txt").write_text(demo_stdout(demo))
