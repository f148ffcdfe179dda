"""The README's Python examples and its command-line block run as written,
so renaming or deleting documented API or CLI surface fails the suite."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TEXT = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
COMMANDS = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```", TEXT, re.M | re.S).group(1)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(source, str(ROOT / "README.md"), "exec"), {"__name__": "__readme__"})


def test_readme_command_line_block_runs(tmp_path):
    # each `treegress` line runs through `python -m treegress.cli`, in a
    # directory where the block's relative `src/` paths resolve
    assert "treegress fit" in COMMANDS
    (tmp_path / "src").symlink_to(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    env.pop("TREEGRESS_SEED", None)
    script = f'treegress() {{ "{sys.executable}" -m treegress.cli "$@"; }}\nset -e\n{COMMANDS}'
    done = subprocess.run(["bash", "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    for path in ("pta.json", "data/train.csv", "hyp/test3.csv", "posterior.json",
                 "report/metrics.csv", "report/bands.csv"):
        assert (tmp_path / path).is_file(), path
