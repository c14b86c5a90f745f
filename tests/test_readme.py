"""README's Library example runs as written and does what its comments say."""
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_block_runs_as_written(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # it saves transform.json to the cwd
    ns: dict = {}
    exec(compile(_library_block(), str(README), "exec"), ns)
    scores = ns["result"].feature_scores()
    # "~0 for the planted dead feature": feature 0 scores lowest
    assert scores[0] < scores[1:].min()
    np.testing.assert_allclose(ns["sol"].gates, [0.5, 0.875])
    assert (tmp_path / "transform.json").is_file()
