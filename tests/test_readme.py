import re

from conftest import REPO_ROOT


def test_readme_python_examples_run(monkeypatch, capsys):
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 2
    # The examples name files relative to the repository root, and a later
    # block uses what an earlier one defined.
    monkeypatch.chdir(REPO_ROOT)
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out
