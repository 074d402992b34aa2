import re
import shlex
from pathlib import Path

from motionmimic.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def walkthrough():
    """(heredoc files, motionmimic command lines) of the README's walkthrough block."""
    section = README.read_text().split("## Pipeline walkthrough", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    files = dict(re.findall(r"cat > (\S+) <<'EOF'\n(.*?)^EOF$", block, re.S | re.M))
    commands = [line for line in block.splitlines() if line.startswith("motionmimic ")]
    return files, commands


def test_readme_walkthrough_runs(tmp_path, monkeypatch):
    files, commands = walkthrough()
    assert "demo.mov" in files and len(commands) >= 6
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        Path(name).write_text(text)
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, line
