import re
import shlex
from pathlib import Path

from chebykan import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    """The README's Python block runs as written and prints what it claims."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "1440 parameters"
    assert printed[1].startswith("final MSE ")


def test_command_lines_parse():
    """Every `chebykan ...` line of the README's sh blocks parses as written."""
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    lines = [l for b in blocks for l in b.splitlines() if l.startswith("chebykan ")]
    parsed = {cli.build_parser().parse_args(shlex.split(l)[1:]).command for l in lines}
    assert parsed == set(cli.COMMANDS)
