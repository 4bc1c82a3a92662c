"""README.md's examples print what it shows: each `$ dscodes ...` example with
output, each `print` line of the Library block against its `# ...` comment,
and the table of each claim's inputs against codes.CLAIMS."""

import re
import shlex
from pathlib import Path

import pytest

from dscodes import codes
from dscodes.cli import entry

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples(text):
    """(argv, stdout) per paragraph of a sh block that is a `$ dscodes` line and its output."""
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```$", text, re.M | re.S):
        for paragraph in block.strip("\n").split("\n\n"):
            command, *output = paragraph.split("\n")
            if command.startswith("$ dscodes ") and output and not output[0].startswith("$"):
                argv = shlex.split(command[len("$ dscodes "):])
                examples.append((argv, "\n".join(output) + "\n"))
    return examples


EXAMPLES = readme_examples(README.read_text())


def test_the_readme_shows_seven_examples_with_output():
    assert len(EXAMPLES) == 7


@pytest.mark.parametrize("argv,stdout", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_example_prints_what_the_readme_shows(capsys, argv, stdout):
    rc = entry(argv)
    out = capsys.readouterr()
    assert (rc, out.err) == (0, "")
    assert out.out == stdout


def test_readme_library_block_prints_what_its_comments_show(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    want = [line.rsplit("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert want
    exec(block, {})
    assert capsys.readouterr().out.splitlines() == want


def test_readme_claim_table_lists_the_inputs_of_codes_claims():
    text = README.read_text()
    table = text[text.index("| claim | inputs |"):].split("\n\n")[0]
    rows = re.findall(r"^ *\| `(.+)` \| `(.+)` \|$", table, re.M)
    assert rows == [(claim, ", ".join(inputs)) for claim, inputs in codes.CLAIMS.items()]
