"""The CLI transcript in tests/golden/cli.json: every listed call must print
exactly the recorded stdout and exit with the recorded code."""

import json
from pathlib import Path

import pytest

from lambdapm.cli import main

CLI = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())


@pytest.mark.parametrize("entry", CLI, ids=[f"{i:02d}-{e['argv'][0]}"
                                            for i, e in enumerate(CLI)])
def test_cli_transcript(entry, capsys):
    code = main(list(entry["argv"]))
    assert capsys.readouterr().out == entry["stdout"]
    assert code == entry["exit"]
