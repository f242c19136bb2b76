"""Golden CLI output: stdout bytes and exit codes pinned across refactors.

``cli_golden.json`` holds one record per invocation: the arguments, the exit
code and the exact stdout.  It covers every command in every format, exact
and float mode, and the usage errors (exit 2).  Stderr is not pinned.

After a deliberate change of output, rewrite the expected values with
``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from gegenkit.cli import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")
CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))


def run(args):
    result = CliRunner().invoke(cli, args)
    return {"args": args, "exit_code": result.exit_code, "stdout": result.stdout}


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["args"]) for c in CASES])
def test_stdout_and_exit_code_unchanged(case):
    assert run(case["args"]) == case


if __name__ == "__main__":
    records = [run(c["args"]) for c in CASES]
    GOLDEN.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
