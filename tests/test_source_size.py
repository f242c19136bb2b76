"""tools/source_size.py: which lines of a module count as code."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "source_size.py"
_spec = importlib.util.spec_from_file_location("source_size", TOOL)
source_size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(source_size)


def test_code_lines_skip_comments_blank_lines_and_string_statements(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('"""Module\ndocstring."""\n\n# a comment\ndef f(x):\n'
                    '    "a docstring"\n    return g(x,  # trailing comment\n'
                    '             """a string\nargument""")\n')
    # code: the def, the return and both lines of the string argument
    assert source_size.sizes(path) == (9, 4)


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\n")
    (tmp_path / "b.py").write_text('"""Doc."""\ny = 2\nz = 3\n')
    source_size.main([str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "wc", "-l", "code"], ["a", "2", "1"], ["b", "3", "2"],
                    ["total", "5", "3"]]
