"""Every text file the package opens names its encoding: without
``encoding=``, ``open``, ``Path.read_text`` and ``Path.write_text`` use the
locale's, so a file one host writes may not read back on another.
``tests/test_interpreters.py`` catches such a call only where it runs and only
on the paths its scripts take; this check reads the source."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "faastune"

#: The index of ``encoding`` among each call's positional arguments.
_ENCODING_AT = {"open": 3, "read_text": 0, "write_text": 1}


def _text_io_without_encoding(source: str) -> list[int]:
    """The lines of the calls in ``source`` to ``open`` in a mode not known
    to be binary, ``.read_text`` or ``.write_text`` that give no encoding."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            name = "open"
        elif isinstance(node.func, ast.Attribute) and node.func.attr in ("read_text", "write_text"):
            name = node.func.attr
        else:
            continue
        keywords = {keyword.arg: keyword.value for keyword in node.keywords}
        if "encoding" in keywords or len(node.args) > _ENCODING_AT[name]:
            continue
        if name == "open":
            mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
            if isinstance(mode, ast.Constant) and "b" in str(mode.value):
                continue  # a binary file has no encoding
        lines.append(node.lineno)
    return sorted(lines)


def test_the_check_finds_text_io_without_an_encoding():
    source = (
        "open(path)\n"
        "open(path, 'w', encoding='utf-8')\n"
        "open(path, 'rb')\n"
        "open(path, mode='wb')\n"
        "open(path, 'r', -1, 'utf-8')\n"
        "with open(path, 'a', newline='') as fh:\n"
        "    Path(p).read_text()\n"
        "Path(p).read_text('utf-8')\n"
        "p.write_text(text)\n"
        "p.write_text(text, encoding='ascii')\n"
        "def f(mode):\n"
        "    return open(path, mode)\n"
    )
    assert _text_io_without_encoding(source) == [1, 6, 7, 9, 12]


def test_the_package_names_the_encoding_of_every_text_file():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert {module.name: _text_io_without_encoding(module.read_text(encoding="utf-8"))
            for module in modules} == {module.name: [] for module in modules}
