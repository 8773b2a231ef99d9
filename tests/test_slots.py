"""Every frozen dataclass in the package is slotted, so no value instance
carries a ``__dict__``: searches hold thousands of profiles and graph nodes
at once. ``value_types.py`` checks that the slotted types still pickle,
copy and compare on every interpreter."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "faastune"


def _is_true(keywords: list[ast.keyword], name: str) -> bool:
    return any(k.arg == name and isinstance(k.value, ast.Constant) and k.value.value is True
               for k in keywords)


def _unslotted_frozen_dataclasses(source: str) -> list[str]:
    """Names of the classes in ``source`` decorated ``@dataclass(frozen=True,
    ...)`` (or ``@dataclasses.dataclass(...)``) without ``slots=True``."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for decorator in node.decorator_list:
            if not isinstance(decorator, ast.Call):
                continue
            func = decorator.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if (called == "dataclass" and _is_true(decorator.keywords, "frozen")
                    and not _is_true(decorator.keywords, "slots")):
                names.append(node.name)
    return names


def test_the_check_finds_frozen_dataclasses_without_slots():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int\n"
        "@dataclasses.dataclass(frozen=True, slots=False)\n"
        "class B:\n"
        "    x: int\n"
        "@dataclass(frozen=True, slots=True)\n"
        "class C:\n"
        "    x: int\n"
        "@dataclass\n"
        "class D:\n"
        "    x: int\n"
        "def f():\n"
        "    @dataclass(order=True, frozen=True)\n"
        "    class E:\n"
        "        x: int\n"
    )
    assert _unslotted_frozen_dataclasses(source) == ["A", "B", "E"]


def test_every_frozen_dataclass_in_the_package_is_slotted():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert {module.name: _unslotted_frozen_dataclasses(module.read_text(encoding="utf-8"))
            for module in modules} == {module.name: [] for module in modules}
