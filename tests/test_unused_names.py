"""Every top-level name and method in src/latticepath is read somewhere.

A module-level function, class or constant of src/latticepath/*.py, and a
method of a module-level class other than a dunder, must be named outside its
own definition somewhere in src/, demos/, perfbench/ or
tests/test_acceptance.py; a name that only tests reach is dead code. Names are
matched as whole words in the source text, so an import, a string in
`__all__` or a tracer install point counts as a use, and so does any other
attribute or name spelled the same. Class attributes other than methods are
not checked.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "latticepath"
WORD = re.compile(r"\w+")

# Names kept on purpose although nothing above reads them, with the reason.
ALLOWED = {
    # the writer half of the scenario file format; tests write scenario files with it
    "write_scenarios",
}


def _reader_files() -> list[Path]:
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    files += sorted(p for p in (ROOT / "perfbench").rglob("*") if p.suffix in (".py", ".json"))
    return files + [ROOT / "tests" / "test_acceptance.py"]


def _definitions(tree: ast.Module):
    """(name, first line, last line) of each module-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and not t.id.startswith("__"):
                    yield t.id, node.lineno, node.end_lineno


def _methods(tree: ast.Module):
    """(Class.name, first line, last line) of each non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.lineno, item.end_lineno


def unread_names(definitions=_definitions) -> list[str]:
    """Qualified names of definitions that appear nowhere but in their own definition."""
    words = Counter(w for p in _reader_files() for w in WORD.findall(p.read_text(encoding="utf-8")))
    unread = []
    for module in sorted(PACKAGE.glob("*.py")):
        source = module.read_text(encoding="utf-8")
        lines = source.splitlines()
        for qualified, first, last in definitions(ast.parse(source)):
            name = qualified.rsplit(".", 1)[-1]
            own = WORD.findall("\n".join(lines[first - 1:last])).count(name)
            if words[name] == own:
                unread.append(qualified if module.stem == "__init__" else f"{module.stem}.{qualified}")
    return unread


def test_every_top_level_name_is_read():
    unread = [q for q in unread_names() if q.rsplit(".", 1)[-1] not in ALLOWED]
    assert unread == [], f"top-level names nothing reads: {unread}"


def test_every_method_is_read():
    unread = [q for q in unread_names(_methods) if q.rsplit(".", 1)[-1] not in ALLOWED]
    assert unread == [], f"methods nothing reads: {unread}"


def test_allowlist_names_are_still_unread():
    # an allowlisted name that has gained a reader no longer needs its entry
    assert {q.rsplit(".", 1)[-1] for q in unread_names() + unread_names(_methods)} >= ALLOWED
