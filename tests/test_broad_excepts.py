"""The broad exception handlers of ``src/`` are an explicit, counted list.

A bare ``except:``, ``except Exception`` or ``except BaseException`` (alone or in a
tuple) swallows defects along with the failures it was written for.  Each one left
is named here by module and enclosing scope: a new one fails this test, and
narrowing one fails it too until the list is updated.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: (module under ``src/``, enclosing class.function) of every broad handler.
BROAD_EXCEPTS = Counter(
    [
        ("repro/quality/artifacts.py", "ArtifactCache._run_flight"),
        ("repro/recommend/advisor.py", "AdvisorService._revive"),
        ("repro/serving/daemon.py", "AdvisorDaemon._loop"),
        ("repro/serving/store.py", "ArtifactStore.save"),
        ("repro/serving/store.py", "ArtifactStore.load"),
        ("repro/serving/store.py", "ArtifactStore._publish"),
    ]
)

_BROAD = {"Exception", "BaseException"}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(name, ast.Name) and name.id in _BROAD for name in caught)


def _broad_sites(path: Path):
    module = path.relative_to(SRC).as_posix()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            if isinstance(child, ast.ExceptHandler) and _is_broad(child):
                yield module, ".".join(inner)
            yield from walk(child, inner)

    return walk(ast.parse(path.read_text(encoding="utf-8")), ())


def test_the_broad_except_sites_are_the_listed_ones():
    found = Counter(site for path in sorted(SRC.rglob("*.py")) for site in _broad_sites(path))
    assert found == BROAD_EXCEPTS


def test_the_scan_sees_every_broad_form():
    source = (
        "def f():\n"
        "    try: pass\n"
        "    except: pass\n"
        "    try: pass\n"
        "    except (OSError, Exception): pass\n"
        "    try: pass\n"
        "    except BaseException as error: pass\n"
        "    try: pass\n"
        "    except ValueError: pass\n"
    )
    handlers = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ExceptHandler)]
    assert [_is_broad(handler) for handler in handlers] == [True, True, True, False]
