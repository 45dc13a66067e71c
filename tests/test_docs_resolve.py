"""The documents name things that exist.

Every backticked ``repro.*`` dotted name, ``REPRO_*`` variable,
``path/file.py`` and CI job name quoted in DESIGN.md, README.md and
EXPERIMENTS.md must resolve against the tree: the module imports and
has the attribute, the variable is read somewhere under ``src/repro``,
the file is in the tree, the job is defined in the workflow.  Every
``python -m <module>`` command, in code blocks too, must name a module
that imports and runs as a program (a package with a ``__main__``).
Every backticked ``test_*`` name in those documents and in the verify
skill must name a test function or a test module under ``tests/`` or
``benchmarks/``.  History belongs in CHANGES.md, so a name the
documents still use is a name the tree still has.

``benchmarks/sharebench/README.md`` is not checked: feature PRs may not
edit the benchmark's directory, and it still names ``REPRO_COLUMNAR``.
"""

import importlib
import importlib.util
import inspect
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCUMENTS = ("DESIGN.md", "README.md", "EXPERIMENTS.md")
#: The documents whose test names are checked too.
TEST_CITING = DOCUMENTS + (".claude/skills/verify/SKILL.md",)

_BACKTICKED = re.compile(r"`([^`\n]+)`")
_DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
_VARIABLE = re.compile(r"\bREPRO_[A-Z][A-Z_]*\b")
_FILE = re.compile(r"[\w.\-]+(?:/[\w.\-]+)+\.(?:py|json|md|txt|yml|toml)\b")
_JOB = re.compile(r"`([a-z][a-z0-9-]*)`\s+job\b")
_COMMAND = re.compile(r"\bpython3? -m ([A-Za-z_][\w.]*)")
_TEST_NAME = re.compile(r"\btest_\w+")
_TEST_DEF = re.compile(r"^\s*(?:async\s+)?def (test_\w+)", re.M)


def _tree_files():
    """Every file of the tree, relative to its root (dot-directories
    and caches left out)."""
    files = []
    for directory, subdirectories, names in os.walk(ROOT):
        subdirectories[:] = [
            name for name in subdirectories
            if not name.startswith(".") and name != "__pycache__"
        ]
        relative = os.path.relpath(directory, ROOT)
        files.extend(
            name if relative == "." else f"{relative}/{name}".replace(os.sep, "/")
            for name in names
        )
    return files


def _source_variables(files):
    """The ``REPRO_*`` names that appear under ``src/repro``."""
    variables = set()
    for path in files:
        if path.startswith("src/repro/") and path.endswith(".py"):
            with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
                variables.update(_VARIABLE.findall(handle.read()))
    return variables


def _test_names(files):
    """The test functions and test modules under ``tests/`` and
    ``benchmarks/``."""
    names = set()
    for path in files:
        if path.startswith(("tests/", "benchmarks/")) and path.endswith(".py"):
            module = os.path.basename(path)[: -len(".py")]
            if module.startswith("test_"):
                names.add(module)
            with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
                names.update(_TEST_DEF.findall(handle.read()))
    return names


def dangling_tests(text, tests):
    """``(line, name)`` for every backticked ``test_*`` name that names
    no test (a pattern such as ``test_bench_*.py`` is not a name)."""
    dangling = []
    for quoted in _BACKTICKED.finditer(text):
        token = quoted.group(1)
        if "*" in token or "<" in token:
            continue
        for name in _TEST_NAME.findall(token):
            if name not in tests:
                dangling.append((text.count("\n", 0, quoted.start()) + 1, name))
    return dangling


def _ci_jobs():
    with open(os.path.join(ROOT, ".github", "workflows", "ci.yml")) as handle:
        workflow = handle.read()
    return set(re.findall(r"^  ([a-z][a-z0-9-]*):$", workflow.split("\njobs:\n")[1], re.M))


def _resolves(dotted):
    """``repro.a.b.C.d``: the longest importable module prefix, then
    attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def _runs_as_main(name):
    """``python -m name`` would run: the module imports, and a package
    has a ``__main__`` submodule, a plain module a ``__main__`` guard."""
    try:
        module = importlib.import_module(name)
    except ImportError:
        return False
    if hasattr(module, "__path__"):
        return importlib.util.find_spec(f"{name}.__main__") is not None
    return "__main__" in inspect.getsource(module)


def dangling_names(text, files, variables, jobs):
    """``(line, kind, name)`` for every quoted name that resolves to
    nothing."""
    dangling = []

    def line_of(position):
        return text.count("\n", 0, position) + 1

    for quoted in _BACKTICKED.finditer(text):
        token = quoted.group(1)
        line = line_of(quoted.start())
        for dotted in _DOTTED.findall(token):
            if not _resolves(dotted):
                dangling.append((line, "name", dotted))
        for variable in _VARIABLE.findall(token):
            if variable not in variables:
                dangling.append((line, "variable", variable))
        if "<" in token or "*" in token:
            continue  # a pattern or a placeholder, not a path
        for path in _FILE.findall(token):
            if not any(
                known == path or known.endswith("/" + path) for known in files
            ):
                dangling.append((line, "file", path))
    for job in _JOB.finditer(text):
        if job.group(1) not in jobs:
            dangling.append((line_of(job.start()), "CI job", job.group(1)))
    for command in _COMMAND.finditer(text):
        if not _runs_as_main(command.group(1)):
            dangling.append((line_of(command.start()), "command", command.group(1)))
    return dangling


@pytest.mark.parametrize("document", DOCUMENTS)
def test_every_quoted_name_resolves(document):
    files = _tree_files()
    with open(os.path.join(ROOT, document), encoding="utf-8") as handle:
        text = handle.read()
    dangling = dangling_names(text, files, _source_variables(files), _ci_jobs())
    assert dangling == [], "\n".join(
        f"{document}:{line}: {kind} `{name}` does not exist"
        for line, kind, name in dangling
    )


@pytest.mark.parametrize("document", TEST_CITING)
def test_every_quoted_test_name_resolves(document):
    with open(os.path.join(ROOT, document), encoding="utf-8") as handle:
        text = handle.read()
    dangling = dangling_tests(text, _test_names(_tree_files()))
    assert dangling == [], "\n".join(
        f"{document}:{line}: test `{name}` does not exist" for line, name in dangling
    )


def test_the_resolver_notices_a_removed_test():
    """A test function or module that is gone is dangling; one that is
    there, a ``pytest`` node id, and a pattern are not."""
    text = (
        "`test_golden_decisions`, `test_bounded_search_decides_like_the_full_search`\n"
        "and `tests/test_cli.py::TestScenarioNames`; `test_bench_*.py`;\n"
        "`test_golden_decision` and `test_only_a_ghost_is_built[scenario1]`.\n"
    )
    assert dangling_tests(text, _test_names(_tree_files())) == [
        (3, "test_golden_decision"),
        (3, "test_only_a_ghost_is_built"),
    ]


def test_the_resolver_notices_a_renamed_module():
    """The mutation check, kept: a name one letter off is dangling, as
    is a job the workflow does not define, a misspelled module and a
    package that cannot run as a program."""
    files = _tree_files()
    text = (
        "`repro.engine.executor` and `repro.engine.executer.StreamSimulator`,\n"
        "`REPRO_PARALLEL` (no variable is read), `tests/conftest.py` and\n"
        "`tests/conftests.py`; the `test` job and the `bench-micro` job.\n"
        "```bash\n"
        "python -m repro.analysis --plan\n"
        "PYTHONPATH=src python -m repro.anaylsis --plan\n"
        "python3 -m repro.bench --workers 2\n"
        "python -m json.tool\n"
        "```"
    )
    assert dangling_names(text, files, _source_variables(files), _ci_jobs()) == [
        (1, "name", "repro.engine.executer.StreamSimulator"),
        (2, "variable", "REPRO_PARALLEL"),
        (3, "file", "tests/conftests.py"),
        (3, "CI job", "bench-micro"),
        (6, "command", "repro.anaylsis"),
        (7, "command", "repro.bench"),
    ]
