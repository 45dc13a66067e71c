"""Every diagnostic code the analysis passes can report is named by a test.

A code is *defined* when its literal (``"T201"``) appears in a module
under ``src/repro/analysis`` or in ``repro.properties.typecheck`` (the
T2xx typing); it is *named* when some other file under
``tests/`` mentions it.  A code no test can name is a check nothing
reaches: delete it, or enforce its condition where the input is built.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
CODE = re.compile(r"\b[PTLFS][0-9]{3}\b")


def defined_codes():
    src = ROOT / "src" / "repro"
    checks = [*(src / "analysis").rglob("*.py"), src / "properties" / "typecheck.py"]
    return {
        match.group(0)[1:-1]
        for path in checks
        for match in re.finditer(r'"[PTLFS][0-9]{3}"', path.read_text(encoding="utf-8"))
    }


def named_codes():
    this = pathlib.Path(__file__).resolve()
    return {
        code
        for path in (ROOT / "tests").rglob("*")
        if path.is_file() and path.resolve() != this and path.suffix in (".py", ".json")
        for code in CODE.findall(path.read_text(encoding="utf-8"))
    }


def test_every_defined_code_is_named_by_a_test():
    unnamed = defined_codes() - named_codes()
    assert not unnamed, f"named by no test: {sorted(unnamed)}"
