"""Every diagnostic code the analysis passes can report is named by a test.

A code is *defined* when its literal (``"T201"``) appears in a module
under ``src/repro/analysis``; it is *named* when some other file under
``tests/`` mentions it.  The allowlist holds the codes no test names
yet: input checks reachable only through a mutated deployment or an
arbitrary pipeline handed to ``StreamGlobe.install_derived_stream``.
It may only shrink — the test fails as well when a listed code gains a
test, so the entry has to go.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
CODE = re.compile(r"\b[PTLFS][0-9]{3}\b")

UNNAMED_ALLOWLIST = {"P114", "P123", "T209", "T210", "T211", "T212", "T214", "T218"}


def defined_codes():
    return {
        match.group(0)[1:-1]
        for path in (ROOT / "src" / "repro" / "analysis").rglob("*.py")
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
    assert unnamed == UNNAMED_ALLOWLIST, (
        f"named by no test: {sorted(unnamed - UNNAMED_ALLOWLIST)}; "
        f"named now, drop from the allowlist: {sorted(UNNAMED_ALLOWLIST - unnamed)}"
    )
