"""No numeric tolerance is written outside ``linalg``'s tolerance policy.

``linalg`` names every tolerance the package uses, and other modules read the
names.  A float literal with a negative exponent (``1e-9``, ``2.5e-12``) in
the code of any other module is a tolerance defined in the wrong place.  The
scan reads tokens, so docstrings and comments do not count.
"""

import io
import re
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "uavcache"
NEGATIVE_EXPONENT = re.compile(r"[eE]-")


def stray_tolerances(package: Path) -> list[str]:
    """``file:line`` of each negative-exponent number outside ``linalg.py``."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if tok.type == tokenize.NUMBER and NEGATIVE_EXPONENT.search(tok.string):
                found.append(f"{path.name}:{tok.start[0]}")
    return sorted(set(found))


def test_scan_sees_literals_not_text(tmp_path):
    (tmp_path / "linalg.py").write_text("TOL = 1e-9\n")
    (tmp_path / "a.py").write_text('"""1e-9 in a docstring"""\nx = 1e-9  # 1e-12\ny = 1e9\n')
    (tmp_path / "b.py").write_text("z = 2.5E-12j + 0x1e - 3\n")
    assert stray_tolerances(tmp_path) == ["a.py:2", "b.py:1"]


def test_tolerances_live_in_linalg():
    assert stray_tolerances(PACKAGE) == []
