"""No line of the package or its tests is wider than 100 columns."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MAX_COLUMNS = 100


def test_python_lines_fit_in_100_columns():
    too_wide = [
        f"{path.relative_to(ROOT)}:{number}: {len(line)} columns"
        for top in ("src", "tests")
        for path in sorted((ROOT / top).rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_COLUMNS
    ]
    assert too_wide == []
