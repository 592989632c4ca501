"""Count the package's source lines: non-blank lines that are not ``#`` comments.

    python scripts/loc.py

prints one line per module of ``src/softnewt`` and the total. Docstrings
count as code; a line holding only a comment does not.
"""

from __future__ import annotations

from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "softnewt"


def count_lines(text: str) -> int:
    """Lines that hold something other than whitespace and a ``#`` comment."""
    return sum(1 for line in text.splitlines() if line.strip() and not line.strip().startswith("#"))


def main() -> int:
    counts = {path.name: count_lines(path.read_text()) for path in sorted(PACKAGE_DIR.glob("*.py"))}
    width = max(map(len, counts))
    for name, lines in counts.items():
        print(f"{name:<{width}} {lines:>5}")
    print(f"{'total':<{width}} {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
