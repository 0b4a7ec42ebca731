"""Line counts of the package source, split into code, docstring, comment and blank lines.

Every line of a file falls in exactly one class.  A docstring line lies
within the lines of a module, class or function docstring (blank lines
inside one too); of the other lines, a blank line is empty or whitespace, a
comment line holds only a comment, and every other line is a code line.

    python tests/src_lines.py [directory]

prints the counts of each ``*.py`` file under the directory (default
``src/afdm_isac``) and their total.
"""

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
SRC = Path(__file__).resolve().parents[1] / "src" / "afdm_isac"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based numbers of the lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def classify(source: str) -> dict[str, int]:
    """The number of lines of each kind in ``source``."""
    docs = docstring_lines(ast.parse(source))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif not text:
            counts["blank"] += 1
        elif text.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def count_tree(root: Path) -> dict[str, dict[str, int]]:
    """``classify`` of each ``*.py`` file under ``root``, by relative path, then ``total``."""
    table = {
        str(path.relative_to(root)): classify(path.read_text())
        for path in sorted(root.rglob("*.py"))
    }
    table["total"] = {kind: sum(row[kind] for row in table.values()) for kind in KINDS}
    return table


def main(argv: list[str]) -> None:
    root = Path(argv[1]) if len(argv) > 1 else SRC
    table = count_tree(root)
    width = max(map(len, table))
    print(f"{'file':<{width}} " + " ".join(f"{kind:>9}" for kind in (*KINDS, "lines")))
    for name, row in table.items():
        print(f"{name:<{width}} " + " ".join(f"{row[kind]:>9}" for kind in KINDS)
              + f" {sum(row.values()):>9}")


if __name__ == "__main__":
    main(sys.argv)
