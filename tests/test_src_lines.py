from src_lines import KINDS, SRC, classify, count_tree

# 20 lines, counted by hand: code 7, docstring 6, comment 1, blank 6
SAMPLE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment leaves a code line


# a comment line
def f(x):
    """One line."""
    return math.sqrt(x)


class C:
    """Two

    lines with a blank one inside."""

    y = 1
z = """a string,
not a docstring"""
'''


def test_hand_counted_sample():
    assert classify(SAMPLE) == {"code": 7, "docstring": 6, "comment": 1, "blank": 6}


def test_counts_partition_every_source_file():
    table = count_tree(SRC)
    files = sorted(SRC.rglob("*.py"))
    assert [name for name in table if name != "total"] == [str(path.relative_to(SRC)) for path in files]
    for path in files:
        assert sum(table[str(path.relative_to(SRC))].values()) == len(path.read_text().splitlines()), path.name
    assert table["total"] == {kind: sum(table[name][kind] for name in table if name != "total") for kind in KINDS}
