"""Independent propositional reference for the benchmark's checks.

The Belnap-Dunn matrix is written out here from the paper's tables,
without importing ``bd4.values`` or ``bd4.semantics``, so that a
verdict or witness that both the program and this file agree on was
reached twice by separate code.

Formulas are the benchmark's own tuples, the same ones the generators
render to text for the program:

    ("atom", name)   ("F",)   ("not", a)
    ("and", a, b)    ("or", a, b)    ("imp", a, b)

Values are the letters t, b, n, f; t and b are designated.
"""

from __future__ import annotations

import itertools

ORDER = "tbnf"
DESIGNATED = frozenset("tb")


def _table(rows: str) -> dict:
    """A binary table from four rows of four letters, rows and columns
    both in t, b, n, f order."""
    cells = rows.split()
    return {
        (a, b): cells[i][j]
        for i, a in enumerate(ORDER) for j, b in enumerate(ORDER)
    }


NEG = {"t": "f", "b": "b", "n": "n", "f": "t"}

#            t    b    n    f
AND = _table("tbnf "   # t
             "bbff "   # b
             "nfnf "   # n
             "ffff")   # f
OR = _table("tttt "
            "tbtb "
            "ttnn "
            "tbnf")
IMP = _table("tbnf "
             "tbnf "
             "tttt "
             "tttt")
FALSUM = "f"

_BINARY = {"and": AND, "or": OR, "imp": IMP}


def column(a, cols: dict, size: int) -> tuple:
    """The values of a tuple formula over a whole valuation grid, where
    ``cols[name]`` holds the atom's value in each of the ``size`` rows."""
    tag = a[0]
    if tag == "atom":
        return cols[a[1]]
    if tag == "F":
        return (FALSUM,) * size
    if tag == "not":
        return tuple(NEG[x] for x in column(a[1], cols, size))
    table = _BINARY[tag]
    return tuple(table[x, y] for x, y in zip(column(a[1], cols, size),
                                             column(a[2], cols, size)))


def atoms(formulas) -> tuple:
    out = set()
    stack = list(formulas)
    while stack:
        a = stack.pop()
        if a[0] == "atom":
            out.add(a[1])
        else:
            stack.extend(x for x in a[1:] if isinstance(x, tuple))
    return tuple(sorted(out))


def consequence(gamma, delta):
    """(True, None) when every valuation designating all of gamma
    designates some member of delta, else (False, first countervaluation)
    with valuations ordered t, b, n, f per atom, atoms sorted by name."""
    names = atoms(list(gamma) + list(delta))
    grid = list(itertools.product(ORDER, repeat=len(names)))
    cols = {a: tuple(row[i] for row in grid) for i, a in enumerate(names)}
    ant = [column(g, cols, len(grid)) for g in gamma]
    suc = [column(d, cols, len(grid)) for d in delta]
    for i, row in enumerate(grid):
        if all(g[i] in DESIGNATED for g in ant) and not any(
                d[i] in DESIGNATED for d in suc):
            return False, dict(zip(names, row))
    return True, None


def render(a) -> str:
    """The program's concrete syntax, fully parenthesised."""
    tag = a[0]
    if tag == "atom":
        return a[1]
    if tag == "F":
        return "F"
    if tag == "not":
        return "~" + render(a[1])
    op = {"and": "&", "or": "|", "imp": "->"}[tag]
    return "(%s %s %s)" % (render(a[1]), op, render(a[2]))
