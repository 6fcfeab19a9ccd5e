"""Junction classes by a germ-gluing table, the corner walk that preceded
the position pairing, kept verbatim as the oracle for the junction turn
of ``onecyl.strata``: the enumeration tests check ``vertex_cycles``,
``pattern_orders`` and ``single_vertex`` against it, and the sector-angle
reference of the suspension tests reads its classes off it.

It turns around a cone point one way from a top junction and the other
way from a bottom one, so a class whose least junction is a bottom one
comes out in the reverse order of ``junction_turn``.
"""

from __future__ import annotations


def reference_vertex_cycles(top, bottom):
    """Junction classes by a germ-gluing table: the pre-pairing corner walk."""
    r, l = len(top), len(bottom)
    cells = list(top) + list(bottom)
    where = {}
    for c, letter in enumerate(cells):
        where.setdefault(letter, []).append(c)
    glue = [0] * (2 * len(cells))
    for c1, c2 in where.values():
        if (c1 < r) == (c2 < r):  # same side: central symmetry
            glue[2 * c1], glue[2 * c1 + 1] = 2 * c2 + 1, 2 * c2
            glue[2 * c2], glue[2 * c2 + 1] = 2 * c1 + 1, 2 * c1
        else:  # opposite sides: translation
            glue[2 * c1], glue[2 * c1 + 1] = 2 * c2, 2 * c2 + 1
            glue[2 * c2], glue[2 * c2 + 1] = 2 * c1, 2 * c1 + 1

    def halves(j):
        # (right end of the cell to the left, left end of the cell at j)
        side, i = j
        if side == "T":
            return 2 * ((i - 1) % r) + 1, 2 * i
        return 2 * (r + (i - 1) % l) + 1, 2 * (r + i)

    def junction_of(germ):
        cell, end = divmod(germ, 2)
        if cell < r:
            return ("T", cell if end == 0 else (cell + 1) % r)
        return ("B", cell - r if end == 0 else (cell - r + 1) % l)

    seen = set()
    cycles = []
    for start in [("T", i) for i in range(r)] + [("B", j) for j in range(l)]:
        if start in seen:
            continue
        cycle = []
        j = start
        entry = start_entry = halves(j)[0]
        while True:
            cycle.append(j)
            seen.add(j)
            h = halves(j)
            entry = glue[h[1] if entry == h[0] else h[0]]
            j = junction_of(entry)
            if j == start and entry == start_entry:
                break
            assert len(cycle) <= r + l
        cycles.append(cycle)
    return cycles


def numbered_vertex_cycles(top, bottom) -> list[list[int]]:
    """:func:`reference_vertex_cycles` in the integer junction numbering:
    top junction i is i, bottom junction j is len(top) + j."""
    r = len(top)
    return [[i if side == "T" else r + i for side, i in c] for c in reference_vertex_cycles(top, bottom)]
