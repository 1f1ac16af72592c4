"""Slow reference position classes for the differential tests.

These are ``oracle.merge_classes`` and ``oracle.length_type_record`` as
they were before the record was built in one walk: a union-find with a
``find`` closure that numbers blocks through a dict, and a record that
checks every equation's side lengths first, then lists each side's
positions and reads each unknown's run class by class.
"""

from math import gcd

from wordeq.oracle import LengthTypeRecord


def merge_classes(size: int, pairs) -> list[int]:
    """Block of each of 0 .. size - 1 once every pair is joined, numbered by least member."""
    parent = list(range(size))

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for p, q in pairs:
        p, q = find(p), find(q)
        if p != q:
            parent[max(p, q)] = min(p, q)
    number = {}
    return [number.setdefault(find(p), len(number)) for p in range(size)]


def length_type_record(system, lt) -> LengthTypeRecord | None:
    """The system's record at length type lt; None when some equation's sides differ in length there."""
    length = (0, *lt).__getitem__  # length(x): the image length of x_x
    for eq in system:
        if sum(map(length, eq.lhs)) != sum(map(length, eq.rhs)):
            return None
    runs, end = [], 0
    for k in lt:
        runs.append(range(end, end + k))
        end += k

    def positions(side):
        return [p for x in side for p in runs[x - 1]]

    pairs = [pair for eq in system for pair in zip(positions(eq.lhs), positions(eq.rhs))]
    classes = merge_classes(end, pairs)
    return LengthTypeRecord(
        classes=tuple(classes),
        count=len(set(classes)),
        runs=tuple(tuple(classes[p] for p in run) for run in runs),
        step=gcd(*lt),
    )
