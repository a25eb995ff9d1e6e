"""A fixed piece of work, timed in a fresh interpreter.

    python3 perfbench/reference.py

Prints the seconds the work took, not counting interpreter start. run.py
runs it before every item and scales its timings by the median, to cancel
the drift in speed of a shared host (see NOTES.md). Like a catbundle child,
it starts cold, imports numpy and allocates as it goes: an object graph,
dicts and sets of tuples, a sort and a JSON dump. It imports nothing from the
repository, so it is the same on every commit.
"""
import json
import time


class Node:
    __slots__ = ("a", "b", "kids")

    def __init__(self, a, b):
        self.a, self.b, self.kids = a, b, []

    def weight(self):
        return self.a * 3 + len(self.kids)


def work() -> int:
    nodes = [Node(i % 97, str(i)) for i in range(12_000)]
    for i, n in enumerate(nodes):
        nodes[(i * 7) % 12_000].kids.append(n)
    index = {(n.a, n.b): n for n in nodes}
    total = sum(n.weight() for n in nodes)
    ordered = sorted(nodes, key=lambda n: (n.a, n.b))
    text = json.dumps([{"a": n.a, "b": n.b, "w": n.weight()} for n in ordered[:2000]])
    rows = [(i, i * i % 1009, str(i)) for i in range(40_000)]
    by_key = {r[0]: r for r in rows}
    residues = {r[1] for r in rows}
    return total + len(text) + len(index) + len(residues) + sum(by_key[i][1] for i in range(0, 40_000, 7))


if __name__ == "__main__":
    start = time.perf_counter()
    import numpy  # noqa: F401  (timed: a catbundle child pays this import too)
    work()
    print(time.perf_counter() - start)
