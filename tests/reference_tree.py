"""A small list-based reference for :class:`repro.xmltree.model.DataTree`
and :func:`repro.schema.dataguide.build_schema`.

The engine keeps the tree and the schema in typed flat columns and edits
them by slice; this model keeps plain Python lists and derives every
column by brute force from the three facts a collection has — each
node's label, type and parent — plus the set of tombstoned documents.
``tests/test_model_reference.py`` drives both through random mutation
sequences and compares every column.
"""

from __future__ import annotations

ROOT = "#root"
TEXT = 1
STRUCT = 0


class ReferenceTree:
    def __init__(self) -> None:
        self.labels = [ROOT]
        self.types = [STRUCT]
        self.parents = [-1]
        self.dead: set[int] = set()

    def __len__(self) -> int:
        return len(self.labels)

    # -- mutation --------------------------------------------------------

    def graft(self, document) -> int:
        """Append a nested ``(label, [children...])`` document (words are
        plain strings); returns its root pre."""
        root = len(self.labels)

        def add(node, parent: int) -> None:
            if isinstance(node, str):
                self.labels.append(node)
                self.types.append(TEXT)
                self.parents.append(parent)
                return
            label, children = node
            pre = len(self.labels)
            self.labels.append(label)
            self.types.append(STRUCT)
            self.parents.append(parent)
            for child in children:
                add(child, pre)

        add(document, 0)
        return root

    def ungraft(self, start: int) -> None:
        del self.labels[start:], self.types[start:], self.parents[start:]

    def mark_dead(self, root: int) -> None:
        self.dead.add(root)

    def compacted(self) -> "ReferenceTree":
        live = self.live_flags()
        new_of = {}
        out = ReferenceTree()
        out.labels, out.types, out.parents = [], [], []
        for pre in range(len(self)):
            if live[pre]:
                new_of[pre] = len(out.labels)
                out.labels.append(self.labels[pre])
                out.types.append(self.types[pre])
                out.parents.append(new_of.get(self.parents[pre], -1))
        return out

    def extracted(self, root: int) -> "ReferenceTree":
        out = ReferenceTree()
        bound = self.bounds()[root]
        for pre in range(root, bound + 1):
            out.labels.append(self.labels[pre])
            out.types.append(self.types[pre])
            parent = self.parents[pre]
            out.parents.append(0 if parent == 0 else parent - root + 1)
        return out

    # -- derived columns ---------------------------------------------------

    def children(self, pre: int) -> list[int]:
        return [child for child in range(len(self)) if self.parents[child] == pre]

    def bounds(self) -> list[int]:
        bounds = list(range(len(self)))
        for pre in range(len(self) - 1, 0, -1):
            parent = self.parents[pre]
            bounds[parent] = max(bounds[parent], bounds[pre])
        return bounds

    def first_children(self) -> list[int]:
        return [next(iter(self.children(pre)), -1) for pre in range(len(self))]

    def next_siblings(self) -> list[int]:
        result = [-1] * len(self)
        for pre in range(len(self)):
            siblings = self.children(pre)
            for left, right in zip(siblings, siblings[1:]):
                result[left] = right
        return result

    def costs(self, insert_cost_of) -> tuple[list[float], list[float]]:
        inscosts = [
            0.0 if self.types[pre] == TEXT else float(insert_cost_of(self.labels[pre]))
            for pre in range(len(self))
        ]
        pathcosts = [0.0] * len(self)
        for pre in range(1, len(self)):
            parent = self.parents[pre]
            pathcosts[pre] = pathcosts[parent] + inscosts[parent]
        return inscosts, pathcosts

    def live_flags(self) -> list[bool]:
        bounds = self.bounds()
        return [
            not any(root <= pre <= bounds[root] for root in self.dead)
            for pre in range(len(self))
        ]

    def document_roots(self) -> list[int]:
        return [root for root in self.children(0) if root not in self.dead]

    # -- the compacted DataGuide -------------------------------------------

    def schema(self) -> dict:
        """Every column of the schema as plain lists / dicts of tuples:
        classes discovered from all nodes (dead ones too) in data order,
        numbered in preorder with children in discovery order; instances
        are the live nodes."""
        path_of = [()] * len(self)
        discovered: dict[tuple, None] = {(): None}
        for pre in range(1, len(self)):
            step = ("#text", TEXT) if self.types[pre] == TEXT else (self.labels[pre], STRUCT)
            path_of[pre] = path_of[self.parents[pre]] + (step,)
            discovered.setdefault(path_of[pre])
        order: list[tuple] = []

        def number(path: tuple) -> None:
            order.append(path)
            for other in discovered:
                if len(other) == len(path) + 1 and other[: len(path)] == path:
                    number(other)

        number(())
        class_id = {path: index for index, path in enumerate(order)}
        bounds, live = self.bounds(), self.live_flags()
        instances: list[list[tuple[int, int]]] = [[] for _ in order]
        term_instances: dict[int, dict[str, list[tuple[int, int]]]] = {}
        for pre in range(len(self)):
            if not live[pre]:
                continue
            node = class_id[path_of[pre]]
            instances[node].append((pre, bounds[pre]))
            if self.types[pre] == TEXT:
                by_term = term_instances.setdefault(node, {})
                by_term.setdefault(self.labels[pre], []).append((pre, bounds[pre]))
        return {
            "labels": [path[-1][0] if path else ROOT for path in order],
            "types": [path[-1][1] if path else STRUCT for path in order],
            "parents": [class_id[path[:-1]] if path else -1 for path in order],
            "class_of": [class_id[path] for path in path_of],
            "instances": instances,
            "term_instances": term_instances,
        }
