"""The transformation cost model (Definitions 2–6).

Costs are bound to labels — the paper's "simplest variant":

* ``insert`` costs attach to **data** labels of struct nodes (text leaves
  can never be inserted); unlisted labels cost
  :attr:`CostModel.default_insert_cost` (1, as in the paper's example).
* ``delete`` costs attach to **query** labels; unlisted labels cost
  infinity, i.e. the node must not be deleted.
* ``rename`` costs attach to ordered (from → to) label pairs of the same
  node type; unlisted pairs cost infinity.

Struct and text labels live in separate key spaces, so a term and an
element that happen to share a spelling do not share costs.

The module also reads and writes the *cost files* the experiment section
pairs with each generated query (Section 8.1): a line-based format with
``insert`` / ``delete`` / ``rename`` directives.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable

from ..errors import CostModelError
from ..xmltree.model import NodeType

INFINITE = math.inf

_TYPE_NAMES = {"struct": NodeType.STRUCT, "text": NodeType.TEXT}
_NAMES_BY_TYPE = {NodeType.STRUCT: "struct", NodeType.TEXT: "text"}


class _Fingerprint(tuple):
    """A cost-model snapshot that keeps its own hash: the cache keys
    built around it hash in O(1), however large the tables."""

    def __new__(cls, items: Iterable) -> "_Fingerprint":
        self = super().__new__(cls, items)
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # string hashes differ between processes: an unpickled copy
        # hashes afresh
        return (_Fingerprint, (tuple(self),))


def _check_cost(cost: float, what: str) -> float:
    if not isinstance(cost, (int, float)) or isinstance(cost, bool):
        raise CostModelError(f"{what} must be a number, got {cost!r}")
    if math.isnan(cost) or cost < 0:
        raise CostModelError(f"{what} must be non-negative, got {cost!r}")
    return float(cost)


class CostModel:
    """Mutable registry of insertion, deletion, and renaming costs.

    The example of Section 6 is expressed as::

        model = CostModel()
        model.set_insert_cost("category", 4)
        model.set_delete_cost("composer", NodeType.STRUCT, 7)
        model.add_renaming("cd", "dvd", NodeType.STRUCT, 6)

    Only this class writes its three tables: every writer clears the
    cached :attr:`fingerprint`, so a read recomputes it only after the
    model changed.
    """

    def __init__(self, default_insert_cost: float = 1.0) -> None:
        self._insert: dict[str, float] = {}
        self._delete: dict[tuple[NodeType, str], float] = {}
        self._rename: dict[tuple[NodeType, str], list[tuple[str, float]]] = {}
        self.default_insert_cost = default_insert_cost

    @property
    def default_insert_cost(self) -> float:
        """The insert cost of every label without its own."""
        return self._default_insert_cost

    @default_insert_cost.setter
    def default_insert_cost(self, cost: float) -> None:
        self._default_insert_cost = _check_cost(cost, "default insert cost")
        self._fingerprint = None

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def set_insert_cost(self, label: str, cost: float) -> "CostModel":
        """Set the cost of inserting a struct node labeled ``label``."""
        self._insert[label] = _check_cost(cost, f"insert cost of {label!r}")
        self._fingerprint = None
        return self

    def set_delete_cost(self, label: str, node_type: NodeType, cost: float) -> "CostModel":
        """Set the cost of deleting a query node with ``label``."""
        self._delete[(node_type, label)] = _check_cost(cost, f"delete cost of {label!r}")
        self._fingerprint = None
        return self

    def add_renaming(
        self, from_label: str, to_label: str, node_type: NodeType, cost: float
    ) -> "CostModel":
        """Register an alternative label with its renaming cost."""
        if from_label == to_label:
            raise CostModelError(f"renaming {from_label!r} to itself is meaningless")
        checked = _check_cost(cost, f"rename cost {from_label!r}->{to_label!r}")
        self._fingerprint = None
        alternatives = self._rename.setdefault((node_type, from_label), [])
        for index, (existing, _) in enumerate(alternatives):
            if existing == to_label:
                alternatives[index] = (to_label, checked)
                return self
        alternatives.append((to_label, checked))
        return self

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def insert_cost(self, label: str) -> float:
        """Cost of inserting a struct node with ``label`` into a query."""
        return self._insert.get(label, self.default_insert_cost)

    def delete_cost(self, label: str, node_type: NodeType) -> float:
        """Cost of deleting a query node; infinite when not allowed."""
        return self._delete.get((node_type, label), INFINITE)

    def renamings(self, label: str, node_type: NodeType) -> list[tuple[str, float]]:
        """Alternative (label, cost) pairs for a query node (finite only)."""
        alternatives = self._rename.get((node_type, label), [])
        return [(to, cost) for to, cost in alternatives if cost != INFINITE]

    def rename_cost(self, from_label: str, to_label: str, node_type: NodeType) -> float:
        """Cost of renaming ``from_label`` to ``to_label`` (0 for identity,
        infinite when the renaming is not registered)."""
        if from_label == to_label:
            return 0.0
        for to, cost in self._rename.get((node_type, from_label), []):
            if to == to_label:
                return cost
        return INFINITE

    def copy(self) -> "CostModel":
        """An independent copy (mutating it leaves this model untouched)."""
        duplicate = CostModel(default_insert_cost=self.default_insert_cost)
        duplicate._insert.update(self._insert)
        duplicate._delete.update(self._delete)
        for key, alternatives in self._rename.items():
            duplicate._rename[key] = list(alternatives)
        # equal tables, equal snapshot
        duplicate._fingerprint = self._fingerprint
        return duplicate

    @property
    def insert_fingerprint(self) -> tuple:
        """Hashable snapshot of the insert-cost table; data trees use it
        to skip redundant re-encodings."""
        return (self.default_insert_cost, tuple(sorted(self._insert.items())))

    @property
    def fingerprint(self) -> tuple:
        """Hashable snapshot of the *whole* model — insert, delete, and
        rename tables.  Two models with equal fingerprints produce
        byte-identical expansions and results for every query, which is
        what the compiled-query cache keys on (``insert_fingerprint``
        alone is not enough: delete and rename costs change the expanded
        query and therefore the answers).  Computed once per table
        state, with its hash."""
        fingerprint = self._fingerprint
        if fingerprint is None:
            fingerprint = self._fingerprint = _Fingerprint((
                self.default_insert_cost,
                tuple(sorted(self._insert.items())),
                tuple(sorted(self._delete.items())),
                tuple(
                    (key, tuple(sorted(alternatives)))
                    for key, alternatives in sorted(self._rename.items())
                ),
            ))
        return fingerprint

    # ------------------------------------------------------------------
    # cost-file round trip (the per-query files of Section 8.1)
    # ------------------------------------------------------------------

    def to_lines(self) -> list[str]:
        """Serialize the model to cost-file lines."""
        lines = [f"default-insert {_format_cost(self.default_insert_cost)}"]
        for label, cost in sorted(self._insert.items()):
            lines.append(f"insert {label} {_format_cost(cost)}")
        for (node_type, label), cost in sorted(
            self._delete.items(), key=lambda item: (item[0][0], item[0][1])
        ):
            lines.append(f"delete {_NAMES_BY_TYPE[node_type]} {label} {_format_cost(cost)}")
        for (node_type, label), alternatives in sorted(
            self._rename.items(), key=lambda item: (item[0][0], item[0][1])
        ):
            for to_label, cost in alternatives:
                lines.append(
                    f"rename {_NAMES_BY_TYPE[node_type]} {label} {to_label} {_format_cost(cost)}"
                )
        return lines

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "CostModel":
        """Parse cost-file lines (inverse of :meth:`to_lines`)."""
        model = cls()
        for number, raw in enumerate(lines, start=1):
            # a comment is a '#' at line start, or one surrounded by
            # whitespace ("... 2 # note"); this keeps labels containing
            # '#' (e.g. the '#root' super-root) intact
            line = raw.strip()
            if line.startswith("#"):
                continue
            line = re.split(r"\s#(?=\s|$)", line, maxsplit=1)[0].strip()
            if not line:
                continue
            fields = line.split()
            try:
                directive = fields[0]
                if directive == "default-insert" and len(fields) == 2:
                    model.default_insert_cost = _check_cost(
                        _parse_cost(fields[1]), "default insert cost"
                    )
                elif directive == "insert" and len(fields) == 3:
                    model.set_insert_cost(fields[1], _parse_cost(fields[2]))
                elif directive == "delete" and len(fields) == 4:
                    model.set_delete_cost(
                        fields[2], _parse_type(fields[1]), _parse_cost(fields[3])
                    )
                elif directive == "rename" and len(fields) == 5:
                    model.add_renaming(
                        fields[2], fields[3], _parse_type(fields[1]), _parse_cost(fields[4])
                    )
                else:
                    raise CostModelError(f"unrecognized directive {line!r}")
            except CostModelError as error:
                raise CostModelError(f"cost file line {number}: {error}") from None
        return model

    def save(self, path: str) -> None:
        """Write the model to a cost file at ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(self.to_lines()) + "\n")

    @classmethod
    def load(cls, path: str) -> "CostModel":
        """Read a cost file written by :meth:`save`."""
        with open(path, encoding="utf-8") as handle:
            return cls.from_lines(handle)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CostModel(inserts={len(self._insert)}, deletes={len(self._delete)}, "
            f"renamings={sum(len(v) for v in self._rename.values())})"
        )


def _parse_cost(text: str) -> float:
    if text.lower() in ("inf", "infinite", "infinity"):
        return INFINITE
    try:
        return float(text)
    except ValueError:
        raise CostModelError(f"bad cost literal {text!r}") from None


def _parse_type(text: str) -> NodeType:
    try:
        return _TYPE_NAMES[text.lower()]
    except KeyError:
        raise CostModelError(f"bad node type {text!r} (expected struct/text)") from None


def _format_cost(cost: float) -> str:
    if cost == INFINITE:
        return "inf"
    if cost == int(cost):
        return str(int(cost))
    return repr(cost)


def paper_example_cost_model() -> CostModel:
    """The cost table of Section 6, used by the worked examples and tests.

    =========  ====  ===========  ====  ==========================  ====
    insertion  cost  deletion     cost  renaming                    cost
    =========  ====  ===========  ====  ==========================  ====
    category   4     composer     7     cd -> dvd                   6
    cd         2     "concerto"   6     cd -> mc                    4
    composer   5     "piano"      8     composer -> performer       4
    performer  5     title        5     "concerto" -> "sonata"      3
    title      3     track        3     title -> category           4
    =========  ====  ===========  ====  ==========================  ====

    All unlisted delete and rename costs are infinite; all remaining
    insert costs are 1.
    """
    model = CostModel(default_insert_cost=1.0)
    for label, cost in [
        ("category", 4), ("cd", 2), ("composer", 5), ("performer", 5),
        ("title", 3), ("track", 3),
    ]:
        model.set_insert_cost(label, cost)
    for label, node_type, cost in [
        ("composer", NodeType.STRUCT, 7),
        ("concerto", NodeType.TEXT, 6),
        ("piano", NodeType.TEXT, 8),
        ("title", NodeType.STRUCT, 5),
        ("track", NodeType.STRUCT, 3),
    ]:
        model.set_delete_cost(label, node_type, cost)
    for from_label, to_label, node_type, cost in [
        ("cd", "dvd", NodeType.STRUCT, 6),
        ("cd", "mc", NodeType.STRUCT, 4),
        ("composer", "performer", NodeType.STRUCT, 4),
        ("concerto", "sonata", NodeType.TEXT, 3),
        ("title", "category", NodeType.STRUCT, 4),
    ]:
        model.add_renaming(from_label, to_label, node_type, cost)
    return model
