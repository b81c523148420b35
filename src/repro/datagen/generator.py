"""Synthetic XML collection generator (Section 8.1 substitute).

The paper generates its test data with the XML generator of Aboulnaga,
Naughton & Zhang (WebDB'01) and controls: the total number of elements
(1,000,000), the number of distinct element names (100), the term
vocabulary (100,000), the total term occurrences (10,000,000), and a
Zipfian word-frequency distribution.  This module exposes exactly those
knobs plus the structural ones the original generator has (fanout, depth,
and *regularity* — how strongly child names repeat under the same parent
name, which governs the schema size).

Two modes:

``markov``
    Child element names are drawn from a per-parent-name rule table that
    is reused with probability ``regularity`` — high regularity yields a
    small DataGuide, low regularity a large one.
``dtd``
    A random DTD-like template tree is generated first and every document
    instantiates it (with optional parts), so the schema size is bounded
    by the template size — the shape real catalogs have.

Documents are streamed straight into the columnar
:class:`~repro.xmltree.model.TreeBuilder`, so million-node collections
never materialize intermediate object trees.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..errors import GenerationError
from ..xmltree.model import DataTree, TreeBuilder

try:  # numpy accelerates Zipf sampling; plain bisect works without it
    import numpy as _numpy
except ImportError:  # pragma: no cover - numpy is available in CI
    _numpy = None

from bisect import bisect_right


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of the synthetic collection (paper defaults scaled)."""

    num_elements: int = 10_000
    num_element_names: int = 100
    num_terms: int = 10_000
    num_term_occurrences: int = 100_000
    zipf_skew: float = 1.0
    max_depth: int = 8
    max_fanout: int = 6
    regularity: float = 0.85
    #: maximal number of distinct child names per parent name (markov
    #: mode) — the lever that keeps the number of label-type paths, and
    #: hence the schema, small relative to the data
    rule_width: int = 4
    #: elements per document are capped, so collections consist of many
    #: structurally similar documents rather than one giant random tree
    max_document_elements: int = 200
    mode: str = "markov"  # "markov" | "dtd"
    dtd_size: int = 40  # template nodes in dtd mode
    seed: int = 1

    def validate(self) -> None:
        """Raise :class:`~repro.errors.GenerationError` on bad parameters."""
        if self.num_elements < 1:
            raise GenerationError("num_elements must be positive")
        if self.num_element_names < 1:
            raise GenerationError("num_element_names must be positive")
        if self.num_terms < 1:
            raise GenerationError("num_terms must be positive")
        if self.num_term_occurrences < 0:
            raise GenerationError("num_term_occurrences must be non-negative")
        if not 0 <= self.regularity <= 1:
            raise GenerationError("regularity must lie in [0, 1]")
        if self.mode not in ("markov", "dtd"):
            raise GenerationError(f"unknown generator mode {self.mode!r}")
        if self.zipf_skew < 0:
            raise GenerationError("zipf_skew must be non-negative")
        if self.rule_width < 1:
            raise GenerationError("rule_width must be positive")
        if self.max_document_elements < 1:
            raise GenerationError("max_document_elements must be positive")


@dataclass
class CollectionStats:
    """What the generator actually produced."""

    documents: int = 0
    elements: int = 0
    words: int = 0
    distinct_terms: int = 0
    max_depth_seen: int = 0
    element_names: list[str] = field(default_factory=list)


@dataclass
class SyntheticCollection:
    """A generated data tree plus its configuration and statistics."""

    tree: DataTree
    config: GeneratorConfig
    stats: CollectionStats


class _ZipfSampler:
    """Samples vocabulary indexes with probability ∝ 1/(rank+1)^skew."""

    def __init__(self, size: int, skew: float, rng: random.Random) -> None:
        self._rng = rng
        if _numpy is not None:
            ranks = _numpy.arange(1, size + 1, dtype=_numpy.float64)
            weights = ranks ** (-skew)
            self._cumulative = _numpy.cumsum(weights)
            self._total = float(self._cumulative[-1])
            self._use_numpy = True
        else:
            cumulative = []
            total = 0.0
            for rank in range(1, size + 1):
                total += rank ** (-skew)
                cumulative.append(total)
            self._cumulative = cumulative
            self._total = total
            self._use_numpy = False

    def sample(self) -> int:
        return self.sample_many(1)[0]

    def sample_many(self, count: int) -> list[int]:
        """``count`` samples from the same ``rng.random()`` draws, in the
        same order, as ``count`` single samples — searched in one call."""
        random, total = self._rng.random, self._total
        targets = [random() * total for _ in range(count)]
        if self._use_numpy:
            return _numpy.searchsorted(self._cumulative, targets).tolist()
        return [bisect_right(self._cumulative, target) for target in targets]


def generate_collection(config: GeneratorConfig) -> SyntheticCollection:
    """Generate a collection according to ``config`` (deterministic in
    ``config.seed``)."""
    config.validate()
    rng = random.Random(config.seed)
    element_names = [f"e{index}" for index in range(config.num_element_names)]
    term_sampler = _ZipfSampler(config.num_terms, config.zipf_skew, rng)
    stats = CollectionStats(element_names=list(element_names))

    builder = TreeBuilder()
    budget = _Budget(config, rng)
    seen_terms: set[int] = set()

    if config.mode == "dtd":
        template = _generate_dtd(config, rng, element_names)
        emit = lambda: _emit_dtd_document(builder, template, budget, rng, term_sampler, seen_terms, stats)
    else:
        rules: dict[str, list[str]] = {}
        emit = lambda: _emit_markov_document(
            builder, config, budget, rng, element_names, rules, term_sampler, seen_terms, stats
        )

    while budget.elements_left > 0:
        emit()
        stats.documents += 1

    tree = builder.finish()
    stats.elements = config.num_elements - budget.elements_left
    stats.words = config.num_term_occurrences - budget.words_left
    stats.distinct_terms = len(seen_terms)
    return SyntheticCollection(tree, config, stats)


class _Budget:
    """Tracks how many elements and words remain to be generated."""

    def __init__(self, config: GeneratorConfig, rng: random.Random) -> None:
        self.elements_left = config.num_elements
        self.words_left = config.num_term_occurrences
        self._rng = rng
        # expected words per element, kept as a running ratio so the word
        # total lands near the target regardless of structural randomness
        self._config = config

    def take_element(self) -> bool:
        if self.elements_left <= 0:
            return False
        self.elements_left -= 1
        return True

    def words_for_element(self) -> int:
        if self.words_left <= 0 or self.elements_left < 0:
            return 0
        mean = self.words_left / max(1, self.elements_left + 1)
        # geometric-ish draw around the running mean
        count = int(self._rng.expovariate(1.0 / mean) + 0.5) if mean > 0 else 0
        count = min(count, self.words_left)
        self.words_left -= count
        return count


def _emit_words(
    builder: TreeBuilder,
    count: int,
    sampler: _ZipfSampler,
    seen_terms: set[int],
    stats: CollectionStats,
) -> None:
    terms = sampler.sample_many(count)
    seen_terms.update(terms)
    builder.add_words([f"t{term}" for term in terms])
    stats.words += count


# ----------------------------------------------------------------------
# markov mode
# ----------------------------------------------------------------------


def _emit_markov_document(
    builder: TreeBuilder,
    config: GeneratorConfig,
    budget: _Budget,
    rng: random.Random,
    element_names: list[str],
    rules: dict[str, list[str]],
    term_sampler: _ZipfSampler,
    seen_terms: set[int],
    stats: CollectionStats,
) -> None:
    document_left = [config.max_document_elements]

    def child_name(parent_name: str) -> str:
        known = rules.setdefault(parent_name, [])
        full = len(known) >= config.rule_width
        if known and (full or rng.random() < config.regularity):
            return rng.choice(known)
        name = rng.choice(element_names)
        if name not in known:
            known.append(name)
        return name

    def emit(name: str, depth: int) -> None:
        if document_left[0] <= 0 or not budget.take_element():
            return
        document_left[0] -= 1
        builder.start_struct(name)
        stats.max_depth_seen = max(stats.max_depth_seen, depth)
        _emit_words(builder, budget.words_for_element(), term_sampler, seen_terms, stats)
        if depth < config.max_depth:
            for _ in range(rng.randint(0, config.max_fanout)):
                if budget.elements_left <= 0 or document_left[0] <= 0:
                    break
                emit(child_name(name), depth + 1)
        builder.end_struct()

    emit(rng.choice(element_names), 1)


# ----------------------------------------------------------------------
# dtd mode
# ----------------------------------------------------------------------


@dataclass
class _DTDNode:
    name: str
    children: list["_DTDNode"]
    optional: bool
    repeatable: bool
    has_text: bool


def _generate_dtd(
    config: GeneratorConfig, rng: random.Random, element_names: list[str]
) -> _DTDNode:
    """Grow a template of ``dtd_size`` nodes breadth-wise, so the whole
    budget is spent and the template has realistic width and depth."""

    def new_node() -> _DTDNode:
        return _DTDNode(
            name=rng.choice(element_names),
            children=[],
            optional=rng.random() < 0.3,
            repeatable=rng.random() < 0.3,
            has_text=rng.random() < 0.4,
        )

    root = new_node()
    root.optional = False
    count = 1
    frontier: list[tuple[_DTDNode, int]] = [(root, 1)]
    while count < config.dtd_size and frontier:
        index = rng.randrange(len(frontier))
        parent, depth = frontier.pop(index)
        if depth >= config.max_depth:
            continue
        fanout = rng.randint(1, max(1, min(config.max_fanout, 4)))
        for _ in range(fanout):
            if count >= config.dtd_size:
                break
            child = new_node()
            parent.children.append(child)
            frontier.append((child, depth + 1))
            count += 1

    def mark_leaf_text(node: _DTDNode) -> None:
        if not node.children:
            node.has_text = True
        for child in node.children:
            mark_leaf_text(child)

    mark_leaf_text(root)
    return root


def _emit_dtd_document(
    builder: TreeBuilder,
    template: _DTDNode,
    budget: _Budget,
    rng: random.Random,
    term_sampler: _ZipfSampler,
    seen_terms: set[int],
    stats: CollectionStats,
) -> None:
    def emit(node: _DTDNode, depth: int) -> None:
        if not budget.take_element():
            return
        builder.start_struct(node.name)
        stats.max_depth_seen = max(stats.max_depth_seen, depth)
        if node.has_text:
            _emit_words(builder, budget.words_for_element(), term_sampler, seen_terms, stats)
        for child in node.children:
            if child.optional and rng.random() < 0.5:
                continue
            repeats = 1 + (rng.randint(0, 2) if child.repeatable else 0)
            for _ in range(repeats):
                if budget.elements_left <= 0:
                    break
                emit(child, depth + 1)
        builder.end_struct()

    emit(template, 1)
