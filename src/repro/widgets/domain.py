"""Widget domains.

A widget's domain ``w.d`` is the set of subtrees the widget can swap into
the query at its path (Section 4.3).  Domains are initialised from a subset
``w.D`` of the diffs table; some widget types *extrapolate* beyond the
initialising subtrees — the paper's example is a slider initialised with
``{1, 5, 100}`` whose domain becomes the range ``[1, 100]``.

A domain may also contain ``None``, meaning "the element is absent": this
is how presence toggles (Figure 5d's *Toggle TOP* button) are modelled.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.sqlparser.astnodes import Node
from repro.sqlparser.grammar import SQL_ANNOTATIONS, GrammarAnnotations

__all__ = ["WidgetDomain"]


#: Bound node types the range-slider rule accepts on a BETWEEN track.
_TRACK_BOUND_TYPES = ("NumExpr", "HexExpr")


class WidgetDomain:
    """A deduplicated set of optional subtrees, with a summary.

    Construction makes one pass over the entries and keeps a summary of
    everything the widget library's rules read: size, ``None``
    membership, whether every subtree is a literal, the numeric range,
    the node types, and the range-slider and drag-and-drop conditions
    (held as flags against the first subtree).  Properties and rules read
    the summary instead of rescanning the entries, and :meth:`extended`
    derives the domain of a longer entry sequence in O(new entries).

    Args:
        entries: subtrees (and/or ``None``) that initialise the domain.
        annotations: grammar annotations used to classify entries.
    """

    def __init__(
        self,
        entries: Iterable[Node | None],
        annotations: GrammarAnnotations = SQL_ANNOTATIONS,
    ):
        self._annotations = annotations
        self._by_print: dict[int | None, Node | None] = {}
        #: the first non-null entry; the track/reorder flags compare to it
        self._first: Node | None = None
        self._reference_children: list[int] = []
        self._node_types: frozenset[str] = frozenset()
        #: no subtree is tree-valued
        self._literal = True
        #: every subtree is a numeric literal; ``_low``/``_high`` span them
        self._numeric = True
        self._low = float("inf")
        self._high = float("-inf")
        #: every subtree is BETWEEN over the first one's target with
        #: NumExpr/HexExpr bounds (the range-slider rule)
        self._track = True
        #: as ``_track`` with annotation-numeric bounds; ``_track_low`` /
        #: ``_track_high`` span the bounds (:meth:`between_range`)
        self._between = True
        self._track_low = float("inf")
        self._track_high = float("-inf")
        #: every subtree is a collection of the first one's type holding
        #: the same child multiset (the drag-and-drop rule)
        self._reorder = True
        self._absorb(entries)

    def extended(self, entries: Iterable[Node | None]) -> "WidgetDomain":
        """The domain of this domain's entries followed by ``entries``.

        Equal to building a fresh domain from the concatenated entry
        sequence — same entries in the same order, same summary — at the
        cost of copying the entry dict plus one pass over ``entries``.
        This domain is left unchanged: widgets, compiler artifacts and
        memos that hold it keep seeing the entries they were built on.
        """
        domain = object.__new__(WidgetDomain)
        domain.__dict__.update(self.__dict__)
        domain._by_print = self._by_print.copy()
        domain._absorb(entries)
        return domain

    def _absorb(self, entries: Iterable[Node | None]) -> None:
        """Add the entries not seen yet, updating the summary."""
        by_print = self._by_print
        kind_of = self._annotations.kind_of
        numeric_value = self._annotations.numeric_value
        for entry in entries:
            if entry is None:
                by_print.setdefault(None, None)
                continue
            key = entry.fingerprint
            if key in by_print:
                continue
            by_print[key] = entry
            if entry.node_type not in self._node_types:
                self._node_types = self._node_types | {entry.node_type}
            kind = kind_of(entry)
            if kind == "tree":
                self._literal = False
            if self._numeric:
                if kind == "num":
                    # ties keep what a stable sort's ends would hold
                    value = numeric_value(entry)
                    if value < self._low:
                        self._low = value
                    if value >= self._high:
                        self._high = value
                else:
                    self._numeric = False
            if self._first is None:
                self._first = entry
                self._reference_children = sorted(
                    child.fingerprint for child in entry.children
                )
            if self._track or self._between:
                self._absorb_track(entry)
            if self._reorder:
                self._reorder = (
                    entry.node_type == self._first.node_type
                    and len(entry.children) >= 2
                    and sorted(child.fingerprint for child in entry.children)
                    == self._reference_children
                )

    def _absorb_track(self, entry: Node) -> None:
        """Update the BETWEEN-track flags and bounds for one subtree."""
        first = self._first
        assert first is not None
        if (
            entry.node_type != "BetweenExpr"
            or len(entry.children) != 3
            or len(first.children) != 3
            or not first.children[0].equals(entry.children[0])
        ):
            self._track = self._between = False
            return
        low_node, high_node = entry.children[1], entry.children[2]
        if (
            low_node.node_type not in _TRACK_BOUND_TYPES
            or high_node.node_type not in _TRACK_BOUND_TYPES
        ):
            self._track = False
        if self._between:
            kind_of = self._annotations.kind_of
            if kind_of(low_node) != "num" or kind_of(high_node) != "num":
                self._between = False
                return
            numeric_value = self._annotations.numeric_value
            self._track_low = min(self._track_low, numeric_value(low_node))
            self._track_high = max(self._track_high, numeric_value(high_node))

    # ------------------------------------------------------------------
    # basic shape
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """``|w.d|`` — the number of distinct entries (None counts as one)."""
        return len(self._by_print)

    @property
    def includes_none(self) -> bool:
        """True when "absent" is one of the choices."""
        return None in self._by_print

    @property
    def n_subtrees(self) -> int:
        """The number of non-null entries."""
        return len(self._by_print) - (None in self._by_print)

    def subtrees(self) -> Iterator[Node]:
        """Iterate the non-null entries."""
        for entry in self._by_print.values():
            if entry is not None:
                yield entry

    def entries(self) -> Iterator[Node | None]:
        """Iterate all entries, including None when present."""
        return iter(self._by_print.values())

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Node | None]:
        return self.entries()

    # ------------------------------------------------------------------
    # kinds
    # ------------------------------------------------------------------
    @property
    def is_numeric(self) -> bool:
        """All non-null entries are numeric literals."""
        return self._numeric and self._first is not None

    @property
    def is_literal(self) -> bool:
        """All non-null entries are literals (numeric or string)."""
        return self._literal

    @property
    def is_range_track(self) -> bool:
        """All non-null entries are ``BetweenExpr`` nodes over the first
        entry's target expression with ``NumExpr``/``HexExpr`` bounds
        (vacuously true without subtrees)."""
        return self._track

    @property
    def is_reordering(self) -> bool:
        """All non-null entries are nodes of the first entry's type with
        two or more children, holding the same multiset of children
        (vacuously true without subtrees)."""
        return self._reorder

    @property
    def node_types(self) -> frozenset[str]:
        """Node types present among the non-null entries."""
        return self._node_types

    @property
    def numeric_range(self) -> tuple[float, float] | None:
        """``(min, max)`` of the numeric values, or None for non-numeric
        domains."""
        if not self.is_numeric:
            return None
        return self._low, self._high

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def contains(self, subtree: Node | None, extrapolate: bool = False) -> bool:
        """Is ``subtree`` one of this domain's choices?

        Args:
            subtree: candidate subtree, or ``None`` for "absent".
            extrapolate: when True and the domain is numeric, any value
                within ``[min, max]`` counts (the slider semantics of
                Example 4.3).
        """
        if subtree is None:
            return self.includes_none
        if subtree.fingerprint in self._by_print:
            stored = self._by_print[subtree.fingerprint]
            if stored is not None and stored.equals(subtree):
                return True
        if extrapolate and self.is_numeric:
            if self._annotations.kind_of(subtree) == "num":
                low, high = self.numeric_range  # type: ignore[misc]
                return low <= self._annotations.numeric_value(subtree) <= high
        return False

    def between_range(self) -> tuple[Node, float, float] | None:
        """Range-slider metadata: when every non-null entry is a
        ``BetweenExpr`` over the same target expression with numeric
        bounds, return ``(target_expr, overall_min, overall_max)`` — the
        track the two slider handles move on.  Otherwise ``None``."""
        if self._first is None or self.includes_none or not self._between:
            return None
        return self._first.children[0], self._track_low, self._track_high

    def contains_between(self, subtree: Node) -> bool:
        """Is ``subtree`` a BETWEEN expression the extrapolated range
        slider can produce (same target, both bounds on the track)?"""
        metadata = self.between_range()
        if metadata is None:
            return False
        reference, low, high = metadata
        if subtree.node_type != "BetweenExpr" or len(subtree.children) != 3:
            return False
        target, low_node, high_node = subtree.children
        if not reference.equals(target):
            return False
        if self._annotations.kind_of(low_node) != "num":
            return False
        if self._annotations.kind_of(high_node) != "num":
            return False
        low_value = self._annotations.numeric_value(low_node)
        high_value = self._annotations.numeric_value(high_node)
        return low <= low_value <= high and low <= high_value <= high

    def merged_with(self, other: "WidgetDomain") -> "WidgetDomain":
        """Union of two domains (used when widgets are combined)."""
        return self.extended(other.entries())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        labels = []
        for entry in list(self.entries())[:4]:
            labels.append("∅" if entry is None else entry.label())
        suffix = ", ..." if self.size > 4 else ""
        return f"WidgetDomain({', '.join(labels)}{suffix})"
