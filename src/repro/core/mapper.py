"""The interaction mapper (Section 5, Algorithms 1–3).

The interface generation problem — pick a minimum-cost widget set whose
closure covers the log — is NP-hard (reduction from vertex cover, §4.5), so
the mapper runs the paper's two-phase graph-contraction heuristic:

* **Initialize** (Algorithm 1): partition the diffs table by path and
  instantiate, per partition, the cheapest widget type whose rule accepts
  the partition's domain (``pickWidget``, Algorithm 2).  This yields an
  interface that expresses every edge, but with redundant widgets.
* **Merge** (Algorithm 3): repeatedly compare an *ancestor* widget with the
  set of its *descendant* widgets (prefix paths), compute the overlapping
  diffs — those whose incident queries are expressed by both sides — and
  remove the overlap from whichever side yields the larger cost reduction.
  Iterate to a fixed point.

For long-lived append-only logs the merge fixed point is also available in
*partition-scoped* form (:func:`merge_widgets_incremental`): widgets are
grouped into **prefix components** — the connected components of the
path-prefix relation over widget paths, which are exactly the units a
merge step can read — and each component runs its own fixed point, memoised
by a content signature over the diff partitions it reads.  An append dirties
only the components incident to its new pairs; clean components replay
their memoised result.  The decomposition is lossless: a merge step only
ever pairs an ancestor with its prefix-descendants, so no candidate merge
crosses a component boundary and the union of per-component fixed points
equals the global fixed point (asserted by the parity suite).

``pickWidget`` is delta-maintained on that path.  The diffs table is
append-only, so a partition whose memoised diff list is an identity
prefix of its current one has ``domain(D ∪ ΔD) = domain(D) ∪
entries(ΔD)``: :func:`initialize_indexed` extends the memoised domain by
the new diffs' entries (:meth:`~repro.widgets.domain.WidgetDomain.extended`)
and re-evaluates the library rules on the domain's summary, and a merge
step's rebuild of a grown widget minus the same removed diffs extends the
recorded rebuild the same way.  Partitions that received an insert
inside (wider mining windows) are rebuilt in full.  The domain work of a
steady-state append is therefore O(new diffs); the identity-prefix
checks and list copies still read whole diff lists at C speed, and the
merge step's overlap scan still reads every diff of the widgets a dirty
step compares, so the append as a whole is not yet O(batch).
"""

from __future__ import annotations

import operator
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from repro.errors import MappingError
from repro.paths import Path
from repro.sqlparser.astnodes import Node
from repro.sqlparser.grammar import SQL_ANNOTATIONS, GrammarAnnotations
from repro.treediff.diff import Diff
from repro.treediff.paths import IntervalIndex
from repro.widgets.base import Widget, WidgetType
from repro.widgets.domain import WidgetDomain
from repro.widgets.library import default_library

__all__ = [
    "MapperStats",
    "MapCache",
    "PartitionIndex",
    "WindowMemo",
    "pick_widget",
    "initialize",
    "initialize_indexed",
    "merge_widgets",
    "merge_widgets_incremental",
    "map_interactions",
]


@dataclass
class MapperStats:
    """Instrumentation for the mapping phase (used by Appendix B benches)."""

    mapping_seconds: float = 0.0
    n_partitions: int = 0
    n_initial_widgets: int = 0
    n_merge_rounds: int = 0
    n_final_widgets: int = 0
    initial_cost: float = 0.0
    final_cost: float = 0.0
    extra: dict = field(default_factory=dict)


class PartitionIndex:
    """Incrementally maintained path-partitions of a growing diffs table.

    The mapper consumes the diffs table partitioned by path and ordered by
    ``(q1, q2)`` within each partition (the full build's order, which the
    result-equivalence guarantee is defined against).  Re-deriving that
    from the flat table costs ``O(|W|)`` per append — this index instead
    consumes only the table's *new suffix* (the session's diffs table is
    append-only in arrival order) and keeps every partition sorted by
    insertion, so a steady-state append costs ``O(new diffs)``.

    Each partition carries a revision counter, bumped once per update that
    adds diffs to it.  Revisions are what make dirtiness O(1) to test: a
    memo entry recorded at revision ``r`` is valid exactly while the
    partition is still at ``r``.

    The index also owns the partition paths' **interval annotations**
    (:class:`~repro.treediff.paths.IntervalIndex`): every path gets a
    ``(pre_order, post_order, subtree_size)`` triple, so the merge
    layer's ancestor/descendant tests are O(1) containment, subtree
    membership is a contiguous window query, and a subtree's cumulative
    revision (:meth:`window_revision`) is an O(log n) range sum —
    strictly monotone, so equality proves the window clean.
    """

    def __init__(self) -> None:
        self.by_path: dict[Path, list[Diff]] = {}
        self.leaf_by_path: dict[Path, list[Diff]] = {}
        # global (q1, q2) → leaf diffs index, maintained append-only so
        # dirty-component merges never rebuild it; safe to share across
        # components because every consumer filters by ancestor path
        self.leaf_by_pair: dict[tuple[int, int], list[Diff]] = {}
        self.rev: dict[Path, int] = {}
        self.n_consumed = 0
        self.intervals = IntervalIndex()
        # identity spot-check anchors: first and last already-consumed
        # entries (a shrunken table is caught by the length check; a
        # *mutated* one — replaced or reordered prefix — is caught here)
        self._consumed_head: Diff | None = None
        self._consumed_tail: Diff | None = None

    def update(self, diffs: list[Diff]) -> set[Path]:
        """Consume the table's new suffix; returns the paths it touched.

        ``diffs`` must be the same ever-growing arrival-order list on
        every call: previously consumed entries must not change, because
        partitions hold references into them.  Enforced by the
        consumed-count check plus a cheap identity spot-check of the
        consumed prefix's first and last entries — O(1), so it cannot
        catch an interior splice, but it catches the common corruptions
        (a rebuilt, re-sorted, or truncated-and-regrown table).
        """
        if len(diffs) < self.n_consumed:
            raise MappingError(
                "diffs table shrank between updates; the partition index "
                "only supports append-only tables (reset the MapCache to "
                "re-index from scratch)"
            )
        if self.n_consumed and (
            diffs[0] is not self._consumed_head
            or diffs[self.n_consumed - 1] is not self._consumed_tail
        ):
            raise MappingError(
                "already-consumed diffs table entries changed between "
                "updates; the partition index holds references into the "
                "consumed prefix, so the table must be append-only "
                "(reset the MapCache to re-index from scratch)"
            )
        new = diffs[self.n_consumed :]
        self.n_consumed = len(diffs)
        if diffs:
            self._consumed_head = diffs[0]
            self._consumed_tail = diffs[-1]
        touched: set[Path] = set()
        for diff in new:
            partition = self.by_path.setdefault(diff.path, [])
            # insort keeps the (q1, q2) order of a full build; same-pair
            # runs arrive together, so bisect_right preserves their
            # arrival order exactly like a stable sort would
            position = bisect_right(
                partition, (diff.q1, diff.q2), key=lambda d: (d.q1, d.q2)
            )
            partition.insert(position, diff)
            if diff.is_leaf:
                leaves = self.leaf_by_path.setdefault(diff.path, [])
                position = bisect_right(
                    leaves, (diff.q1, diff.q2), key=lambda d: (d.q1, d.q2)
                )
                leaves.insert(position, diff)
                self.leaf_by_pair.setdefault((diff.q1, diff.q2), []).append(
                    diff
                )
            touched.add(diff.path)
        # index new paths first (renumbering rebuilds the Fenwick tree
        # from self.rev), then bump so each touched window's revision sum
        # rises exactly once per update
        self.intervals.extend(touched)
        for path in touched:
            self.rev[path] = self.rev.get(path, 0) + 1
            self.intervals.bump(path, 1)
        return touched

    def window_revision(self, root: Path) -> int:
        """Cumulative revision of every partition under ``root``
        (inclusive) — the clean-window signature; see
        :meth:`repro.treediff.paths.IntervalIndex.window_revision`."""
        return self.intervals.window_revision(root)

    def window_paths(self, root: Path, strict: bool = False) -> list[Path]:
        """Partition paths under ``root`` as a contiguous pre-order
        window (``strict=True`` excludes the root itself)."""
        return self.intervals.window_paths(root, strict=strict)

    def ordered_paths(self) -> list[Path]:
        """Every partition path in pre-order — identical to
        ``sorted(self.by_path)``, maintained incrementally."""
        return self.intervals.ordered_paths()


class WindowMemo:
    """Sub-component merge memo keyed by window revision signatures.

    A dirty component re-runs its Algorithm-3 fixed point, but most of
    its *subtrees* are usually clean — in the skewed (one-hot) workloads
    a production pool sees, one deep path receives every diff while the
    component's other branches never change.  This memo caches the
    outcome of each per-ancestor merge step under a key that can only
    match when the step's inputs are byte-identical:

    ``(ancestor token, descendant token tuple, window revision)``

    where a *token* identifies a widget object (tokens pin their widget,
    so ids cannot be recycled while the memo lives) and the *window
    revision* is the monotone cumulative revision of every partition in
    the ancestor's interval window.  Widgets are rebuilt deterministically
    from their diff lists, so an identical token tuple plus an unchanged
    window sum implies the step reads exactly the same diffs and must
    produce the same outcome — a memo replayed after its window went
    dirty is impossible by construction (the sum strictly increases).
    Replay then skips the step's overlap/cover/pickWidget work entirely.
    """

    def __init__(self, index: PartitionIndex) -> None:
        self.index = index
        #: step outcome memo — key as documented above, value is the
        #: ``_merge_step`` result (``None`` = proven no-op)
        self.steps: dict[tuple, tuple[Widget | None, list[Widget | None], float] | None] = {}
        #: widget object -> token; the widget rides in the value to pin it
        self._tokens: dict[int, tuple[Widget, int]] = {}
        self._next_token = 0
        #: cumulative counters (per-run deltas are reported by
        #: :func:`merge_widgets_incremental` as ``n_windows_reused`` /
        #: ``n_windows_merged``)
        self.n_reused = 0
        self.n_merged = 0

    def token(self, widget: Widget) -> int:
        """The memo token of a widget object (assigning one if new)."""
        entry = self._tokens.get(id(widget))
        if entry is not None:
            return entry[1]
        token = self._next_token
        self._next_token += 1
        self._tokens[id(widget)] = (widget, token)
        return token

    def key(self, ancestor: Widget, descendants: list[Widget]) -> tuple:
        """The staleness-proof memo key for one merge step."""
        return (
            self.token(ancestor),
            tuple(self.token(w) for w in descendants),
            self.index.window_revision(ancestor.path),
        )

    def __len__(self) -> int:
        return len(self.steps)

    def prune(self, live: dict[int, Widget]) -> None:
        """Drop every step a later merge can no longer replay.

        A step stays replayable while its window revision is current and
        every widget in its key is live.  ``live`` maps ``id(widget)`` to
        the widgets the owner still holds; the outcome widgets of a kept
        step join it (a replayed step hands them to the next step), so
        the set grows to a fixed point.  Tokens of widgets left outside
        it are released, unpinning superseded widgets.
        """
        widget_of = {token: widget for widget, token in self._tokens.values()}
        pending = {
            key: outcome
            for key, outcome in self.steps.items()
            if key[2] == self.index.window_revision(widget_of[key[0]].path)
        }
        kept: dict[tuple, tuple[Widget | None, list[Widget | None], float] | None] = {}
        grew = True
        while grew:
            grew = False
            for key, outcome in list(pending.items()):
                tokens = (key[0], *key[1])
                if not all(id(widget_of[t]) in live for t in tokens):
                    continue
                del pending[key]
                kept[key] = outcome
                if outcome is not None:
                    for widget in (outcome[0], *outcome[1]):
                        if widget is not None and id(widget) not in live:
                            live[id(widget)] = widget
                            grew = True
        self.steps = kept
        self._tokens = {
            key: entry for key, entry in self._tokens.items() if key in live
        }


@dataclass(frozen=True)
class _Picked:
    """One ``pickWidget`` outcome: the partition (or partition subset) it
    was picked for, that diff list's domain, and the widget (``None`` when
    no widget type accepts the domain).  Kept so a longer diff list with
    ``D`` as its prefix can extend ``domain`` instead of rebuilding it."""

    D: list[Diff]
    domain: WidgetDomain
    widget: Widget | None


@dataclass(frozen=True)
class _Rebuild:
    """A merge step's rebuild of a widget minus the ``removed`` diffs:
    ``source`` is the widget's diff list, ``picked`` the outcome over the
    kept diffs.  ``removed`` rides along so its diffs stay alive while the
    memo is keyed by their ids."""

    source: list[Diff]
    removed: tuple[Diff, ...]
    picked: _Picked


@dataclass
class MapCache:
    """Memo carried by long-lived callers (the incremental session) so the
    mapping phase only re-solves what an append actually touched.

    Attributes:
        index: the partition index over the owning graph's diffs table,
            including the interval annotations of every partition path.
        paths: per-path pick memo for Initialize —
            ``path -> (revision, picked)``; valid while the partition is
            still at that revision, and extended (not rebuilt) when the
            partition only grew at its tail.
        merge: per-component merge memo for the partition-scoped fixed
            point — ``component root path -> (signature, merged widgets)``
            where the signature is the monotone window revision of the
            component root's interval window (see
            :func:`merge_widgets_incremental`).
    """

    index: PartitionIndex = field(default_factory=PartitionIndex)
    paths: dict[Path, tuple[int, _Picked]] = field(default_factory=dict)
    merge: dict[Path, tuple[int, list[Widget]]] = field(default_factory=dict)
    #: merge-step rebuild memo shared by the merge fixed points —
    #: ``(path, removed diff ids) -> rebuild``; a later rebuild of a
    #: grown widget minus the same diffs extends the recorded domain
    rebuilds: dict[tuple, _Rebuild] = field(default_factory=dict)
    #: per-ancestor merge-step memo for dirty components; lazily bound to
    #: :attr:`index` by :meth:`window_memo`
    windows: WindowMemo | None = None

    def window_memo(self) -> WindowMemo:
        """The sub-component merge memo, created on first use (and
        re-bound after :meth:`clear` replaced the index)."""
        if self.windows is None or self.windows.index is not self.index:
            self.windows = WindowMemo(self.index)
        return self.windows

    def prune(self) -> None:
        """Release merge memo entries that no live widget reaches.

        Live widgets are the Initialize picks, the memoised component
        results, and the outcomes of replayable window steps.  A rebuild
        entry stays while its source or its result is live: the next
        append extends exactly those.
        """
        live: dict[int, Widget] = {}
        for _, picked in self.paths.values():
            if picked.widget is not None:
                live[id(picked.widget)] = picked.widget
        for _, widgets in self.merge.values():
            live.update((id(w), w) for w in widgets)
        if self.windows is not None:
            self.windows.prune(live)
        sources = {id(widget.D) for widget in live.values()}
        self.rebuilds = {
            key: rebuild
            for key, rebuild in self.rebuilds.items()
            if id(rebuild.source) in sources
            or id(rebuild.picked.widget) in live
        }

    def clear(self) -> None:
        """Drop the index and all memos (forces a full re-index and
        re-map on the next run)."""
        self.index = PartitionIndex()
        self.paths.clear()
        self.merge.clear()
        self.rebuilds.clear()
        self.windows = None


def pick_widget(
    diffs: list[Diff],
    library: list[WidgetType],
    annotations: GrammarAnnotations = SQL_ANNOTATIONS,
) -> Widget | None:
    """Algorithm 2: instantiate the lowest-cost widget type for a partition.

    Args:
        diffs: diff records sharing one path (the partition ``W_p``, or a
            subset of it); the shared path is the caller's guarantee and
            is not re-checked.
        library: candidate widget types ``L``.
        annotations: grammar annotations for typing the domain.

    Returns:
        The cheapest valid widget, or ``None`` for an empty partition.

    Raises:
        MappingError: when no widget type accepts the domain.
    """
    if not diffs:
        return None
    picked = _pick(list(diffs), library, annotations)
    if picked.widget is None:
        raise MappingError(
            f"no widget type in the library accepts the domain at path "
            f"{diffs[0].path} (size={picked.domain.size}, "
            f"none={picked.domain.includes_none})"
        )
    return picked.widget


def _entries(diffs: list[Diff]) -> list[Node | None]:
    """The domain entries of a diff list: ``t1, t2`` per diff, in order."""
    return [tree for diff in diffs for tree in (diff.t1, diff.t2)]


def _is_prefix(prefix: list[Diff], diffs: list[Diff]) -> bool:
    """Is ``prefix`` an identity prefix of ``diffs``?  (C-speed scan.)"""
    return len(prefix) <= len(diffs) and all(map(operator.is_, prefix, diffs))


def _pick(
    D: list[Diff],
    library: list[WidgetType],
    annotations: GrammarAnnotations,
    base: _Picked | None = None,
) -> _Picked:
    """``pickWidget`` over the non-empty one-path diff list ``D``.

    ``base``, when given, must be an earlier outcome whose ``D`` is a
    proven prefix of ``D``: its domain is then extended by the new tail's
    entries — O(new diffs) instead of O(``|D|``) — and equals the domain a
    fresh build would make, entry order included.
    """
    if base is None:
        domain = WidgetDomain(_entries(D), annotations)
    elif len(base.D) == len(D):
        return base
    else:
        domain = base.domain.extended(_entries(D[len(base.D) :]))
    valid = [wt for wt in library if wt.accepts(domain)]
    if not valid:
        return _Picked(D, domain, None)
    best = min(valid, key=lambda wt: (wt.cost_for(domain), wt.name))
    # the rule was just evaluated and D is one path's diffs: skip the
    # validating constructor's re-checks
    return _Picked(D, domain, Widget.unchecked(best, D[0].path, domain, D))


def initialize(
    diffs: list[Diff],
    library: list[WidgetType],
    annotations: GrammarAnnotations = SQL_ANNOTATIONS,
) -> list[Widget]:
    """Algorithm 1: path-partition the diffs table and pick one widget per
    partition.

    Partitions that no widget type accepts — in practice, tree-valued
    domains beyond the enumeration-size cap, such as the root partition of
    a highly heterogeneous log — are skipped: a several-dozen-option
    query selector is the "one button per query" interface Section 4.4
    rejects, and the leaf partitions still express the log's structural
    changes.
    """
    partitions: dict[Path, list[Diff]] = {}
    for diff in diffs:
        partitions.setdefault(diff.path, []).append(diff)
    widgets = []
    for path in sorted(partitions):
        try:
            widget = pick_widget(partitions[path], library, annotations)
        except MappingError:
            continue
        if widget is not None:
            widgets.append(widget)
    return widgets


def _incident_queries(diffs: list[Diff]) -> set[int]:
    """Vertices incident to the edges a set of diffs participates in."""
    out: set[int] = set()
    for diff in diffs:
        out.add(diff.q1)
        out.add(diff.q2)
    return out


def _leaf_diffs_by_pair(leaf_diffs: list[Diff]) -> dict[tuple[int, int], list[Diff]]:
    """Index the leaf diffs by their ``(q1, q2)`` edge.

    ``_merge_step``'s edge-coverage guard only ever looks leaf diffs up by
    pair; building the index once per fixed point replaces an
    ``O(|leaf diffs|)`` scan per candidate diff with a dict hit.
    """
    by_pair: dict[tuple[int, int], list[Diff]] = {}
    for diff in leaf_diffs:
        by_pair.setdefault((diff.q1, diff.q2), []).append(diff)
    return by_pair


def _preorder_view(
    widgets: list[Widget], intervals: IntervalIndex
) -> tuple[list[Widget], list[int]]:
    """Sort widgets by pre-order and pair them with their positions.

    A subtree's widgets occupy one contiguous pre-order range, so the
    merge loop can bisect this view for each ancestor's descendants
    instead of filtering the whole widget list per step.
    """
    ordered = sorted(
        widgets, key=lambda w: intervals.interval(w.path).pre_order
    )
    pres = [intervals.interval(w.path).pre_order for w in ordered]
    return ordered, pres


def _merge_step(
    ancestor: Widget,
    descendants: list[Widget],
    library: list[WidgetType],
    annotations: GrammarAnnotations,
    leaf_by_pair: dict[tuple[int, int], list[Diff]],
    rebuilds: dict[tuple, _Rebuild],
    intervals: IntervalIndex | None = None,
) -> tuple[Widget | None, list[Widget | None], float] | None:
    """Algorithm 3 for one (ancestor, descendant-set) pair.

    The overlap sets carry an *edge-coverage guard* on top of the paper's
    vertex-intersection: a diff is only removable from one side when the
    other side still fully expresses its edge.  Without the guard,
    successive rounds can strip an edge's leaf diffs from the descendants
    and then its replacement diff from the ancestor, silently losing log
    expressiveness.

    Returns:
        ``(new_ancestor, new_descendants, savings)`` where a ``None`` widget
        means "removed", or ``None`` when there is no overlap to resolve.
    """
    vertices_a = _incident_queries(ancestor.D)
    vertices_d: set[int] = set()
    for widget in descendants:
        vertices_d |= _incident_queries(widget.D)
    shared = vertices_a & vertices_d
    if not shared:
        return None

    descendant_diff_ids = {id(d) for w in descendants for d in w.D}
    ancestor_pairs = {(d.q1, d.q2) for d in ancestor.D}

    if intervals is not None:
        def strictly_under(path: Path) -> bool:
            return intervals.strictly_contains(ancestor.path, path)
    else:
        def strictly_under(path: Path) -> bool:
            return ancestor.path.is_strict_prefix_of(path)

    def descendants_cover(pair: tuple[int, int]) -> bool:
        """Do the descendants still hold every leaf diff of this edge that
        lies under the ancestor's path?"""
        required = [
            d for d in leaf_by_pair.get(pair, ()) if strictly_under(d.path)
        ]
        if not required:
            return False
        return all(id(d) in descendant_diff_ids for d in required)

    overlap_a = [
        d
        for d in ancestor.D
        if d.q1 in shared and d.q2 in shared and descendants_cover((d.q1, d.q2))
    ]
    overlaps_d = [
        [
            d
            for d in w.D
            if d.q1 in shared
            and d.q2 in shared
            and (d.q1, d.q2) in ancestor_pairs
        ]
        for w in descendants
    ]
    if not overlap_a and not any(overlaps_d):
        return None

    def rebuilt(widget: Widget, removed: list[Diff]) -> Widget | None:
        if not removed:
            return widget
        # memoised: successive rounds (and appends) re-evaluate the same
        # candidate removals; when the widget only grew at its tail since
        # the recorded rebuild, the kept list and domain extend by the
        # tail instead of being rebuilt from every diff
        key = (widget.path, tuple(map(id, removed)))
        prior = rebuilds.get(key)
        if prior is not None and prior.source is widget.D:
            return prior.picked.widget
        removed_ids = set(map(id, removed))
        if prior is not None and _is_prefix(prior.source, widget.D):
            base: _Picked | None = prior.picked
            tail = widget.D[len(prior.source) :]
            kept = prior.picked.D + [d for d in tail if id(d) not in removed_ids]
        else:
            base = None
            kept = [d for d in widget.D if id(d) not in removed_ids]
        picked = (
            _pick(kept, library, annotations, base)
            if kept
            else _Picked(kept, WidgetDomain((), annotations), None)
        )
        rebuilds[key] = _Rebuild(widget.D, tuple(removed), picked)
        return picked.widget

    def cost_of(widget: Widget | None) -> float:
        return 0.0 if widget is None else widget.cost

    # savings if the overlap is removed from the descendants
    new_descendants = [
        rebuilt(w, overlap) for w, overlap in zip(descendants, overlaps_d)
    ]
    savings_d = sum(
        cost_of(w) - cost_of(nw) for w, nw in zip(descendants, new_descendants)
    )
    # savings if the overlap is removed from the ancestor
    new_ancestor = rebuilt(ancestor, overlap_a)
    savings_a = ancestor.cost - cost_of(new_ancestor)

    if savings_a > savings_d:
        if savings_a <= 0:
            return None
        return new_ancestor, list(descendants), savings_a
    if savings_d <= 0:
        return None
    return ancestor, new_descendants, savings_d


def merge_widgets(
    widgets: list[Widget],
    library: list[WidgetType],
    annotations: GrammarAnnotations = SQL_ANNOTATIONS,
    stats: MapperStats | None = None,
    leaf_diffs: list[Diff] | None = None,
    rebuilds: dict[tuple, _Rebuild] | None = None,
    windows: WindowMemo | None = None,
    leaf_by_pair: dict[tuple[int, int], list[Diff]] | None = None,
) -> list[Widget]:
    """Iterate Algorithm 3 to a fixed point.

    Each round scans ancestor widgets shallow-to-deep; a round that reduces
    total cost triggers another round.  ``rebuilds`` optionally shares
    the merge steps' widget rebuilds across calls (see :class:`MapCache`);
    by default the memo lives only for this fixed point, which already
    de-duplicates the re-evaluation successive rounds do.

    ``windows`` (see :class:`WindowMemo`) additionally memoises whole
    per-ancestor merge *steps* under window revision signatures: an
    ancestor whose subtree window is clean and whose widgets are the same
    objects as last time replays its recorded outcome — including the
    common "no overlap to resolve" no-op — without touching a single
    diff.  The round/ancestor order is unchanged and replayed outcomes
    are the recorded outcomes, so the fixed point is byte-identical with
    or without the memo.
    """
    if leaf_by_pair is None:
        # an oversupplied index is harmless: every read filters by the
        # ancestor's path, so only pairs' leaf diffs under it are seen
        if leaf_diffs is None:
            leaf_diffs = [d for w in widgets for d in w.D if d.is_leaf]
        leaf_by_pair = _leaf_diffs_by_pair(leaf_diffs)
    if rebuilds is None:
        rebuilds = {}
    intervals = windows.index.intervals if windows is not None else None
    current = list(widgets)
    rounds = 0
    while True:
        rounds += 1
        changed = False
        current.sort(key=lambda w: (w.path.depth, w.path))
        # pre-order view of the live widget set: a subtree's widgets are
        # one contiguous slice, so each ancestor's descendant scan is a
        # bisect + slice (O(log W + k)) instead of an O(W) filter; the
        # view is rebuilt only after a replacement actually happens
        view: tuple[list[Widget], list[int]] | None = None
        if intervals is not None:
            view = _preorder_view(current, intervals)
        current_ids = {id(w) for w in current}
        for index, ancestor in enumerate(list(current)):
            if id(ancestor) not in current_ids:
                continue
            if intervals is not None and view is not None:
                annot = intervals.interval(ancestor.path)
                ordered, pres = view
                lo = bisect_right(pres, annot.pre_order)
                hi = bisect_left(pres, annot.pre_order + annot.subtree_size)
                if lo >= hi:
                    continue
                # keep the raw pre-order slice for the memo probe; the
                # (depth, path) order the reference filter yields is only
                # restored when a step actually runs or applies — replay
                # hits on no-op outcomes skip the sort entirely
                window_slice = ordered[lo:hi]
                descendants = None
            else:
                window_slice = None
                descendants = [
                    w
                    for w in current
                    if ancestor.path.is_strict_prefix_of(w.path)
                ]
                if not descendants:
                    continue

            def in_reference_order() -> list[Widget]:
                if descendants is not None:
                    return descendants
                assert window_slice is not None
                return sorted(
                    window_slice, key=lambda w: (w.path.depth, w.path)
                )

            if windows is not None:
                step_key = windows.key(
                    ancestor,
                    window_slice if window_slice is not None else descendants,
                )
                if step_key in windows.steps:
                    windows.n_reused += 1
                    result = windows.steps[step_key]
                else:
                    windows.n_merged += 1
                    descendants = in_reference_order()
                    result = _merge_step(
                        ancestor, descendants, library, annotations,
                        leaf_by_pair, rebuilds, intervals,
                    )
                    windows.steps[step_key] = result
            else:
                descendants = in_reference_order()
                result = _merge_step(
                    ancestor, descendants, library, annotations, leaf_by_pair,
                    rebuilds, intervals,
                )
            if result is None:
                continue
            new_ancestor, new_descendants, savings = result
            if savings <= 0:
                continue
            # a recorded outcome is replayed against the same widget
            # objects it was recorded with (identity tokens in the key),
            # so sorting now yields exactly the order it was zipped with
            descendants = in_reference_order()
            changed = True
            replacement: list[Widget] = []
            descendant_ids = {id(w) for w in descendants}
            new_by_old = dict(zip((id(w) for w in descendants), new_descendants))
            for widget in current:
                if widget is ancestor:
                    if new_ancestor is not None:
                        replacement.append(new_ancestor)
                elif id(widget) in descendant_ids:
                    new_widget = new_by_old[id(widget)]
                    if new_widget is not None:
                        replacement.append(new_widget)
                else:
                    replacement.append(widget)
            current = replacement
            current_ids = {id(w) for w in current}
            if intervals is not None:
                view = _preorder_view(current, intervals)
        if not changed:
            break
    if stats is not None:
        stats.n_merge_rounds = rounds
    return current


def _component_roots(
    paths: list[Path], intervals: IntervalIndex
) -> dict[Path, Path]:
    """Map each widget path to the root of its prefix component.

    Two widget paths interact during merging only when one is a (strict)
    prefix of the other, directly or through a chain of present widget
    paths; the components of that relation are prefix trees, each with a
    unique shallowest member (its *root*).  Because merging only rebuilds
    or removes widgets — never moves one to a new path — the components of
    the initial widget set are closed under every merge step.

    One pre-order sweep with a stack of open intervals: when a path
    arrives, every stack entry that does not contain it has been left,
    and the surviving top (if any) is its nearest present ancestor — no
    per-path walk up the parent chain, no path-string prefix tests.
    """
    roots: dict[Path, Path] = {}
    stack: list[Path] = []
    for path in sorted(paths, key=lambda p: intervals.interval(p).pre_order):
        while stack and not intervals.strictly_contains(stack[-1], path):
            stack.pop()
        roots[path] = roots[stack[-1]] if stack else path
        stack.append(path)
    return roots


def initialize_indexed(
    cache: MapCache,
    library: list[WidgetType],
    annotations: GrammarAnnotations = SQL_ANNOTATIONS,
) -> tuple[list[Widget], int, int]:
    """Algorithm 1 over a :class:`PartitionIndex` with revision reuse.

    Partitions are already grouped and ordered by the index, and a
    partition is re-solved only when its revision moved past the one its
    memoised pick was made at — a steady-state append re-runs
    ``pickWidget`` for exactly the partitions the new pairs touched.  A
    re-solved partition whose memoised diff list is an identity prefix of
    its current one (new diffs landed at its tail, as every append of a
    window-2 session does) extends the memoised domain by the new diffs'
    entries; one with an insert inside is rebuilt from every diff.

    Returns ``(widgets, n_reused, n_rebuilt)``.
    """
    index = cache.index
    widgets: list[Widget] = []
    n_reused = 0
    n_rebuilt = 0
    # the interval index's pre-order IS sorted(by_path), maintained
    # incrementally — no per-remap sort of every partition path
    for path in index.ordered_paths():
        revision = index.rev[path]
        cached = cache.paths.get(path)
        if cached is not None and cached[0] == revision:
            n_reused += 1
            picked = cached[1]
        else:
            n_rebuilt += 1
            # the index mutates its partition lists in place: snapshot
            D = list(index.by_path[path])
            base = cached[1] if cached is not None else None
            if base is not None and not _is_prefix(base.D, D):
                base = None
            picked = _pick(D, library, annotations, base)
            cache.paths[path] = (revision, picked)
        if picked.widget is not None:
            widgets.append(picked.widget)
    return widgets, n_reused, n_rebuilt


def merge_widgets_incremental(
    widgets: list[Widget],
    library: list[WidgetType],
    annotations: GrammarAnnotations,
    cache: MapCache,
    stats: MapperStats | None = None,
    use_windows: bool = True,
) -> tuple[list[Widget], int, int]:
    """Partition-scoped Algorithm 3: per-component fixed points with reuse.

    The widget set is decomposed into prefix components (see
    :func:`_component_roots`); each component's fixed point is computed by
    the reference :func:`merge_widgets` over only its members and the leaf
    diffs in the partitions under its root, and memoised under the
    revision vector of exactly those partitions.  On the next call —
    typically the next append of an
    :class:`~repro.api.session.InterfaceSession` — components whose
    revisions are unchanged (the *clean* set) replay their memoised
    result; only components incident to new diffs (the *dirty* worklist)
    re-run their fixed point.

    Result-equivalence to the global fixed point holds because a merge
    step only ever pairs an ancestor with its prefix-descendants — no
    candidate merge crosses a component boundary — and the global round
    order restricted to one component equals that component's own round
    order; the output is normalised to the global ``(depth, path)``
    widget order.  The parity suite asserts this on every log family.

    Dirtiness is interval-encoded end to end: a component's memo
    signature is the *window revision* of its root — the monotone
    cumulative revision of every partition in the root's interval window,
    an O(log n) range sum instead of a per-member revision vector — and a
    dirty component's fixed point runs through the cache's
    :class:`WindowMemo`, so clean sibling subtrees *inside* a hot
    component replay their memoised per-ancestor step outcomes and only
    the dirty subtree window pays for re-merging.

    ``use_windows=False`` disables the per-step window memo (dirty
    components re-run their full fixed point) — the pre-interval-index
    behaviour, kept for the ablation benchmark.

    Returns ``(merged_widgets, n_components_reused, n_components_merged)``.
    """
    index = cache.index
    memo = cache.merge
    intervals = index.intervals
    roots = _component_roots([w.path for w in widgets], intervals)
    components: dict[Path, list[Widget]] = {}
    for widget in widgets:
        components.setdefault(roots[widget.path], []).append(widget)
    windows = cache.window_memo() if use_windows else None
    windows_reused_before = windows.n_reused if windows is not None else 0
    windows_merged_before = windows.n_merged if windows is not None else 0

    merged: list[Widget] = []
    n_reused = 0
    n_merged = 0
    max_rounds = 0
    dirty: list[str] = []
    for root in sorted(components, key=lambda p: (p.depth, p)):
        # monotone clean-window proof: equal sum ⟺ no member partition
        # gained a diff and no new partition entered the window
        signature = index.window_revision(root)
        cached = memo.get(root)
        if cached is not None and cached[0] == signature:
            n_reused += 1
            merged.extend(cached[1])
            continue
        n_merged += 1
        dirty.append(str(root))
        component_stats = MapperStats()
        # a merge step reads exactly the leaf diffs strictly under its
        # ancestor widget's path, and every ancestor in this component
        # lies under the root — so sharing the index's global pair index
        # is read-identical to collecting the root's window: every lookup
        # is filtered by containment before use, and the global index is
        # maintained append-only instead of being rebuilt per component
        result = merge_widgets(
            components[root],
            library,
            annotations,
            stats=component_stats,
            rebuilds=cache.rebuilds,
            windows=windows,
            leaf_by_pair=index.leaf_by_pair,
        )
        memo[root] = (signature, result)
        merged.extend(result)
        max_rounds = max(max_rounds, component_stats.n_merge_rounds)
    for stale in set(memo) - set(components):
        del memo[stale]
    if n_merged:
        # a re-merge supersedes widgets; release the memo entries only
        # they could reach
        cache.prune()
    # normalise to the global fixed point's (depth, path) output order
    merged.sort(key=lambda w: (w.path.depth, w.path))
    if stats is not None:
        stats.n_merge_rounds = max_rounds
        stats.extra["n_components"] = len(components)
        stats.extra["n_components_reused"] = n_reused
        stats.extra["dirty_components"] = dirty
        stats.extra["n_windows_reused"] = (
            windows.n_reused - windows_reused_before
            if windows is not None
            else 0
        )
        stats.extra["n_windows_merged"] = (
            windows.n_merged - windows_merged_before
            if windows is not None
            else 0
        )
    return merged, n_reused, n_merged


def map_interactions(
    diffs: list[Diff],
    library: list[WidgetType] | None = None,
    annotations: GrammarAnnotations = SQL_ANNOTATIONS,
    merge: bool = True,
    stats: MapperStats | None = None,
) -> list[Widget]:
    """End-to-end mapping: Initialize then Merge.

    Args:
        diffs: the mined diffs table ``W``.
        library: widget type library ``L`` (defaults to the 9-type library).
        annotations: grammar annotations.
        merge: run the merging phase (disable for the ablation bench).
        stats: optional instrumentation sink.

    Returns:
        The final widget set (may be empty for a log of identical queries).
    """
    library = library if library is not None else default_library()
    started = time.perf_counter()
    widgets = initialize(diffs, library, annotations)
    n_initial = len(widgets)
    initial_cost = sum(w.cost for w in widgets)
    if merge:
        leaf_diffs = [d for d in diffs if d.is_leaf]
        widgets = merge_widgets(
            widgets, library, annotations, stats=stats, leaf_diffs=leaf_diffs
        )
    if stats is not None:
        stats.mapping_seconds += time.perf_counter() - started
        stats.n_partitions = len({d.path for d in diffs})
        stats.n_initial_widgets = n_initial
        stats.initial_cost = initial_cost
        stats.n_final_widgets = len(widgets)
        stats.final_cost = sum(w.cost for w in widgets)
    return widgets
