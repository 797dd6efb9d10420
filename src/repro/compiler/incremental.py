"""Incremental interface compilation (dirty-driven re-rendering).

``compile_html`` is one-shot: every call re-renders all widget blocks and
re-enumerates the full closure product, even when an append moved a single
diff partition.  This module maintains the compiled artifact under appends
instead — the incremental-view-maintenance shape of Berkholz et al.
("Answering FO+MOD queries under updates"): pay for the new choices only.

Reuse is proved from exactly what the page renders for a widget: its
picked type, its path, its choice list (:func:`build_choice_list`), and
``domain.node_types`` when ``None`` is a choice (the only other input
:func:`~repro.core.closure.apply_widget_choice` reads).  The widget's
diff list ``D`` is deliberately *not* an input: an append that lands a
diff in a widget without adding a choice changes nothing on the page.
Three layers make that correct *and* byte-identical to a full recompile:

* **Per-widget artifacts.**  Every widget's choice list, control body
  (the ``<option>`` labels, or a presence toggle's checkbox) and
  per-choice keys are cached in a :class:`WidgetArtifact`, keyed by the
  widget's path.  An artifact is reused when the type and ``node_types``
  match and the cached choices equal the new ones element-wise (``is``
  or ``Node.equals``).  When the cached list is a proper prefix of the
  new one — a domain that grew at its end, the steady state of an
  append-only log — the artifact is *extended*: only the new
  ``<option>`` fragments render, and the fingerprint continues from the
  running sha256.

* **Closure slices.**  Each combination's closure entry is cached under
  its *selection signature*: the per-choice keys of its non-default
  choices, in grid order.  A choice key is a sha256 digest of the
  widget's type, path, and the canonical encoding of the choice subtree
  (plus ``node_types`` for the ``None`` choice) — never the
  process-salted ``Node.fingerprint`` and never an option label, which
  two different subtrees can share.  A combination therefore re-renders
  (and, with a database, re-executes) only when one of its own choices
  is new.  Before executing, the session's
  :class:`~repro.core.closure.ClosureCache` proofs are consulted: a
  combination whose cover proof is already recorded replays the
  execution memo, and newly rendered combinations record their
  (by-construction sound) proof, warming ``session.expresses()``.  After
  every compile the cache keeps only the slices the new page uses, so it
  never holds more than ``limit`` entries.

* **Patches.**  :meth:`IncrementalCompiler.compile_patch` emits the
  structural difference between consecutive pages — replaced widget
  blocks plus a closure delta — and :func:`apply_patch` folds a patch
  into a page state such that :func:`page_html` over the patched state is
  byte-identical to a full ``compile_html`` of the new interface.

The page state dict (:meth:`CompiledPage.to_state`) is also the payload
persisted in the :class:`~repro.cache.store.GraphStore`'s fifth table;
:meth:`IncrementalCompiler.import_state` warms the slice cache from a
persisted page, so a fresh process replays combinations whose widgets
still fingerprint the same.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import product
from typing import Any

from repro.compiler.html import (
    _checkbox_on_index,
    assemble_page,
    build_choice_list,
    compose_query,
    render_closure_entry,
    render_control_body,
    render_options,
    render_widget_block,
)
from repro.compiler.layout import grid_layout
from repro.compiler.runtime import Database
from repro.core.closure import ClosureCache
from repro.core.interface import Interface, as_interface
from repro.errors import CompileError
from repro.paths import Path
from repro.sqlparser.astnodes import Node
from repro.sqlparser.render import render_sql
from repro.widgets.base import Widget

__all__ = [
    "IncrementalCompiler",
    "CompiledPage",
    "CompileStats",
    "WidgetArtifact",
    "widget_fingerprint",
    "make_patch",
    "apply_patch",
    "page_html",
]

#: Version tag carried by page states and patches; a consumer must reject
#: a payload of a different version.
PATCH_VERSION = 1

Choice = Node | None | str


def _tree(node: Node) -> list[Any]:
    """``[type, sorted attributes, children]`` — the JSON shape of a
    subtree's canonical encoding.  An integral float is encoded as the
    int it equals: ``Node.equals`` (and the renderer) cannot tell
    ``10.0`` from ``10``, and a store round trip may turn one into the
    other."""
    return [
        node.node_type,
        [
            [name, int(value) if isinstance(value, float) and value.is_integer() else value]
            for name, value in sorted(node.attributes.items())
        ],
        [_tree(child) for child in node.children],
    ]


def _encode_choice(choice: Choice, none_types: frozenset[str] | None) -> bytes:
    """Canonical, process-stable and self-delimiting encoding of one
    choice: everything :func:`~repro.core.closure.apply_widget_choice`
    reads of it.  ``None`` carries the domain's node types (the guard on
    which elements it may delete); a subtree is its full JSON structure,
    so subtrees that merely render to the same option label differ.
    """
    if choice is None:
        payload: Any = [None, sorted(none_types or ())]
    elif isinstance(choice, Node):
        payload = _tree(choice)
    else:
        payload = [choice]
    # json escapes control characters, so the separator is unambiguous
    return json.dumps(payload, default=repr).encode("utf-8") + b"\x1f"


def _key_base(widget: Widget) -> Any:
    """The sha256 state every key of ``widget`` starts from."""
    digest = hashlib.sha256()
    digest.update(widget.widget_type.name.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(str(widget.path).encode("utf-8"))
    digest.update(b"\x00")
    return digest


def _none_types(widget: Widget, choices: list[Choice]) -> frozenset[str] | None:
    """``domain.node_types`` when ``None`` is one of the choices, else
    ``None`` (the types are then never read)."""
    if widget.domain.includes_none and any(c is None for c in choices):
        return widget.domain.node_types
    return None


def widget_fingerprint(widget: Widget) -> str:
    """Process-stable content hash of what a widget renders.

    A sha256 over the picked widget type, the path, and the canonical
    encoding of every choice in :func:`build_choice_list` order (the
    ``None`` choice with the domain's node types).  The diff list ``D``
    is not an input: two widgets with the same fingerprint compile to
    the same control and the same closure slices.  Deliberately *not*
    built from ``Node.fingerprint``/``skeleton``, which are
    process-salted and must never reach a persisted payload (lint rule
    RL006).
    """
    choices = build_choice_list(widget)
    none_types = _none_types(widget, choices)
    tag = widget.widget_type.name
    return _artifact(tag, _key_base(widget), None, choices, none_types, "", "").fingerprint


@dataclass
class WidgetArtifact:
    """The cached compilation of one widget.

    ``(kind, body)`` is the expensive position-independent rendering (see
    :func:`~repro.compiler.html.render_control_body`); the block itself is
    reassembled per page because the element id is positional.  The
    reuse proof is ``(tag, choices, none_types)`` under the artifact's
    path.  ``choice_keys[i]`` is choice ``i``'s slice key (index 0, the
    "(unchanged)" state, never enters a signature), and ``running`` is
    the sha256 state behind ``fingerprint``, kept so an extended choice
    list hashes only its new choices.
    """

    tag: str
    choices: list[Choice]
    none_types: frozenset[str] | None
    base: Any
    running: Any
    choice_keys: list[bytes]
    fingerprint: str
    kind: str
    body: str


def _artifact(
    tag: str,
    base: Any,
    grown: WidgetArtifact | None,
    choices: list[Choice],
    none_types: frozenset[str] | None,
    kind: str,
    body: str,
) -> WidgetArtifact:
    """The artifact for ``choices``, hashing and keying only the choices
    past ``grown`` (an artifact whose choice list is a prefix of
    ``choices``, or ``None`` to start from scratch)."""
    if grown is None:
        running, keys, start = base.copy(), [b""], 1
    else:
        running = grown.running.copy()
        keys, start = list(grown.choice_keys), len(grown.choices)
    for choice in choices[start:]:
        encoded = _encode_choice(choice, none_types)
        running.update(encoded)
        key = base.copy()
        key.update(encoded)
        keys.append(key.digest())
    return WidgetArtifact(
        tag=tag,
        choices=choices,
        none_types=none_types,
        base=base,
        running=running,
        choice_keys=keys,
        fingerprint=running.hexdigest()[:16],
        kind=kind,
        body=body,
    )


@dataclass
class CompileStats:
    """Work counters across a compiler's lifetime (monotonic)."""

    widgets_rendered: int = 0
    widgets_extended: int = 0
    widgets_reused: int = 0
    combos_rendered: int = 0
    combos_replayed: int = 0
    executions: int = 0
    executions_replayed: int = 0
    pages_reused: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "widgets_rendered": self.widgets_rendered,
            "widgets_extended": self.widgets_extended,
            "widgets_reused": self.widgets_reused,
            "combos_rendered": self.combos_rendered,
            "combos_replayed": self.combos_replayed,
            "executions": self.executions,
            "executions_replayed": self.executions_replayed,
            "pages_reused": self.pages_reused,
        }


@dataclass
class CompiledPage:
    """One compiled interface page, decomposed for patching.

    ``blocks`` maps widget element ids to their HTML blocks in grid
    order; ``closure`` maps combination keys (``"i|j|k"``) to closure
    entries; ``widget_fingerprints`` records the content hash of each
    widget in the same order as ``widget_ids`` (they key the persisted
    slice cache — see :meth:`IncrementalCompiler.import_state`).
    """

    fingerprint: str
    title: str
    columns: int
    initial_sql: str
    widget_ids: list[str]
    widget_fingerprints: list[str]
    blocks: dict[str, str]
    closure: dict[str, dict[str, str]]

    def html(self) -> str:
        """The full page — byte-identical to ``compile_html``."""
        return page_html(self.to_state())

    def to_state(self) -> dict[str, Any]:
        """The page as a plain-JSON state dict (the persisted payload and
        the base :func:`apply_patch` operates on)."""
        return {
            "version": PATCH_VERSION,
            "fingerprint": self.fingerprint,
            "title": self.title,
            "columns": self.columns,
            "initial_sql": self.initial_sql,
            "widget_ids": list(self.widget_ids),
            "widget_fingerprints": list(self.widget_fingerprints),
            "blocks": dict(self.blocks),
            "closure": {key: dict(entry) for key, entry in self.closure.items()},
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "CompiledPage":
        if state.get("version") != PATCH_VERSION:
            raise CompileError(
                f"unsupported compiled-page version {state.get('version')!r} "
                f"(supported: {PATCH_VERSION})"
            )
        return cls(
            fingerprint=state["fingerprint"],
            title=state["title"],
            columns=int(state["columns"]),
            initial_sql=state["initial_sql"],
            widget_ids=list(state["widget_ids"]),
            widget_fingerprints=list(state["widget_fingerprints"]),
            blocks=dict(state["blocks"]),
            closure={k: dict(v) for k, v in state["closure"].items()},
        )


def page_html(state: dict[str, Any]) -> str:
    """Render a page state dict to the full HTML document.

    Pure over the state: a state reached through any patch sequence
    renders byte-identically to the state compiled in one shot.
    """
    blocks = state["blocks"]
    return assemble_page(
        state["title"],
        int(state["columns"]),
        [blocks[widget_id] for widget_id in state["widget_ids"]],
        state["closure"],
        list(state["widget_ids"]),
    )


def make_patch(before: CompiledPage | None, after: CompiledPage) -> dict[str, Any]:
    """The structural difference between two consecutive pages.

    A ``kind="page"`` patch carries the full state (first compile, or a
    title/layout change); a ``kind="patch"`` carries only replaced widget
    blocks and the closure delta.
    """
    if (
        before is None
        or before.title != after.title
        or before.columns != after.columns
    ):
        return {
            "version": PATCH_VERSION,
            "kind": "page",
            "fingerprint": after.fingerprint,
            "base": None,
            "page": after.to_state(),
        }
    blocks = {
        widget_id: block
        for widget_id, block in after.blocks.items()
        if before.blocks.get(widget_id) != block
    }
    removed = [wid for wid in before.widget_ids if wid not in after.blocks]
    closure_set = {
        key: entry
        for key, entry in after.closure.items()
        # replayed slices are the very same dicts: skip comparing them
        if (old := before.closure.get(key)) is not entry and old != entry
    }
    closure_del = [key for key in before.closure if key not in after.closure]
    return {
        "version": PATCH_VERSION,
        "kind": "patch",
        "fingerprint": after.fingerprint,
        "base": before.fingerprint,
        "initial_sql": after.initial_sql,
        "widget_ids": list(after.widget_ids),
        "widget_fingerprints": list(after.widget_fingerprints),
        "blocks": blocks,
        "removed": removed,
        "closure_set": closure_set,
        "closure_del": closure_del,
    }


def apply_patch(state: dict[str, Any] | None, patch: dict[str, Any]) -> dict[str, Any]:
    """Fold one patch into a page state, returning the new state.

    Raises:
        CompileError: on a version mismatch, a ``kind="patch"`` with no
            base state, or a base fingerprint mismatch (the subscriber
            missed an event and must request a full page).
    """
    if patch.get("version") != PATCH_VERSION:
        raise CompileError(
            f"unsupported patch version {patch.get('version')!r} "
            f"(supported: {PATCH_VERSION})"
        )
    if patch["kind"] == "page":
        return {k: v for k, v in patch["page"].items()}
    if state is None:
        raise CompileError("cannot apply an incremental patch without a base page")
    if state.get("fingerprint") != patch.get("base"):
        raise CompileError(
            "patch base mismatch: have "
            f"{state.get('fingerprint')!r}, patch expects {patch.get('base')!r}"
        )
    blocks = dict(state["blocks"])
    for widget_id in patch["removed"]:
        blocks.pop(widget_id, None)
    blocks.update(patch["blocks"])
    closure = dict(state["closure"])
    for key in patch["closure_del"]:
        closure.pop(key, None)
    closure.update(patch["closure_set"])
    return {
        "version": PATCH_VERSION,
        "fingerprint": patch["fingerprint"],
        "title": state["title"],
        "columns": state["columns"],
        "initial_sql": patch["initial_sql"],
        "widget_ids": list(patch["widget_ids"]),
        "widget_fingerprints": list(patch["widget_fingerprints"]),
        "blocks": blocks,
        "closure": closure,
    }


class IncrementalCompiler:
    """Maintain a compiled interface page under session appends.

    Args:
        title: page title (part of the page fingerprint).
        database: optional in-memory database; closure entries embed
            executed results, with re-execution memoised per SQL string.
        limit: cap on pre-evaluated widget-state combinations.
        columns: grid columns.

    Usage::

        compiler = IncrementalCompiler()
        page = compiler.compile(session.interface)
        page.html()                     # == compile_html(session.interface)
        session.append_sql(more)
        patch = compiler.compile_patch(session.interface)
    """

    def __init__(
        self,
        title: str = "Precision Interface",
        database: Database | None = None,
        limit: int = 2048,
        columns: int = 2,
    ) -> None:
        self.title = title
        self.database = database
        self.limit = limit
        self.columns = columns
        self.stats = CompileStats()
        self._artifacts: dict[Path, WidgetArtifact] = {}
        self._slices: dict[tuple[bytes, ...], dict[str, str]] = {}
        # persisted slices awaiting their widgets' choice keys, keyed by
        # (widget fingerprint, choice index) pairs — see import_state
        self._imported: dict[tuple[tuple[str, int], ...], dict[str, str]] = {}
        self._results: dict[str, str] = {}
        self._initial_sql: str | None = None
        self._page: CompiledPage | None = None

    @property
    def page(self) -> CompiledPage | None:
        """The most recently compiled page, if any."""
        return self._page

    # ------------------------------------------------------------------
    # persistence bridge
    # ------------------------------------------------------------------
    def import_state(self, state: dict[str, Any]) -> int:
        """Warm the closure-slice cache from a persisted page state.

        Artifacts are process-local, but a widget fingerprint determines
        the widget's choice list and hence its choice keys, so a
        persisted page's closure entries replay in this process for
        every combination whose widgets still fingerprint the same.  The
        entries are held under ``(fingerprint, choice index)`` pairs
        until the next compile translates them to choice keys.  Returns
        the number of slices adopted.
        """
        page = CompiledPage.from_state(state)
        if self._initial_sql is None:
            # arm the slice cache for the persisted page's q0 — the next
            # compile keeps the adopted slices iff its q0 matches
            self._initial_sql = page.initial_sql
        elif page.initial_sql != self._initial_sql:
            # slices composed against a different initial query can
            # never replay soundly here
            return 0
        fingerprints = page.widget_fingerprints
        adopted = 0
        for key, entry in page.closure.items():
            indices = [int(part) for part in key.split("|")]
            # a negative index would address a choice from the end
            if len(indices) != len(fingerprints) or min(indices) < 0:
                continue
            signature = tuple(
                (fingerprints[pos], idx)
                for pos, idx in enumerate(indices)
                if idx != 0
            )
            if signature not in self._imported:
                self._imported[signature] = dict(entry)
                adopted += 1
        return adopted

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def compile(
        self,
        interface: Interface,
        closure_cache: ClosureCache | None = None,
    ) -> CompiledPage:
        """Compile ``interface``, reusing every artifact and closure slice
        whose rendered inputs are unchanged.

        Args:
            interface: the interface (or result) to compile.
            closure_cache: the session's closure cache; with a database,
                consulted before executing a combination and warmed with
                the rendered combinations' cover proofs.

        Raises:
            CompileError: when the interface has no widgets.
        """
        interface = as_interface(interface)
        if not interface.widgets:
            raise CompileError("cannot compile an interface with no widgets")
        plan = grid_layout(interface, columns=self.columns)
        ordered = [cell.widget for cell in plan.cells]

        initial_sql = render_sql(interface.initial_query)
        if initial_sql != self._initial_sql:
            # a different q0 invalidates every cached combination (they
            # were composed against the old initial query)
            self._slices.clear()
            self._imported.clear()
            self._initial_sql = initial_sql

        artifacts = [self._artifact_for(widget) for widget in ordered]
        labels = [cell.label for cell in plan.cells]

        fingerprint = self._page_fingerprint(initial_sql, artifacts, labels)
        if self._page is not None and self._page.fingerprint == fingerprint:
            self.stats.pages_reused += 1
            return self._page

        if self._imported:
            self._adopt_imported(artifacts)
        closure = self._closure(interface, ordered, artifacts, closure_cache)

        widget_ids = [f"w{i}" for i in range(len(ordered))]
        blocks = {
            widget_id: render_widget_block(
                widget_id, label, artifact.tag, artifact.kind, artifact.body
            )
            for widget_id, label, artifact in zip(widget_ids, labels, artifacts)
        }
        self._page = CompiledPage(
            fingerprint=fingerprint,
            title=self.title,
            columns=plan.columns,
            initial_sql=initial_sql,
            widget_ids=widget_ids,
            widget_fingerprints=[a.fingerprint for a in artifacts],
            blocks=blocks,
            closure=closure,
        )
        return self._page

    def compile_patch(
        self,
        interface: Interface,
        closure_cache: ClosureCache | None = None,
    ) -> dict[str, Any]:
        """Compile and return the structural patch against the previous
        page (a full ``kind="page"`` patch on the first compile; an empty
        delta when nothing changed)."""
        before = self._page
        after = self.compile(interface, closure_cache=closure_cache)
        return make_patch(before, after)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _artifact_for(self, widget: Widget) -> WidgetArtifact:
        """The widget's artifact: reused, extended, or rendered afresh.

        Reuse proof: same picked type, same ``node_types`` (when ``None``
        is a choice), and the cached choices equal the new ones
        element-wise — list equality compares each pair by identity,
        then ``Node.equals``.  Those are all the inputs of the control
        body and of every closure slice this widget takes part in.  When
        the cached list is a proper prefix of the new one, only the new
        options render and only the new choices are hashed.
        """
        choices = build_choice_list(widget)
        tag = widget.widget_type.name
        none_types = _none_types(widget, choices)
        cached = self._artifacts.get(widget.path)
        if (
            cached is not None
            and cached.tag == tag
            and (cached.none_types is None or cached.none_types == none_types)
        ):
            n_cached = len(cached.choices)
            if n_cached == len(choices) and cached.choices == choices:
                self.stats.widgets_reused += 1
                return cached
            if (
                n_cached < len(choices)
                and cached.kind == "select"
                and _checkbox_on_index(widget, choices) is None
                and cached.choices == choices[:n_cached]
            ):
                body = cached.body + render_options(choices, n_cached)
                artifact = _artifact(
                    tag, cached.base, cached, choices, none_types, "select", body
                )
                self._artifacts[widget.path] = artifact
                self.stats.widgets_extended += 1
                return artifact
        kind, body = render_control_body(widget, choices)
        artifact = _artifact(
            tag, _key_base(widget), None, choices, none_types, kind, body
        )
        self._artifacts[widget.path] = artifact
        self.stats.widgets_rendered += 1
        return artifact

    def _page_fingerprint(
        self,
        initial_sql: str,
        artifacts: list[WidgetArtifact],
        labels: list[str],
    ) -> str:
        """Content hash of the whole page: widget fingerprints and cell
        labels in grid order plus everything else the output depends
        on."""
        digest = hashlib.sha256()
        digest.update(self.title.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(f"{self.columns}|{self.limit}".encode("utf-8"))
        digest.update(b"\x00")
        digest.update(b"db" if self.database is not None else b"nodb")
        digest.update(b"\x00")
        digest.update(initial_sql.encode("utf-8"))
        for artifact, label in zip(artifacts, labels):
            encoded = label.encode("utf-8")
            digest.update(b"\x1f")
            digest.update(artifact.fingerprint.encode("utf-8"))
            digest.update(f"{len(encoded)}:".encode("utf-8"))
            digest.update(encoded)
        return digest.hexdigest()[:16]

    def _adopt_imported(self, artifacts: list[WidgetArtifact]) -> None:
        """Translate persisted slices to choice-key signatures for the
        widgets on this page (an equal fingerprint means an equal choice
        list, hence equal choice keys); the rest are dropped."""
        keys_by_fingerprint = {a.fingerprint: a.choice_keys for a in artifacts}
        for signature, entry in self._imported.items():
            try:
                keys = tuple(
                    keys_by_fingerprint[fp][idx] for fp, idx in signature
                )
            except (KeyError, IndexError):
                continue
            self._slices.setdefault(keys, entry)
        self._imported.clear()

    def _closure(
        self,
        interface: Interface,
        ordered: list[Widget],
        artifacts: list[WidgetArtifact],
        closure_cache: ClosureCache | None,
    ) -> dict[str, dict[str, str]]:
        """Enumerate the closure in ``compile_html`` order, replaying
        cached slices and re-rendering only combinations with a new
        choice.  Afterwards the slice cache holds exactly this page's
        slices.

        ``product`` varies the rightmost position fastest, so within the
        first ``limit`` combinations only a short suffix of positions
        ever leaves index 0.  Enumerating just that suffix (the prefix is
        a constant run of zeros), with the innermost position unrolled,
        makes the per-combination key and signature work O(1), not
        O(n_widgets) — on a wide page the steady-state compile is
        dominated by exactly this loop.
        """
        choice_lists = [artifact.choices for artifact in artifacts]
        proven = proof_trees = None
        if closure_cache is not None and self.database is not None:
            proven = closure_cache.proven_for(ordered)
            proof_trees = closure_cache.proof_trees_for(ordered)
        closure: dict[str, dict[str, str]] = {}
        lengths = [len(choices) for choices in choice_lists]
        split, cap = len(lengths), 1
        while split > 0 and (cap < self.limit or split == len(lengths)):
            split -= 1
            cap *= lengths[split]
        *outer_lengths, n_last = lengths[split:]
        *outer_keys, last_keys = [a.choice_keys for a in artifacts[split:]]
        slices: dict[tuple[bytes, ...], dict[str, str]] = {}
        for outer in product(*(range(n) for n in outer_lengths)):
            # the rightmost position varies fastest: the signature and key
            # of everything left of it are built once per run of it
            outer_signature = tuple(
                keys[idx] for keys, idx in zip(outer_keys, outer) if idx
            )
            outer_key = "0|" * split + "".join(f"{idx}|" for idx in outer)
            for last in range(min(n_last, self.limit - len(closure))):
                signature = (
                    outer_signature + (last_keys[last],) if last else outer_signature
                )
                entry = self._slices.get(signature)
                if entry is None:
                    entry = self._render_combo(
                        interface,
                        ordered,
                        choice_lists,
                        (0,) * split + outer + (last,),
                        proven,
                        proof_trees,
                    )
                    self.stats.combos_rendered += 1
                else:
                    self.stats.combos_replayed += 1
                slices[signature] = entry
                closure[outer_key + str(last)] = entry
            if len(closure) >= self.limit:
                break
        self._slices = slices
        return closure

    def _render_combo(
        self,
        interface: Interface,
        ordered: list[Widget],
        choice_lists: list[list[Node | None | str]],
        combo: tuple[int, ...],
        proven: dict | None,
        proof_trees: dict | None,
    ) -> dict[str, str]:
        """Render (and with a database, execute) one dirty combination.

        The execution memo (SQL string → rendered result) is replayed
        only for combinations whose cover proof is already in the
        session's :class:`ClosureCache`; an unproven combination executes
        and records its proof — sound by construction, since the query
        was produced by applying widget choices to ``q0``.
        """
        query = compose_query(interface.initial_query, ordered, choice_lists, combo)
        if self.database is None:
            return render_closure_entry(query, None)
        proof_key = (
            interface.initial_query.fingerprint,
            query.fingerprint,
            Path.root(),
        )
        known = bool(proven.get(proof_key)) if proven is not None else False
        sql = render_sql(query)
        cached_result = self._results.get(sql)
        if known and cached_result is not None:
            self.stats.executions_replayed += 1
            return {"sql": sql, "result": cached_result}
        entry = render_closure_entry(query, self.database)
        self.stats.executions += 1
        self._results[sql] = entry["result"]
        if proven is not None and not known:
            proven[proof_key] = True
            if proof_trees is not None:
                proof_trees[proof_key] = (interface.initial_query, query)
        return entry
