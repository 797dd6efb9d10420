"""Interface → standalone HTML+JavaScript web application (Section 5.3).

"We then compile the interface into a web application that executes an
internal query q by running the provided exec() function, and renders the
results using the user provided render() method."

Offline we have no query server, so the compiler *pre-evaluates* the
interface closure: every combination of widget states (sliders sampled at
their initialising values) is rendered to SQL — and, when a
:class:`~repro.compiler.runtime.Database` is supplied, executed — and the
results are embedded in the page.  The generated file is fully
self-contained: interacting with a widget looks up the composed query and
updates the SQL view and the result table, exactly the interaction loop of
Figure 2b.

The compilation is factored into pure per-widget units so the incremental
compiler (:mod:`repro.compiler.incremental`) can reuse them verbatim:

* :func:`build_choice_list` — a widget's enumerable states;
* :func:`render_control_body` — the expensive per-widget rendering (the
  ``<option>`` labels, or the checkbox ``data-on`` index for presence
  toggles), built from :func:`render_options` so a select body can be
  extended by its new options alone;
* :func:`render_widget_block` — the cheap per-widget block assembly;
* :func:`render_closure_entry` — one closure combination's SQL (and,
  with a database, its executed result);
* :func:`assemble_page` — the page template, with a canonical closure
  key order so any route to the same closure yields identical bytes.

:func:`compile_html` is the one-shot composition of those units; the
incremental compiler produces byte-identical output by construction
because it calls the same units.
"""

from __future__ import annotations

import html as html_escape
import json
from itertools import product

from repro.compiler.layout import LayoutPlan, grid_layout
from repro.compiler.runtime import Database, execute, render_text
from repro.core.closure import apply_widget_choice
from repro.core.interface import Interface, as_interface
from repro.errors import CompileError
from repro.sqlparser.astnodes import Node
from repro.sqlparser.render import render_sql
from repro.widgets.base import Widget

__all__ = [
    "compile_html",
    "build_choice_list",
    "render_control_body",
    "render_options",
    "render_widget_block",
    "render_closure_entry",
    "assemble_page",
]

_UNCHANGED = "(unchanged)"
_ABSENT = "(none)"

_PAGE = """<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>{title}</title>
<style>
body {{ font-family: sans-serif; margin: 2em; background: #fafafa; }}
h1 {{ font-size: 1.3em; }}
.grid {{ display: grid; grid-template-columns: repeat({columns}, minmax(220px, 1fr));
        gap: 1em; max-width: 60em; }}
.widget {{ background: white; border: 1px solid #ddd; border-radius: 6px;
          padding: 0.8em; }}
.widget label {{ display: block; font-weight: bold; margin-bottom: 0.4em;
               font-size: 0.9em; }}
#sql {{ font-family: monospace; background: #272822; color: #f8f8f2;
       padding: 1em; border-radius: 6px; max-width: 60em; margin-top: 1em;
       white-space: pre-wrap; }}
#result {{ font-family: monospace; white-space: pre; background: white;
          border: 1px solid #ddd; padding: 1em; border-radius: 6px;
          max-width: 60em; margin-top: 1em; overflow-x: auto; }}
.miss {{ color: #b00; }}
</style>
</head>
<body>
<h1>{title}</h1>
<div class="grid">
{widgets}
</div>
<div id="sql"></div>
<div id="result"></div>
<script>
const CLOSURE = {closure_json};
const WIDGET_IDS = {widget_ids_json};
function currentKey() {{
  return WIDGET_IDS.map(id => {{
    const el = document.getElementById(id);
    if (el.type === "checkbox") return el.checked ? (el.dataset.on || "1") : "0";
    return el.value;
  }}).join("|");
}}
function refresh() {{
  const entry = CLOSURE[currentKey()];
  const sqlDiv = document.getElementById("sql");
  const resultDiv = document.getElementById("result");
  if (!entry) {{
    sqlDiv.innerHTML = '<span class="miss">-- combination not pre-evaluated --</span>';
    resultDiv.textContent = "";
    return;
  }}
  sqlDiv.textContent = entry.sql;
  resultDiv.textContent = entry.result || "(no result pre-computed)";
}}
for (const id of WIDGET_IDS) {{
  document.getElementById(id).addEventListener("input", refresh);
  document.getElementById(id).addEventListener("change", refresh);
}}
refresh();
</script>
</body>
</html>
"""


def _option_label(entry: Node | None) -> str:
    if entry is None:
        return _ABSENT
    return render_sql(entry) if entry.node_type in ("SelectStmt", "SetOpStmt") else _render_fragment(entry)


def _render_fragment(entry: Node) -> str:
    """Best-effort SQL text for a subtree (fall back to the node label)."""
    from repro.sqlparser.render import _Renderer  # local: shares expr logic

    renderer = _Renderer()
    try:
        if entry.node_type in ("SelectStmt", "SetOpStmt"):
            return renderer.statement(entry)
        if entry.node_type == "Top":
            return f"TOP {renderer.expr(entry.children[0])}"
        if entry.node_type == "ProjClause":
            return renderer._proj(entry)
        if entry.node_type in ("TableRef", "FuncTableRef", "SubqueryRef", "JoinRef"):
            return renderer._from_item(entry)
        if entry.node_type == "GroupClause":
            return renderer.expr(entry.children[0])
        return renderer.expr(entry)
    except CompileError:
        return entry.label()


# ----------------------------------------------------------------------
# per-widget units (shared with repro.compiler.incremental)
# ----------------------------------------------------------------------
def build_choice_list(widget: Widget) -> list[Node | None | str]:
    """A widget's enumerable states: index 0 is always "(unchanged)",
    then the domain entries (extrapolating widgets sampled at their first
    five initialising subtrees, as enumeration cannot cover a range)."""
    choices: list[Node | None | str] = [_UNCHANGED]
    entries = list(widget.domain.entries())
    if widget.widget_type.extrapolates and len(entries) > 5:
        entries = entries[:5]
    choices.extend(entries)
    return choices


def _checkbox_on_index(widget: Widget, choices: list[Node | None | str]) -> int | None:
    """The choice index a presence toggle's checkbox selects when checked,
    or None when the widget is not a presence toggle."""
    if widget.widget_type.name != "toggle_button":
        return None
    if len(choices) != 3 or None not in choices:
        return None
    return next(i for i, c in enumerate(choices) if isinstance(c, Node))


def render_control_body(
    widget: Widget, choices: list[Node | None | str]
) -> tuple[str, str]:
    """The expensive, position-independent part of a widget's control.

    Returns ``(kind, body)``: ``("checkbox", on_index)`` for a presence
    toggle (checkbox semantics over {unchanged, on} — checked swaps the
    element in, unchecked leaves the query unchanged), or
    ``("select", options_html)`` with every domain entry rendered to an
    escaped ``<option>`` label.
    """
    on_index = _checkbox_on_index(widget, choices)
    if on_index is not None:
        return ("checkbox", str(on_index))
    return ("select", render_options(choices))


def render_options(choices: list[Node | None | str], start: int = 0) -> str:
    """The escaped ``<option>`` fragments of ``choices[start:]``.

    Options are independent of each other, so a select body extends by
    concatenation: ``render_options(c)`` equals
    ``render_options(c[:n]) + render_options(c, n)`` for every ``n``.
    """
    return "".join(
        f'<option value="{i}">{html_escape.escape(_option_label(c) if not isinstance(c, str) else c)}</option>'
        for i, c in enumerate(choices[start:], start)
    )


def render_widget_block(
    widget_id: str, label: str, tag: str, kind: str, body: str
) -> str:
    """Assemble one widget's HTML block from its rendered control body.

    Cheap by design (string concatenation only): the incremental compiler
    re-runs this for every widget on every page — the element id depends
    on grid position — while ``(kind, body)`` is reused from the artifact
    cache.
    """
    if kind == "checkbox":
        control = f'<input type="checkbox" id="{widget_id}" data-on="{body}">'
    else:
        control = f'<select id="{widget_id}">{body}</select>'
    return (
        f'<div class="widget"><label>{html_escape.escape(label)} '
        f'<small>({tag})</small></label>{control}</div>'
    )


def compose_query(
    initial_query: Node,
    ordered: list[Widget],
    choice_lists: list[list[Node | None | str]],
    combo: tuple[int, ...],
) -> Node:
    """Apply one combination of widget states to the initial query."""
    query = initial_query
    for widget, choices, choice_index in zip(ordered, choice_lists, combo):
        choice = choices[choice_index]
        if choice == _UNCHANGED:
            continue
        query = apply_widget_choice(query, widget, choice)  # type: ignore[arg-type]
    return query


def render_closure_entry(query: Node, database: Database | None) -> dict[str, str]:
    """One closure combination: rendered SQL plus, with a database, the
    executed result (execution failures are surfaced in the page)."""
    entry: dict[str, str] = {"sql": render_sql(query)}
    if database is not None:
        try:
            entry["result"] = render_text(execute(query, database))
        except Exception as exc:  # noqa: BLE001 - surface in the page
            entry["result"] = f"(execution failed: {exc})"
    return entry


def _combo_sort_key(key: str) -> tuple[int, ...]:
    return tuple(int(part) for part in key.split("|"))


def assemble_page(
    title: str,
    columns: int,
    widget_blocks: list[str],
    closure: dict[str, dict[str, str]],
    widget_ids: list[str],
) -> str:
    """Fill the page template.  The closure is emitted in canonical
    (numeric combination) order — the enumeration order of
    :func:`compile_html` — so a closure reassembled from patches renders
    byte-identically to a one-shot compile."""
    ordered_closure = {key: closure[key] for key in sorted(closure, key=_combo_sort_key)}
    return _PAGE.format(
        title=html_escape.escape(title),
        columns=columns,
        widgets="\n".join(widget_blocks),
        closure_json=json.dumps(ordered_closure),
        widget_ids_json=json.dumps(widget_ids),
    )


def compile_html(
    interface: Interface,
    title: str = "Precision Interface",
    database: Database | None = None,
    limit: int = 2048,
    columns: int = 2,
    layout: LayoutPlan | None = None,
) -> str:
    """Compile an interface into a self-contained HTML application.

    Args:
        interface: the generated interface (or a
            :class:`~repro.api.result.GenerationResult`, which is unwrapped).
        title: page title.
        database: optional in-memory database; when given, every closure
            query is executed and its rendered result embedded.
        limit: cap on pre-evaluated widget-state combinations.
        columns: grid columns.
        layout: optional custom layout (defaults to :func:`grid_layout`).

    Returns:
        The HTML document as a string.

    Raises:
        CompileError: when the interface has no widgets.
    """
    interface = as_interface(interface)
    if not interface.widgets:
        raise CompileError("cannot compile an interface with no widgets")
    plan = layout or grid_layout(interface, columns=columns)
    ordered = [cell.widget for cell in plan.cells]

    choice_lists = [build_choice_list(widget) for widget in ordered]

    closure: dict[str, dict[str, str]] = {}
    for combo in product(*(range(len(c)) for c in choice_lists)):
        if len(closure) >= limit:
            break
        query = compose_query(interface.initial_query, ordered, choice_lists, combo)
        closure["|".join(str(i) for i in combo)] = render_closure_entry(query, database)

    widget_blocks = []
    widget_ids = []
    for index, (cell, choices) in enumerate(zip(plan.cells, choice_lists)):
        widget_id = f"w{index}"
        widget_ids.append(widget_id)
        kind, body = render_control_body(cell.widget, choices)
        widget_blocks.append(
            render_widget_block(
                widget_id, cell.label, cell.widget.widget_type.name, kind, body
            )
        )

    return assemble_page(title, plan.columns, widget_blocks, closure, widget_ids)
