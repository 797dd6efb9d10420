"""The widget type library.

Nine widget types, mirroring the paper's implementation ("We defined 9 HTML
widget types natively supported in modern browsers: text-box, toggle-button,
single checkbox, radio button, drop-down list, slider, range slider,
checkbox list, drag-and-drop").

Each type pairs a constraint rule with a cost function; ``pickWidget``
(Algorithm 2) instantiates the *lowest-cost* type whose rule accepts the
domain.  The rules below are ordered so every well-formed domain is
accepted by at least one type (the radio button is the catch-all for
enumerations of arbitrary subtrees; the checkbox list is the catch-all for
domains that include "absent").
"""

from __future__ import annotations

from repro.errors import WidgetError
from repro.widgets.base import WidgetType
from repro.widgets.cost import DEFAULT_COEFFICIENTS, QuadraticCost
from repro.widgets.domain import WidgetDomain

__all__ = [
    "default_library",
    "make_widget_type",
    "TEXTBOX",
    "TOGGLE_BUTTON",
    "CHECKBOX",
    "RADIO_BUTTON",
    "DROPDOWN",
    "SLIDER",
    "RANGE_SLIDER",
    "CHECKBOX_LIST",
    "DRAG_AND_DROP",
]


# ----------------------------------------------------------------------
# rules
# ----------------------------------------------------------------------
def _rule_textbox(domain: WidgetDomain) -> bool:
    """Free-text entry: any all-literal domain without an "absent" option."""
    return domain.size >= 1 and domain.is_literal and not domain.includes_none


def _rule_toggle(domain: WidgetDomain) -> bool:
    """Exactly two states, of any kind ("a toggle button may directly
    replace the entire query's AST")."""
    return domain.size == 2


def _rule_checkbox(domain: WidgetDomain) -> bool:
    """A single presence checkbox: a *literal* element on / off.  Presence
    toggles for whole clauses or subqueries (tree-valued) fall through to
    the toggle button, matching the paper's "Toggle TOP" widget."""
    return domain.size == 2 and domain.includes_none and domain.is_literal


#: Enumeration widgets stop being usable beyond a few dozen options — the
#: paper's own argument against "one button for every query" (§4.4).  Tree
#: domains larger than this have no widget type and their partitions are
#: skipped by the mapper (literal domains fall through to the textbox).
MAX_ENUM_OPTIONS = 32


def _rule_radio(domain: WidgetDomain) -> bool:
    """Mutually-exclusive option list over arbitrary subtrees; the
    catch-all for tree-valued enumerations (Figure 5b)."""
    return 2 <= domain.size <= MAX_ENUM_OPTIONS and not domain.includes_none


def _rule_dropdown(domain: WidgetDomain) -> bool:
    """Select one literal from a list."""
    return domain.size >= 2 and domain.is_literal and not domain.includes_none


def _rule_slider(domain: WidgetDomain) -> bool:
    """Numeric selection over an extrapolated range (Example 4.3)."""
    return domain.size >= 2 and domain.is_numeric and not domain.includes_none


def _rule_range_slider(domain: WidgetDomain) -> bool:
    """Numeric low/high selection: all entries are BETWEEN expressions over
    the same attribute with numeric bounds."""
    return (
        not domain.includes_none
        and domain.n_subtrees >= 2
        and domain.is_range_track
    )


def _rule_checkbox_list(domain: WidgetDomain) -> bool:
    """Optional-element selection: "absent" plus two or more alternatives;
    the catch-all for domains that include None."""
    return domain.includes_none and 3 <= domain.size <= MAX_ENUM_OPTIONS


def _rule_drag_and_drop(domain: WidgetDomain) -> bool:
    """Reordering of a collection: all entries are collection nodes of the
    same type containing the same multiset of children."""
    return (
        not domain.includes_none
        and domain.n_subtrees >= 2
        and domain.is_reordering
    )


# ----------------------------------------------------------------------
# the library
# ----------------------------------------------------------------------
TEXTBOX = WidgetType(
    name="textbox",
    rule=_rule_textbox,
    cost=DEFAULT_COEFFICIENTS["textbox"],
    unbounded=True,
    html_tag="input",
)
TOGGLE_BUTTON = WidgetType(
    name="toggle_button",
    rule=_rule_toggle,
    cost=DEFAULT_COEFFICIENTS["toggle_button"],
    html_tag="button",
)
CHECKBOX = WidgetType(
    name="checkbox",
    rule=_rule_checkbox,
    cost=DEFAULT_COEFFICIENTS["checkbox"],
    html_tag="input",
)
RADIO_BUTTON = WidgetType(
    name="radio_button",
    rule=_rule_radio,
    cost=DEFAULT_COEFFICIENTS["radio_button"],
    html_tag="input",
)
DROPDOWN = WidgetType(
    name="dropdown",
    rule=_rule_dropdown,
    cost=DEFAULT_COEFFICIENTS["dropdown"],
    html_tag="select",
)
SLIDER = WidgetType(
    name="slider",
    rule=_rule_slider,
    cost=DEFAULT_COEFFICIENTS["slider"],
    extrapolates=True,
    html_tag="input",
)
RANGE_SLIDER = WidgetType(
    name="range_slider",
    rule=_rule_range_slider,
    cost=DEFAULT_COEFFICIENTS["range_slider"],
    extrapolates=True,
    html_tag="input",
)
CHECKBOX_LIST = WidgetType(
    name="checkbox_list",
    rule=_rule_checkbox_list,
    cost=DEFAULT_COEFFICIENTS["checkbox_list"],
    html_tag="fieldset",
)
DRAG_AND_DROP = WidgetType(
    name="drag_and_drop",
    rule=_rule_drag_and_drop,
    cost=DEFAULT_COEFFICIENTS["drag_and_drop"],
    html_tag="div",
)

_ALL = (
    TEXTBOX,
    TOGGLE_BUTTON,
    CHECKBOX,
    RADIO_BUTTON,
    DROPDOWN,
    SLIDER,
    RANGE_SLIDER,
    CHECKBOX_LIST,
    DRAG_AND_DROP,
)


def default_library() -> list[WidgetType]:
    """The full 9-type widget library, fresh list each call."""
    return list(_ALL)


def make_widget_type(
    name: str,
    base: WidgetType,
    cost: QuadraticCost | None = None,
) -> WidgetType:
    """Derive a customised widget type (e.g. with personalised cost
    coefficients, Section 4.3 footnote) from a library type.

    Raises:
        WidgetError: for a blank name.
    """
    if not name:
        raise WidgetError("widget type needs a name")
    return WidgetType(
        name=name,
        rule=base.rule,
        cost=cost or base.cost,
        extrapolates=base.extrapolates,
        unbounded=base.unbounded,
        accepts_kinds=base.accepts_kinds,
        html_tag=base.html_tag,
    )
