"""Widget types and widget instances (Section 4.3).

A widget type ``WT = (r_WT, c_WT)`` couples a *rule* — a predicate deciding
whether a domain is acceptable for this kind of widget — with a *cost
function* estimating interaction time as a function of domain size.

A widget ``w`` instantiates a widget type at a specific AST path with a
specific domain.  A widget *expresses* a diff ``d`` when their paths match
and the target subtree is in the widget's domain; widget types that
extrapolate (sliders) or are unbounded (textboxes) express more than the
subtrees they were initialised with — that is the source of interface
generalisation measured in Section 7.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import WidgetError
from repro.paths import Path
from repro.sqlparser.astnodes import Node
from repro.sqlparser.grammar import SQL_ANNOTATIONS
from repro.treediff.diff import Diff
from repro.widgets.cost import QuadraticCost
from repro.widgets.domain import WidgetDomain

__all__ = ["WidgetType", "Widget"]


@dataclass(frozen=True)
class WidgetType:
    """A kind of interactive widget.

    Attributes:
        name: identifier, e.g. ``"dropdown"``.
        rule: the constraint rule ``r_WT(w.d)``; True when the domain can be
            handled by this widget type.
        cost: the cost function ``c_WT(w.d)`` over domain size.
        extrapolates: True when the widget can express values beyond its
            initialising subtrees by interpolation (numeric sliders).
        unbounded: True when the widget can express *any* value of its
            accepted kinds regardless of the domain (textboxes).
        accepts_kinds: value kinds this widget accepts when unbounded
            membership is tested ("num"/"str").
        html_tag: hint for the HTML compiler.
    """

    name: str
    rule: Callable[[WidgetDomain], bool]
    cost: QuadraticCost
    extrapolates: bool = False
    unbounded: bool = False
    accepts_kinds: frozenset[str] = frozenset({"num", "str"})
    html_tag: str = "select"

    def accepts(self, domain: WidgetDomain) -> bool:
        """Evaluate the rule on a candidate domain."""
        return self.rule(domain)

    def cost_for(self, domain: WidgetDomain) -> float:
        return self.cost(domain.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WidgetType({self.name})"


@dataclass
class Widget:
    """An instantiated widget: a type bound to a path and a domain.

    Attributes:
        widget_type: the instantiated :class:`WidgetType`.
        path: the AST path this widget modifies (``w.p``).
        domain: the allowable subtrees (``w.d``).
        D: the subset of the diffs table that initialised the widget
           (``w.D``); retained because the merge step (Algorithm 3) reasons
           about the queries incident to these diffs.
        label: optional human-readable label set by the interface editor.
    """

    widget_type: WidgetType
    path: Path
    domain: WidgetDomain
    D: list[Diff] = field(default_factory=list)
    label: str | None = None

    def __post_init__(self) -> None:
        if not self.widget_type.accepts(self.domain):
            raise WidgetError(
                f"domain violates rule of widget type {self.widget_type.name}"
            )
        for diff in self.D:
            if diff.path != self.path:
                raise WidgetError(
                    "all diffs initialising a widget must share its path "
                    f"({diff.path} != {self.path})"
                )

    @classmethod
    def unchecked(
        cls,
        widget_type: WidgetType,
        path: Path,
        domain: WidgetDomain,
        D: list[Diff],
    ) -> "Widget":
        """Build a widget without re-running the checks of ``Widget(...)``.

        For callers that already hold both proofs: ``widget_type`` accepts
        ``domain`` (its rule was just evaluated to pick it) and every diff
        in ``D`` lies at ``path`` (``D`` is one path partition, or a subset
        of one).  The mapper builds widgets this way, skipping an
        O(``|D|``) path re-check per widget; untrusted input goes through
        the validating constructor.
        """
        widget = cls.__new__(cls)
        widget.widget_type = widget_type
        widget.path = path
        widget.domain = domain
        widget.D = D
        widget.label = None
        return widget

    # ------------------------------------------------------------------
    # cost & expressiveness
    # ------------------------------------------------------------------
    @property
    def cost(self) -> float:
        """``c_WT(w.d)`` for this widget's domain."""
        return self.widget_type.cost_for(self.domain)

    def can_express_subtree(self, subtree: Node | None) -> bool:
        """Can this widget produce ``subtree`` at its path?

        ``None`` means "remove the element", allowed when the domain
        includes None.  Unbounded widgets accept any literal of their
        kinds; extrapolating widgets accept any numeric value within the
        domain's range.
        """
        if subtree is None:
            return self.domain.includes_none
        if self.widget_type.unbounded:
            kind = SQL_ANNOTATIONS.kind_of(subtree)
            if kind in self.widget_type.accepts_kinds:
                return True
            # numerics can be cast to strings (Section 4.3)
            if kind == "num" and "str" in self.widget_type.accepts_kinds:
                return True
        if self.domain.contains(subtree, extrapolate=self.widget_type.extrapolates):
            return True
        # extrapolated range slider over BETWEEN expressions
        if self.widget_type.extrapolates and self.domain.contains_between(subtree):
            return True
        return False

    def expresses(self, diff: Diff) -> bool:
        """Paper's definition: ``w`` expresses ``d`` iff ``w.p = d.p`` and
        the target subtree is within the widget's domain."""
        if diff.path != self.path:
            return False
        return self.can_express_subtree(diff.t2)

    def describe(self) -> str:
        """One-line summary used in reports and generated interfaces."""
        label = self.label or f"{self.widget_type.name}@{self.path}"
        options = []
        for entry in list(self.domain.entries())[:5]:
            options.append("(none)" if entry is None else entry.label())
        extra = ", ..." if self.domain.size > 5 else ""
        return f"{label}: [{', '.join(options)}{extra}]"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Widget({self.widget_type.name}@{self.path}, "
            f"|d|={self.domain.size}, cost={self.cost:.0f})"
        )
