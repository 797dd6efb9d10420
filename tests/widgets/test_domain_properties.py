"""Property tests for delta-maintained widget domains.

``WidgetDomain.extended`` is how the mapper grows a partition's domain by
only the new diffs' entries.  It must be indistinguishable from building
the domain afresh over every entry: same entries in the same order, same
summary, same verdict and cost under every library rule.  The summary
itself is checked against a naive rescan of the entries.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqlparser import Node
from repro.sqlparser.grammar import SQL_ANNOTATIONS
from repro.widgets import WidgetDomain, default_library


def num(value):
    return Node("NumExpr", {"value": value})


def col(name):
    return Node("ColExpr", {"name": name})


_NUMS = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([0.5, -1.25, 2.0, 0.0, -0.0]),
).map(num)
_STRS = st.one_of(
    st.sampled_from(["a", "b", "c"]).map(col),
    st.sampled_from(["x", "y"]).map(lambda v: Node("StrExpr", {"value": v})),
)
_BETWEENS = st.builds(
    lambda target, low, high, hex_bound: Node(
        "BetweenExpr",
        {},
        [
            col(target),
            num(low),
            Node("HexExpr", {"value": high, "text": hex(high)})
            if hex_bound
            else num(high),
        ],
    ),
    st.sampled_from(["ra", "ra", "dec"]),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=3, max_value=9),
    st.booleans(),
)
_COLLECTIONS = st.builds(
    lambda node_type, names: Node(node_type, {}, [col(n) for n in names]),
    st.sampled_from(["Project", "Project", "GroupBy"]),
    st.sampled_from([["a", "b"], ["b", "a"], ["a", "b"], ["a", "a"], ["a"]]),
)
ENTRIES = st.one_of(
    st.none(), _NUMS, _STRS, _BETWEENS, _COLLECTIONS, st.just(Node("Star"))
)


@st.composite
def chunked_entries(draw):
    """Entries drawn from one sub-population (so the summary flags stay
    interesting) or all of them, cut into random consecutive chunks."""
    pool = draw(
        st.sampled_from(
            [
                ENTRIES,
                st.one_of(st.none(), _NUMS),
                _BETWEENS,
                _COLLECTIONS,
                st.one_of(_NUMS, _STRS),
            ]
        )
    )
    entries = draw(st.lists(pool, max_size=14))
    cuts = sorted(
        draw(st.lists(st.integers(0, len(entries)), max_size=4))
    )
    chunks = []
    start = 0
    for cut in cuts + [len(entries)]:
        chunks.append(entries[start:cut])
        start = cut
    return entries, chunks


def observed(domain):
    """Everything a consumer of a domain can read from it."""
    between = domain.between_range()
    library = default_library()
    return {
        "entries": [id(entry) for entry in domain.entries()],
        "size": domain.size,
        "len": len(domain),
        "includes_none": domain.includes_none,
        "n_subtrees": domain.n_subtrees,
        "is_numeric": domain.is_numeric,
        "is_literal": domain.is_literal,
        "is_range_track": domain.is_range_track,
        "is_reordering": domain.is_reordering,
        "node_types": domain.node_types,
        # repr tells -0.0 from 0.0: the ends a stable sort would keep
        "numeric_range": repr(domain.numeric_range),
        "between_range": (
            None if between is None else (id(between[0]),) + between[1:]
        ),
        "rules": [wt.accepts(domain) for wt in library],
        "costs": [wt.cost_for(domain) for wt in library],
    }


def rescanned(domain):
    """The summary recomputed by scanning every entry."""
    kind_of = SQL_ANNOTATIONS.kind_of
    value_of = SQL_ANNOTATIONS.numeric_value
    subtrees = list(domain.subtrees())
    numeric = bool(subtrees) and all(kind_of(n) == "num" for n in subtrees)
    values = sorted(value_of(n) for n in subtrees) if numeric else []
    first = subtrees[0] if subtrees else None

    def on_track(node, bound_ok):
        return (
            node.node_type == "BetweenExpr"
            and len(node.children) == 3
            and node.children[0].equals(first.children[0])
            and bound_ok(node.children[1])
            and bound_ok(node.children[2])
        )

    def children_of(node):
        return sorted(child.fingerprint for child in node.children)

    between = bool(subtrees) and not domain.includes_none and all(
        on_track(n, lambda b: kind_of(b) == "num") for n in subtrees
    )
    return {
        "n_subtrees": len(subtrees),
        "is_numeric": numeric,
        "is_literal": all(kind_of(n) != "tree" for n in subtrees),
        "is_range_track": all(
            on_track(n, lambda b: b.node_type in ("NumExpr", "HexExpr"))
            for n in subtrees
        ),
        "is_reordering": all(
            n.node_type == first.node_type
            and len(n.children) >= 2
            and children_of(n) == children_of(first)
            for n in subtrees
        ),
        "node_types": frozenset(n.node_type for n in subtrees),
        "numeric_range": repr((values[0], values[-1]) if numeric else None),
        "between_range": (
            (
                id(first.children[0]),
                min(value_of(n.children[1]) for n in subtrees),
                max(value_of(n.children[2]) for n in subtrees),
            )
            if between
            else None
        ),
    }


@settings(max_examples=300, deadline=None)
@given(chunked_entries())
def test_extended_chain_equals_fresh_domain(case):
    entries, chunks = case
    fresh = WidgetDomain(entries)
    chained = WidgetDomain(chunks[0])
    for chunk in chunks[1:]:
        before = observed(chained)
        grown = chained.extended(chunk)
        # extension never mutates the domain it starts from
        assert observed(chained) == before
        chained = grown
    assert observed(chained) == observed(fresh)
    expected = rescanned(fresh)
    assert {key: observed(fresh)[key] for key in expected} == expected


def test_merged_with_is_the_union_in_order():
    left = WidgetDomain([num(1), None])
    right = WidgetDomain([num(2), num(1)])
    merged = left.merged_with(right)
    assert [e.attributes["value"] if e else None for e in merged] == [1, None, 2]
    assert left.size == 2 and right.size == 2
