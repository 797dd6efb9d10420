"""Parity suite: the partition-scoped incremental merge must be
result-equivalent to the global fixed point on every bundled log family
(acceptance criterion of the incremental-generation refactor).

Two layers are exercised:

* mapper level — ``initialize_indexed`` + ``merge_widgets_incremental``
  driven through a growing graph equals ``initialize`` +
  ``merge_widgets`` from scratch at every step;
* session level — ``InterfaceSession.append()`` equals one-shot
  ``generate()`` over the concatenated log, both in widget set and in
  closure membership over a recall suite of seen and held-out queries.
"""

import pytest

from repro.api import InterfaceSession, generate
from repro.core.mapper import (
    MapCache,
    initialize,
    initialize_indexed,
    merge_widgets,
    merge_widgets_incremental,
)
from repro.core.options import PipelineOptions
from repro.graph.build import build_interaction_graph, extend_interaction_graph
from repro.logs import AdhocLogGenerator, OLAPLogGenerator, SDSSLogGenerator
from repro.logs.sessions import segment_asts
from repro.sqlparser import parse_sql
from repro.widgets import WidgetDomain


def _family_log(family: str) -> list:
    if family == "sdss":
        return SDSSLogGenerator(seed=0).client_log("C1", "object_lookup", 80).asts()
    if family == "olap":
        return OLAPLogGenerator(seed=1).generate(80).asts()
    if family == "adhoc":
        return AdhocLogGenerator(seed=2).student_log("S1", 70).asts()
    if family == "sessions":
        # the interleaved multi-analysis log the sessions module segments;
        # exercise the segmentation layer, then mine the largest analysis
        mixed = SDSSLogGenerator(seed=3).interleaved(3, 25).asts()
        return max(segment_asts(mixed, 0.3, 0.3), key=len)
    if family == "onehot":
        # adversarial one-hot-component workload: the warm-up carves one
        # big component (a structurally divergent query plants a
        # root-path widget) with a nested function subtree inside it,
        # then every subsequent query re-issues a single template varying
        # one literal — every new diff lands in that component's hot
        # spine while the nested ``f(y, _)`` subtree stays clean, which
        # is exactly the case the dirty-window merge memo must exploit
        warmup = (
            ["SELECT g, SUM(m) FROM t GROUP BY g"]
            + [
                f"SELECT a, b FROM t WHERE x = 0 AND f(y, {j}) = 5"
                for j in range(5)
            ]
            + [
                "SELECT a, b FROM t WHERE x = 0 AND z = 5",
                "SELECT a, b FROM t WHERE x = 0 AND f(y, 2) = 5",
            ]
        )
        hot = [
            f"SELECT a, b FROM t WHERE x = {value} AND f(y, 3) = 5"
            for value in range(40)
        ]
        return [parse_sql(s) for s in warmup + hot]
    raise AssertionError(family)


FAMILIES = ["sdss", "olap", "adhoc", "sessions"]
ALL_FAMILIES = [*FAMILIES, "onehot"]


def summary(widgets):
    return [(w.widget_type.name, str(w.path), w.domain.size) for w in widgets]


def domains(widgets):
    """Each widget's domain entries in order and its diff pairs: the
    delta-maintained domains must match a fresh build exactly."""
    return [
        (
            [None if e is None else e.fingerprint for e in w.domain.entries()],
            [(d.q1, d.q2) for d in w.D],
        )
        for w in widgets
    ]


class TestMapperParity:
    # window 4 inserts new diffs inside partitions (full domain rebuilds);
    # window 2 only appends at partition tails (domain extension)
    @pytest.mark.parametrize(
        "family, window",
        [(f, 4) for f in ALL_FAMILIES] + [(f, 2) for f in ALL_FAMILIES],
        ids=ALL_FAMILIES + [f"{f}-window2" for f in ALL_FAMILIES],
    )
    def test_incremental_equals_global_at_every_append(self, family, window):
        asts = _family_log(family)
        options = PipelineOptions(window=window)
        cache = MapCache()
        graph = build_interaction_graph(asts[: len(asts) // 2], window=window)
        cache.index.update(graph.diffs)
        step = max(1, len(asts) // 10)
        checkpoints = list(range(len(asts) // 2, len(asts), step))
        for start in checkpoints:
            extend_interaction_graph(
                graph, asts[start : start + step], window=window
            )
            cache.index.update(graph.diffs)
            widgets, _, _ = initialize_indexed(
                cache, options.library, options.annotations
            )
            merged, _, _ = merge_widgets_incremental(
                widgets, options.library, options.annotations, cache
            )
            # reference: full build of the same accumulated log
            reference_diffs = sorted(graph.diffs, key=lambda d: (d.q1, d.q2))
            reference = merge_widgets(
                initialize(reference_diffs, options.library, options.annotations),
                options.library,
                options.annotations,
                leaf_diffs=[d for d in reference_diffs if d.is_leaf],
            )
            assert summary(merged) == summary(reference)
            assert domains(merged) == domains(reference)

    def test_clean_components_are_reused(self):
        """The dirty-set worklist must actually shrink work: on a log with
        several independent merge components, appends that touch a subset
        leave the rest memoised."""
        asts = AdhocLogGenerator(seed=2).student_log("S1", 120).asts()
        options = PipelineOptions()
        session_cache = MapCache()
        graph = build_interaction_graph(asts[:100], window=2)
        session_cache.index.update(graph.diffs)
        widgets, _, _ = initialize_indexed(
            session_cache, options.library, options.annotations
        )
        merge_widgets_incremental(
            widgets, options.library, options.annotations, session_cache
        )
        reused_total = 0
        for start in range(100, 120, 4):
            extend_interaction_graph(graph, asts[start : start + 4], window=2)
            session_cache.index.update(graph.diffs)
            widgets, n_reused_paths, _ = initialize_indexed(
                session_cache, options.library, options.annotations
            )
            _, n_reused, n_merged = merge_widgets_incremental(
                widgets, options.library, options.annotations, session_cache
            )
            assert n_reused + n_merged >= 1
            assert n_reused_paths > 0  # untouched partitions reuse widgets
            reused_total += n_reused
        assert reused_total > 0  # some components replayed their memo


class TestSessionParity:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_session_appends_equal_one_shot(self, family):
        asts = _family_log(family)
        session = InterfaceSession()
        step = max(1, len(asts) // 6)
        result = None
        for start in range(0, len(asts), step):
            result = session.append(asts[start : start + step])
        full = generate(asts)
        assert (
            result.interface.widget_summary() == full.interface.widget_summary()
        )
        assert result.interface.cost == pytest.approx(full.interface.cost)
        # pair-set identity: the session aligned exactly the pairs one
        # full build over the concatenated log would have
        assert session.n_pairs_compared == full.run.n_pairs_compared

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_closure_membership_parity_on_recall_suite(self, family):
        """Same widget set must mean same closure: membership verdicts for
        seen queries and structurally-near held-out queries agree between
        the incremental and the one-shot interface."""
        asts = _family_log(family)
        split = (len(asts) * 3) // 4
        session = InterfaceSession()
        step = max(1, split // 4)
        for start in range(0, split, step):
            session.append(asts[start : start + step])
        full = generate(asts[:split])
        suite = asts[:split][:10] + asts[split:][:10]
        incremental_verdicts = [session.expresses(q) for q in suite]
        one_shot_verdicts = [full.interface.expresses(q) for q in suite]
        assert incremental_verdicts == one_shot_verdicts
        # every seen query is expressible (the paper's g = 1 guarantee)
        assert all(incremental_verdicts[: len(asts[:split][:10])])

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_widget_and_closure_parity_at_every_append(self, family):
        """Strong form of the parity guarantee: not just the final state —
        after *every* append the session's widget set and its closure
        verdicts over the queries seen so far match a one-shot build of
        the same prefix byte for byte."""
        asts = _family_log(family)
        session = InterfaceSession()
        step = max(1, len(asts) // 5)
        for start in range(0, len(asts), step):
            result = session.append(asts[start : start + step])
            prefix = asts[: start + step]
            full = generate(prefix)
            assert (
                result.interface.widget_summary()
                == full.interface.widget_summary()
            )
            suite = prefix[:8]
            assert [session.expresses(q) for q in suite] == [
                full.interface.expresses(q) for q in suite
            ]

    def test_merge_stage_reports_component_counters(self):
        asts = _family_log("adhoc")
        session = InterfaceSession()
        session.append(asts[:50])
        second = session.append(asts[50:])
        stats = second.run.stage("merge").stats
        assert stats["n_components"] >= 1
        assert (
            stats["n_components_reused"] + stats["n_components_merged"]
            == stats["n_components"]
        )


class TestWindowReuse:
    def test_onehot_appends_replay_clean_sibling_windows(self):
        """The point of the interval index: on the one-hot workload the
        hot component is dirty at every append, but the clean nested
        subtree inside it replays memoised merge steps instead of
        re-merging — the fixed point narrows to the dirty spine."""
        asts = _family_log("onehot")
        session = InterfaceSession()
        session.append(asts[:14])
        for start in range(14, len(asts), 5):
            result = session.append(asts[start : start + 5])
            stats = result.run.stage("merge").stats
            # every steady-state append replays at least one clean window
            assert stats["n_windows_reused"] > 0
        assert session.n_windows_reused > 0
        # the cumulative session counters aggregate the per-append stats
        assert session.n_windows_merged > 0

    def test_onehot_leaves_cold_components_memoised(self):
        """A multi-component variant: the projection-slot and the
        f-subtree-replacement components stay cold under one-hot appends,
        so the component memo replays them wholesale while only the hot
        literal's component re-merges."""
        statements = (
            [
                f"SELECT a, b FROM t WHERE x = 0 AND f(y, {j}) = 5"
                for j in range(5)
            ]
            + [
                "SELECT a, b FROM t WHERE x = 0 AND z = 5",
                "SELECT a, b FROM t WHERE x = 0 AND f(y, 2) = 5",
                "SELECT c, b FROM t WHERE x = 0 AND f(y, 2) = 5",
                "SELECT d, b FROM t WHERE x = 0 AND f(y, 2) = 5",
                "SELECT a, b FROM t WHERE x = 0 AND f(y, 2) = 5",
            ]
            + [
                f"SELECT a, b FROM t WHERE x = {value} AND f(y, 2) = 5"
                for value in range(30)
            ]
        )
        asts = [parse_sql(s) for s in statements]
        session = InterfaceSession()
        session.append(asts[:14])
        reused = 0
        for start in range(14, len(asts), 5):
            result = session.append(asts[start : start + 5])
            stats = result.run.stage("merge").stats
            reused += stats["n_components_reused"]
        assert reused > 0


def _steady_state(asts, preload, window=2):
    """A mapper-level session: the graph, its MapCache, and an ``append``
    that extends the graph and re-runs Initialize + Merge the way
    :class:`InterfaceSession` does."""
    options = PipelineOptions(window=window)
    cache = MapCache()
    graph = build_interaction_graph(asts[:preload], window=window)

    def append(batch):
        if batch:
            extend_interaction_graph(graph, batch, window=window)
        cache.index.update(graph.diffs)
        widgets, _, _ = initialize_indexed(
            cache, options.library, options.annotations
        )
        return merge_widgets_incremental(
            widgets, options.library, options.annotations, cache
        )[0]

    append([])
    return graph, cache, append


class TestSteadyStateCost:
    def test_domain_scans_do_not_grow_with_the_log(self, monkeypatch):
        """O(batch) without a clock: the entries domain construction
        scans per four-query SDSS append (window 2) are the same at 1k
        and at 2k queries, and bounded by the batch's new diffs — the
        partitions' domains are extended, not rebuilt."""
        scanned = [0]
        absorb = WidgetDomain._absorb

        def counting(self, entries):
            entries = list(entries)
            scanned[-1] += len(entries)
            return absorb(self, entries)

        monkeypatch.setattr(WidgetDomain, "_absorb", counting)
        asts = SDSSLogGenerator(seed=0).client_log(
            "C1", "object_lookup", 2020
        ).asts()
        graph, _cache, append = _steady_state(asts, 1000)

        def probe(start):
            counts = []
            for offset in range(start, start + 20, 4):
                n_diffs = len(graph.diffs)
                scanned.append(0)
                append(asts[offset : offset + 4])
                counts.append(scanned[-1])
                # two entries per new diff for Initialize, two per kept
                # new diff for each merge-step rebuild
                assert scanned[-1] <= 4 * (len(graph.diffs) - n_diffs)
            return counts

        at_1k = probe(1000)
        append(asts[1020:2000])
        at_2k = probe(2000)
        assert max(at_2k) <= max(at_1k)
        assert sum(at_2k) <= sum(at_1k) * 1.5

    def test_merge_memos_stay_bounded(self):
        """Superseded widgets are released: over 200 appends the window
        memo's tokens and steps and the rebuild memo do not grow."""
        asts = SDSSLogGenerator(seed=0).client_log(
            "C1", "object_lookup", 1100
        ).asts()
        _graph, cache, append = _steady_state(asts, 300)
        sizes = []
        for start in range(300, 1100, 4):
            append(asts[start : start + 4])
            windows = cache.window_memo()
            sizes.append(
                (len(windows._tokens), len(windows.steps), len(cache.rebuilds))
            )
        assert len(sizes) == 200
        assert max(sizes) == max(sizes[:10])
        assert max(max(size) for size in sizes) <= 8
