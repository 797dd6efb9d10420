"""Incremental compiler tests: byte-parity with the one-shot compiler,
artifact reuse, the patch wire format, and the persisted page state.

The acceptance bar for the incremental refactor is *byte identity*: at
every append, folding the session's patch stream must render exactly the
page a full ``compile_html`` would produce, on every bundled log family.
"""

from dataclasses import replace
from pathlib import Path as FilePath

import pytest

from tests.core.test_merge_incremental import ALL_FAMILIES, _family_log
from tests.helpers import generate_iface
from repro.api import InterfaceSession
from repro.compiler import Database, Table, compile_html
from repro.compiler.html import _option_label
from repro.compiler.incremental import (
    PATCH_VERSION,
    CompiledPage,
    IncrementalCompiler,
    apply_patch,
    make_patch,
    page_html,
    widget_fingerprint,
)
from repro.errors import CompileError, LogError
from repro.logs import LISTING_6, SDSSLogGenerator
from repro.paths import Path
from repro.sqlparser import Node
from repro.widgets import DROPDOWN, Widget, WidgetDomain

GOLDEN = FilePath(__file__).parent / "golden_listing6.html"


@pytest.fixture
def interface():
    return generate_iface(list(LISTING_6))


# ----------------------------------------------------------------------
# golden page
# ----------------------------------------------------------------------
class TestGoldenPage:
    def test_listing6_page_matches_golden_file(self, interface):
        """The committed golden page pins the full output format — template,
        widget blocks, closure order — so any unintended byte change in
        either compiler path fails loudly.  Regenerate deliberately by
        writing ``compile_html(generate_iface(list(LISTING_6)),
        title="Listing 6")`` over the golden file."""
        page = compile_html(interface, title="Listing 6")
        assert page == GOLDEN.read_text(encoding="utf-8")

    def test_incremental_compiler_matches_golden_file(self, interface):
        compiler = IncrementalCompiler(title="Listing 6")
        page = compiler.compile(interface)
        assert page.html() == GOLDEN.read_text(encoding="utf-8")


# ----------------------------------------------------------------------
# toggle buttons render as real checkboxes (the once-dead branch)
# ----------------------------------------------------------------------
class TestToggleCheckbox:
    def test_toggle_widget_renders_checkbox_control(self, interface):
        # LISTING_6 mines a slider and a presence toggle (Toggle TOP)
        names = [w.widget_type.name for w in interface.widgets]
        assert "toggle_button" in names
        page = compile_html(interface)
        assert 'type="checkbox"' in page
        # the checked state selects the subtree's choice index, recorded
        # in data-on for the page script
        assert 'data-on="' in page

    def test_checkbox_on_index_points_at_the_subtree_choice(self, interface):
        from repro.compiler.html import _checkbox_on_index, build_choice_list

        toggle = next(
            w for w in interface.widgets if w.widget_type.name == "toggle_button"
        )
        choices = build_choice_list(toggle)
        on_index = _checkbox_on_index(toggle, choices)
        assert on_index is not None
        assert choices[on_index] is not None  # a real subtree, not (none)
        assert not isinstance(choices[on_index], str)


# ----------------------------------------------------------------------
# patch-apply parity at every append, all bundled families
# ----------------------------------------------------------------------
class TestPatchParity:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_patch_stream_equals_full_recompile_at_every_append(self, family):
        asts = _family_log(family)
        session = InterfaceSession()
        state = None
        step = max(1, len(asts) // 5)
        for start in range(0, len(asts), step):
            result = session.append(asts[start : start + step])
            patch = session.compile_patch(limit=200)
            state = apply_patch(state, patch)
            assert page_html(state) == compile_html(result.interface, limit=200)

    def test_compile_is_byte_identical_to_compile_html(self):
        asts = _family_log("onehot")
        session = InterfaceSession()
        for start in range(0, len(asts), 12):
            result = session.append(asts[start : start + 12])
            assert session.compile(limit=200) == compile_html(
                result.interface, limit=200
            )

    def test_noop_append_emits_an_empty_patch(self):
        asts = _family_log("onehot")
        session = InterfaceSession()
        session.append(asts[:20])
        session.compile_patch(limit=200)
        # re-compiling the unchanged interface patches nothing
        patch = session.compile_patch(limit=200)
        assert patch["kind"] == "patch"
        assert patch["blocks"] == {}
        assert patch["closure_set"] == {}
        assert patch["closure_del"] == []
        assert session._compiler.stats.pages_reused >= 1


# ----------------------------------------------------------------------
# per-widget artifacts
# ----------------------------------------------------------------------
class TestWidgetArtifacts:
    def test_clean_widget_artifacts_are_byte_stable_across_appends(self):
        """On the one-hot workload the nested f-subtree widgets stay
        clean: their artifacts must be reused (same object, same bytes),
        and only the hot widget re-renders."""
        asts = _family_log("onehot")
        session = InterfaceSession()
        session.append(asts[:14])
        session.compile(limit=200)
        compiler = session._compiler
        snapshot = {
            key: (art.fingerprint, art.kind, art.body)
            for key, art in compiler._artifacts.items()
        }
        rendered_before = compiler.stats.widgets_rendered
        session.append(asts[14:30])
        session.compile(limit=200)
        assert compiler.stats.widgets_reused > 0
        for key, (fingerprint, kind, body) in snapshot.items():
            art = compiler._artifacts[key]
            if art.fingerprint == fingerprint:
                # unchanged content hash => byte-identical rendering
                assert (art.kind, art.body) == (kind, body)
        # not everything re-rendered
        n_rendered = compiler.stats.widgets_rendered - rendered_before
        assert n_rendered < len(compiler._artifacts)

    def test_widget_fingerprint_is_content_addressed(self, interface):
        widgets = list(interface.widgets)
        fps = [widget_fingerprint(w) for w in widgets]
        assert len(set(fps)) == len(fps)
        # deterministic across calls (no process salt)
        assert fps == [widget_fingerprint(w) for w in widgets]

    def test_fingerprint_ignores_the_diff_list(self, interface):
        """The fingerprint covers what the page renders, not the diffs a
        widget was merged from."""
        widget = interface.widgets[0]
        assert widget.D
        trimmed = replace(widget, D=[])
        assert widget_fingerprint(trimmed) == widget_fingerprint(widget)

    def test_equal_labels_on_different_subtrees_get_different_keys(self):
        """Slice keys encode the choice subtree, not its option label:
        NumExpr(1) and NumExpr('1') both render as ``1``."""
        number = Node("NumExpr", {"value": 1})
        text = Node("NumExpr", {"value": "1"})
        assert _option_label(number) == _option_label(text)
        widget = Widget(DROPDOWN, Path.parse("0"), WidgetDomain([number, text]))
        artifact = IncrementalCompiler()._artifact_for(widget)
        assert artifact.choices[1:] == [number, text]
        assert len(set(artifact.choice_keys[1:])) == 2

    def test_integral_float_keys_like_the_equal_int(self):
        """``NumExpr(10.0)`` equals and renders as ``NumExpr(10)`` (a
        store round trip can swap them), so both get the same keys."""
        as_int, as_float = (
            Widget(
                DROPDOWN,
                Path.parse("0"),
                WidgetDomain([Node("NumExpr", {"value": v}), Node("NumExpr", {"value": 2})]),
            )
            for v in (10, 10.0)
        )
        assert widget_fingerprint(as_int) == widget_fingerprint(as_float)

    def test_label_edit_recompiles_the_page(self, interface):
        compiler = IncrementalCompiler(limit=64)
        compiler.compile(interface)
        interface.widgets[0].label = "Renamed control"
        page = compiler.compile(interface)
        assert "Renamed control" in page.html()
        assert page.html() == compile_html(interface, limit=64)


# ----------------------------------------------------------------------
# closure slices and execution, with and without a database
# ----------------------------------------------------------------------
class TestClosureSlices:
    def _database(self):
        db = Database()
        db.add(Table("t", ["a", "b", "x", "y", "z", "g", "m"], [(1, 2, 0, 1, 5, 7, 3)]))
        return db

    def test_parity_with_database(self):
        asts = _family_log("onehot")[:30]
        db = self._database()
        session = InterfaceSession()
        for start in range(0, len(asts), 10):
            result = session.append(asts[start : start + 10])
            incremental = session.compile(database=db, limit=120)
            assert incremental == compile_html(
                result.interface, database=db, limit=120
            )

    def test_clean_combinations_replay_instead_of_executing(self):
        asts = _family_log("onehot")
        db = self._database()
        session = InterfaceSession()
        session.append(asts[:14])
        session.compile(database=db, limit=150)
        compiler = session._compiler
        # the hot appends vary only the x slider beyond its five sampled
        # values: no choice changes, so the page is reused, unexecuted
        session.append(asts[14:24])
        executions_before = compiler.stats.executions
        pages_before = compiler.stats.pages_reused
        session.compile(database=db, limit=150)
        assert compiler.stats.pages_reused == pages_before + 1
        assert compiler.stats.executions == executions_before
        # a new z literal adds a domain entry: only combinations
        # selecting it render, the rest replay their slices
        result = session.append_sql(
            ["SELECT a, b FROM t WHERE x = 0 AND z = 7"]
        )
        executions_before = compiler.stats.executions
        rendered_before = compiler.stats.combos_rendered
        replayed_before = compiler.stats.combos_replayed
        page = session.compile(database=db, limit=150)
        assert page == compile_html(result.interface, database=db, limit=150)
        assert compiler.stats.combos_replayed > replayed_before
        # replayed combinations did not hit the database again
        n_executed = compiler.stats.executions - executions_before
        assert n_executed <= compiler.stats.combos_rendered - rendered_before
        assert n_executed < compiler.stats.combos_rendered

    def test_appends_outside_the_limit_render_no_combination(self):
        """Steady-state SDSS appends grow a textbox's choice list at its
        end, past the first ``limit`` combinations: the artifact extends
        (new options only), every slice replays, none re-renders, and
        the page stays exact."""
        sql = [e.sql for e in SDSSLogGenerator(5).client_log(n=740).entries]
        session = InterfaceSession()
        session.append_sql(sql[:700])
        state = apply_patch(None, session.compile_patch(limit=512))
        compiler = session._compiler
        for start in range(700, 740, 4):
            result = session.append_sql(sql[start : start + 4])
            rendered = compiler.stats.combos_rendered
            widgets = compiler.stats.widgets_rendered
            patch = session.compile_patch(limit=512)
            state = apply_patch(state, patch)
            assert page_html(state) == compile_html(result.interface, limit=512)
            # the precondition: choices only grew at the end, beyond the
            # combinations the page pre-evaluates
            assert compiler.stats.widgets_rendered == widgets
            assert max(len(a.choices) for a in compiler._artifacts.values()) > 512
            assert compiler.stats.combos_rendered == rendered
            assert patch["closure_set"] == {}
        assert compiler.stats.widgets_extended > 0

    def test_slice_cache_holds_only_the_page(self):
        asts = _family_log("olap")
        session = InterfaceSession()
        for start in range(0, len(asts), 4):
            session.append(asts[start : start + 4])
            session.compile_patch(limit=64)
            compiler = session._compiler
            assert len(compiler._slices) <= 64
            assert len(compiler._slices) == len(compiler.page.closure)

    def test_database_switch_recreates_the_compiler(self):
        session = InterfaceSession()
        session.append_sql(list(LISTING_6))
        session.compile(limit=64)
        first = session._compiler
        session.compile(database=self._database(), limit=64)
        assert session._compiler is not first


# ----------------------------------------------------------------------
# patch wire format
# ----------------------------------------------------------------------
class TestPatchWireFormat:
    def _page(self, statements, title="P"):
        compiler = IncrementalCompiler(title=title, limit=64)
        return compiler.compile(generate_iface(statements))

    def test_version_is_stamped_and_checked(self, interface):
        compiler = IncrementalCompiler(limit=64)
        page = compiler.compile(interface)
        state = page.to_state()
        assert state["version"] == PATCH_VERSION
        bad = dict(state, version=PATCH_VERSION + 1)
        with pytest.raises(CompileError, match="version"):
            CompiledPage.from_state(bad)
        with pytest.raises(CompileError, match="version"):
            apply_patch(None, {"version": PATCH_VERSION + 1, "kind": "page"})

    def test_patch_without_base_is_rejected(self, interface):
        page = self._page(list(LISTING_6))
        patch = make_patch(page, page)
        assert patch["kind"] == "patch"
        with pytest.raises(CompileError, match="base"):
            apply_patch(None, patch)

    def test_base_fingerprint_mismatch_is_rejected(self):
        page = self._page(list(LISTING_6))
        patch = make_patch(page, page)
        foreign = dict(page.to_state(), fingerprint="0" * 16)
        with pytest.raises(CompileError, match="mismatch"):
            apply_patch(foreign, patch)

    def test_title_change_forces_a_full_page_patch(self):
        before = self._page(list(LISTING_6), title="A")
        after = self._page(list(LISTING_6), title="B")
        patch = make_patch(before, after)
        assert patch["kind"] == "page"
        assert page_html(apply_patch(None, patch)) == after.html()

    def test_state_round_trips(self, interface):
        compiler = IncrementalCompiler(limit=64)
        page = compiler.compile(interface)
        clone = CompiledPage.from_state(page.to_state())
        assert clone.html() == page.html()
        assert clone.to_state() == page.to_state()


# ----------------------------------------------------------------------
# persisted page state (import_state)
# ----------------------------------------------------------------------
class TestImportState:
    def test_fresh_compiler_replays_adopted_slices(self, interface):
        donor = IncrementalCompiler(limit=64)
        state = donor.compile(interface).to_state()

        fresh = IncrementalCompiler(limit=64)
        adopted = fresh.import_state(state)
        assert adopted == len(state["closure"])
        page = fresh.compile(interface)
        assert page.html() == page_html(state)
        assert fresh.stats.combos_replayed == adopted
        assert fresh.stats.combos_rendered == 0

    def test_negative_choice_index_is_not_adopted(self, interface):
        state = IncrementalCompiler(limit=64).compile(interface).to_state()
        n_widgets = len(state["widget_ids"])
        forged = "|".join(["0"] * (n_widgets - 1) + ["-1"])
        state["closure"] = {forged: {"sql": "forged"}}
        fresh = IncrementalCompiler(limit=64)
        assert fresh.import_state(state) == 0
        assert fresh.compile(interface).html() == compile_html(interface, limit=64)

    def test_foreign_initial_sql_adopts_nothing(self, interface):
        donor = IncrementalCompiler(limit=64)
        state = donor.compile(interface).to_state()
        other = generate_iface(
            ["SELECT a FROM s WHERE b = 1", "SELECT a FROM s WHERE b = 2"]
        )
        fresh = IncrementalCompiler(limit=64)
        fresh.compile(other)  # arms a different initial query
        assert fresh.import_state(state) == 0


# ----------------------------------------------------------------------
# session guards
# ----------------------------------------------------------------------
class TestSessionGuards:
    def test_compile_before_first_append_raises(self):
        session = InterfaceSession()
        with pytest.raises(LogError):
            session.compile()
        with pytest.raises(LogError):
            session.compile_patch()
