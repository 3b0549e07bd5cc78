"""Facade-level property tests: random CDSS lifecycles stay consistent.

These drive the public API the way a downstream user would — peers,
mappings with existentials, trust conditions, interleaved edit batches —
and check the global invariants after every exchange:

* the database equals a fresh recomputation from the edbs (Def. 3.1);
* incremental maintenance and recomputation land on identical states;
* certain answers never contain labeled nulls;
* every output tuple is derivable per the goal-directed test, and every
  trusted non-rejected derivable tuple is present (soundness/completeness
  of the maintained state w.r.t. the stored provenance).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CDSS
from repro.core import STRATEGIES, STRATEGY_UNIFIED
from repro.core.derivation import DerivationTest
from repro.datalog.ast import tuple_has_labeled_null


def build_cdss(strategy, trust_threshold=None):
    cdss = CDSS(strategy=strategy)
    cdss.add_peer("P1", {"A": ("k", "v")})
    cdss.add_peer("P2", {"B2": ("k", "v")})
    cdss.add_peer("P3", {"C": ("k",)})
    cdss.add_mapping("mab", "A(k, v) -> B2(k, v)")
    cdss.add_mapping("mbc", "B2(k, v) -> C(k)")
    cdss.add_mapping("mca", "C(k) -> exists v . A(k, v)")  # cycle + nulls
    if trust_threshold is not None:
        cdss.peer("P2").trust().condition(
            "mab", lambda row: row[0] < trust_threshold,
            description="threshold",
        )
    return cdss


@st.composite
def lifecycle(draw):
    batches = []
    for _ in range(draw(st.integers(1, 3))):
        inserts = draw(
            st.sets(
                st.tuples(st.integers(0, 9), st.integers(0, 3)), max_size=5
            )
        )
        deletes = draw(st.sets(st.integers(0, 9), max_size=3))
        rejections = draw(st.sets(st.integers(0, 9), max_size=2))
        batches.append((inserts, deletes, rejections))
    threshold = draw(st.one_of(st.none(), st.integers(2, 8)))
    return batches, threshold


def apply_batch(cdss, batch):
    inserts, deletes, rejections = batch
    for key, value in inserts:
        cdss.peer("P1").insert("A", (key, value))
    for key in deletes:
        # Delete whatever A currently holds under this key (if anything).
        for row in [r for r in cdss.relation("A").to_rows() if r[0] == key]:
            if not tuple_has_labeled_null(row):
                cdss.peer("P1").delete("A", row)
    for key in rejections:
        cdss.peer("P3").delete("C", (key,))
    cdss.update_exchange()


@settings(max_examples=25, deadline=None)
@given(data=lifecycle())
def test_property_incremental_lifecycle_consistent(data):
    batches, threshold = data
    cdss = build_cdss(STRATEGY_UNIFIED, threshold)
    for batch in batches:
        apply_batch(cdss, batch)
    assert cdss.system().is_consistent()


@settings(max_examples=15, deadline=None)
@given(data=lifecycle())
def test_property_strategies_agree_via_facade(data):
    batches, threshold = data
    snapshots = []
    for strategy in STRATEGIES:
        cdss = build_cdss(strategy, threshold)
        for batch in batches:
            apply_batch(cdss, batch)
        snapshots.append(cdss.system().db.snapshot())
    assert snapshots[0] == snapshots[1]


@settings(max_examples=20, deadline=None)
@given(data=lifecycle())
def test_property_certain_answers_never_contain_nulls(data):
    batches, threshold = data
    cdss = build_cdss(STRATEGY_UNIFIED, threshold)
    for batch in batches:
        apply_batch(cdss, batch)
    for relation in ("A", "B2", "C"):
        for row in cdss.relation(relation).certain():
            assert not tuple_has_labeled_null(row)
    answers = cdss.query("ans(k) :- A(k, v)")
    assert all(not tuple_has_labeled_null(row) for row in answers)


@settings(max_examples=15, deadline=None)
@given(data=lifecycle())
def test_property_outputs_match_derivability(data):
    """Soundness and completeness of the maintained output tables against
    the goal-directed derivability semantics."""
    batches, threshold = data
    cdss = build_cdss(STRATEGY_UNIFIED, threshold)
    for batch in batches:
        apply_batch(cdss, batch)
    system = cdss.system()
    tester = DerivationTest(system.db, system.encoding, system.head_filters)
    for relation in ("A", "B2", "C"):
        rows = system.instance(relation)
        if rows:
            checks = [(relation, row) for row in rows]
            verdicts = tester.derivable(checks)
            for node, verdict in verdicts.items():
                assert verdict.output, f"{node} in output but not derivable"
        # Completeness: trusted, non-rejected input tuples are in output.
        for row in system.trusted_instance(relation):
            if row not in system.rejections(relation):
                assert row in system.instance(relation)
