"""Shared head evaluation: twin rules (the same body and head terms) in
non-recursive components run one plan per Δ occurrence, and each member
applies only its own head filter."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exchange import ExchangeSystem
from repro.datalog import NaiveEngine, SemiNaiveEngine, parse_rule, stratify
from repro.datalog.ast import Program
from repro.datalog.stratify import twin_groups
from repro.provenance import TrustCondition, TrustPolicy
from repro.schema import InternalSchema, PeerSchema, RelationSchema, SchemaMapping
from repro.storage import Database


def existential_chain() -> ExchangeSystem:
    """P1.R -> P2.S -> P3.T, each hop inventing a labeled null; P3 trusts
    ``m2`` only for even keys."""
    internal = InternalSchema(
        (
            PeerSchema("P1", (RelationSchema("R", ("a", "b")),)),
            PeerSchema("P2", (RelationSchema("S", ("a", "c")),)),
            PeerSchema("P3", (RelationSchema("T", ("a", "d")),)),
        ),
        (
            SchemaMapping.parse("m1", "R(x, y) -> S(x, z)"),
            SchemaMapping.parse("m2", "S(x, z) -> T(x, w)"),
        ),
    )
    policy = TrustPolicy("P3")
    policy.set_mapping_condition(
        "m2", TrustCondition("even", lambda row: row[0] % 2 == 0)
    )
    return ExchangeSystem(internal, policies={"P3": policy})


class TestProjTrustPairs:
    def setup_method(self):
        self.system = existential_chain()
        self.program = self.system.program
        components = stratify(self.program).components
        assert not any(component.recursive for component in components)
        self.twins = twin_groups(components)
        # Exactly the two heads' proj/trust pairs.
        leaders = {id(leader) for leader in self.twins.values()}
        assert len(leaders) == 2 and len(self.twins) == 4
        labels = {
            rule.label.split(":")[0]
            for rule in self.program
            if id(rule) in self.twins
        }
        assert labels == {"proj", "trust"}
        self.engine = SemiNaiveEngine(head_filters=self.system.head_filters)

    def assert_pairs_consistent(self):
        db = self.system.db
        for relation in ("S", "T"):
            proj, trust = db[f"{relation}__i"], db[f"{relation}__t"]
            assert trust.rows() <= proj.rows()
            # The trusted rows are the very tuples (and labeled nulls)
            # stored for the input table.
            proj_ids = {id(row) for row in proj}
            assert all(id(row) in proj_ids for row in trust)
        rejected = db["T__i"].rows() - db["T__t"].rows()
        assert rejected and all(row[0] % 2 for row in rejected)
        assert all(row[0] % 2 == 0 for row in db["T__t"])

    def test_full_run_evaluates_each_pair_once(self):
        self.system.db["R__l"].insert_many((i, i + 10) for i in range(6))
        result = self.engine.run(self.program, self.system.db)
        # A naive pass evaluates every rule once; each pair shares one.
        assert result.rule_applications == len(self.program) - 2
        self.assert_pairs_consistent()

    def test_insertions_evaluate_each_pair_once_per_delta(self):
        db = self.system.db
        db["R__l"].insert_many((i, i + 10) for i in range(6))
        self.engine.run(self.program, db)
        seed = db["R__l"].insert_new((i, i + 10) for i in range(6, 12))
        derived = self.engine.run_insertions(self.program, db, {"R__l": seed})
        delta_predicates = {"R__l", *derived}
        occurrences = [
            (rule, index)
            for rule in self.program
            for index, atom in enumerate(rule.body)
            if not atom.negated and atom.predicate in delta_predicates
        ]
        shared = [
            (rule, index)
            for rule, index in occurrences
            if self.twins.get(id(rule), rule) is not rule
        ]
        # Each pair's body is one provenance atom: one Δ occurrence apiece.
        assert len(shared) == 2
        result = self.engine.last_result
        assert result.rule_applications == len(occurrences) - len(shared)
        self.assert_pairs_consistent()


_FILTERS = {
    "even": lambda row: row[0] % 2 == 0,
    "not-one": lambda row: row[-1] != 1,
    "small": lambda row: row[0] < 4,
}


@st.composite
def twin_programs(draw):
    """Random programs built from twin rules: one body and head terms under
    two or three heads (different predicates, or the same predicate under
    another label), Skolem heads, bodies negating ``W``, and a recursive
    component holding twins of its own.  Returns ``(full, insert,
    filters)``: ``full`` adds a rule negating a predicate derived from
    ``E``, which only full evaluation may run."""
    texts = ["W(x) :- V(x), not Z(x)"]
    previous = "E"
    for number in range(draw(st.integers(1, 3))):
        body = f"{previous}(x, y)"
        if draw(st.booleans()):
            body += ", not W(y)"
        if draw(st.booleans()):
            body += ", E(y, z)"
            value = "z"
        else:
            value = "y"
        if draw(st.booleans()):
            value = f"f{number}({value})"
        heads = [f"A{number}", f"B{number}"]
        if draw(st.booleans()):
            heads.append(f"A{number}")
        texts += [f"{head}(x, {value}) :- {body}" for head in heads]
        previous = draw(st.sampled_from(heads))
    top = previous
    if draw(st.booleans()):
        # T and U are one recursive component whose last two rules are
        # twins; it must not share.  V1/V2 are twins reading it from above.
        texts += [
            f"T(x, y) :- {previous}(x, y)",
            "T(x, y) :- U(x, y)",
            "T(x, z) :- T(x, y), E(y, z)",
            "U(x, z) :- T(x, y), E(y, z)",
            "V1(x, y) :- T(x, y), not W(x)",
            "V2(x, y) :- T(x, y), not W(x)",
        ]
        top = "T"
    texts.append(f"D(x, y) :- {top}(x, y), not W(x)")
    chosen = draw(
        st.lists(
            st.sampled_from([None, *_FILTERS]),
            min_size=len(texts),
            max_size=len(texts),
        )
    )
    insert = Program(
        tuple(parse_rule(text, label=f"r{i}") for i, text in enumerate(texts))
    )
    full = Program(
        insert.rules + (parse_rule(f"Safe(x) :- V(x), not {top}(x, x)"),)
    )
    filters = {
        f"r{i}": _FILTERS[name]
        for i, name in enumerate(chosen)
        if name is not None
    }
    return full, insert, filters


@st.composite
def random_edges(draw):
    n = draw(st.integers(2, 6))
    return draw(
        st.sets(st.tuples(st.integers(0, n), st.integers(0, n)), max_size=18)
    )


@settings(max_examples=60, deadline=None)
@given(
    programs=twin_programs(),
    edges=random_edges(),
    extra=random_edges(),
    excluded=st.sets(st.integers(0, 6), max_size=3),
)
def test_property_twins_agree_with_naive(programs, edges, extra, excluded):
    """Shared head evaluation reaches the naive fixpoint, head filters
    included, for both ``run`` and ``run_insertions``."""
    full, insert, filters = programs
    assert twin_groups(stratify(full).components)
    nodes = {x for e in edges | extra for x in e} | excluded

    def fresh_db(edge_rows):
        db = Database()
        db.create("E", 2, edge_rows)
        db.create("V", 1, [(x,) for x in nodes])
        db.create("Z", 1, [(x,) for x in excluded])
        return db

    def naive(program, edge_rows):
        db = fresh_db(edge_rows)
        NaiveEngine(head_filters=filters).run(program, db)
        return db

    def idb(db, program):
        return {pred: db[pred].rows() for pred in program.idb_predicates()}

    engine = SemiNaiveEngine(head_filters=filters)
    db = fresh_db(edges)
    engine.run(full, db)
    assert idb(db, full) == idb(naive(full, edges), full)

    db = fresh_db(edges)
    engine.run(insert, db)
    new_edges = db["E"].insert_new(extra)
    engine.run_insertions(insert, db, {"E": new_edges})
    assert idb(db, insert) == idb(naive(insert, edges | extra), insert)
