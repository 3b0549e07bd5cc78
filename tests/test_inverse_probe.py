"""Oracle tests for the compiled inverse rules (Section 4.1.3).

``ProvenanceTable.supporting_rows`` compiles each mapping head once into
probe columns plus a matcher for constants, repeated variables and Skolem
terms.  The oracle is the forward direction: a provenance row supports a
target row through a head exactly when instantiating the head on it
yields that row.  Every head shape the deletion path can meet is checked,
on hits (every ``R__i`` row) and on crafted misses, under both
provenance encodings.
"""

import pytest

from repro import CDSS
from repro.datalog.ast import SkolemValue
from repro.provenance import ENCODING_COMPOSITE, ENCODING_PER_RULE
from repro.provenance.expression import ProvenanceError
from repro.provenance.relations import _user_relation_of_internal

STYLES = [ENCODING_COMPOSITE, ENCODING_PER_RULE]


def shapes_cdss(style: str) -> CDSS:
    cdss = CDSS("shapes", encoding_style=style)
    cdss.add_peer("P1", {"A": ("k", "v")})
    cdss.add_peer("P2", {"B": ("a", "b", "c")})
    cdss.add_peer("P3", {"R": ("x", "y")})
    cdss.add_peer("P4", {"S": ("k", "n"), "T": ("n", "v")})
    cdss.add_mapping("mconst", "A(k, v) -> B(k, k, 'x')")  # constant + repeat
    cdss.add_mapping("mrep", "A(k, v) -> R(v, v)")  # repeated variable
    # Two RHS atoms share one Skolem term: one composite table, two heads.
    cdss.add_mapping("mnull", "A(k, v) -> exists n . S(k, n), T(n, v)")
    cdss.add_mapping("mother", "R(x, y) -> exists z . S(x, z)")
    with cdss.batch() as tx:
        for k, v in [(1, 2), (2, 2), (3, 1), (4, 4)]:
            tx.insert("A", (k, v))
        tx.insert("B", (7, 8, "x"))  # local only: no mapping derives it
    cdss.update_exchange()
    return cdss


def paper_cdss(style: str) -> CDSS:
    """The running example (Example 9's provenance tables)."""
    cdss = CDSS("paper", encoding_style=style)
    cdss.add_peer("PGUS", {"G": ("id", "can", "nam")})
    cdss.add_peer("PBioSQL", {"B": ("id", "nam")})
    cdss.add_peer("PuBio", {"U": ("nam", "can")})
    cdss.add_mapping("m1", "G(i, c, n) -> B(i, n)")
    cdss.add_mapping("m2", "G(i, c, n) -> U(n, c)")
    cdss.add_mapping("m3", "B(i, n) -> exists c . U(n, c)")
    cdss.add_mapping("m4", "B(i, c), U(n, c) -> B(i, n)")
    with cdss.batch() as tx:
        tx.insert("G", (1, 2, 3))
        tx.insert("G", (3, 5, 2))
        tx.insert("B", (3, 5))
        tx.insert("U", (2, 5))
    cdss.update_exchange()
    return cdss


def oracle(db, table, head, row) -> set:
    return {
        prow
        for prow in db[table.relation]
        if table.head_row(head, prow) == row
    }


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("build", [shapes_cdss, paper_cdss])
def test_every_input_row_matches_the_forward_oracle(build, style):
    system = build(style).system()
    for table, head in system.encoding.iter_heads():
        hits = 0
        for row in system.db[f"{head.user_relation}__i"]:
            found = table.supporting_rows(system.db, head, row)
            assert set(found) == oracle(system.db, table, head, row), (
                head.atom,
                row,
            )
            hits += bool(found)
        assert hits, f"{head.atom} supports nothing; the check is vacuous"


def _head(system, mapping: str, relation: str):
    for table, head in system.encoding.iter_heads():
        if table.mapping == mapping and head.user_relation == relation:
            return table, head
    raise AssertionError(f"no head {mapping}/{relation}")


def _null(system, relation: str, position: int, function: str) -> SkolemValue:
    return next(
        row[position]
        for row in system.db[f"{relation}__i"]
        if isinstance(row[position], SkolemValue)
        and row[position].function_name == function
    )


@pytest.mark.parametrize("style", STYLES)
def test_crafted_misses_have_no_support(style):
    system = shapes_cdss(style).system()
    const_table, const_head = _head(system, "mconst", "B")
    rep_table, rep_head = _head(system, "mrep", "R")
    null_table, null_head = _head(system, "mnull", "S")
    t_table, t_head = _head(system, "mnull", "T")
    foreign = _null(system, "S", 1, "f_mother_z")
    own = _null(system, "S", 1, "f_mnull_n")
    misses = [
        (const_table, const_head, (1, 1, "y")),  # wrong constant
        (const_table, const_head, (1, 2, "x")),  # unequal repeated positions
        (const_table, const_head, (7, 8, "x")),  # local-only row
        (rep_table, rep_head, (2, 1)),  # unequal repeated positions
        (null_table, null_head, (1, 2)),  # plain value where a null belongs
        (null_table, null_head, (2, foreign)),  # another mapping's function
        # Right function, but the key disagrees with the null's argument.
        (null_table, null_head, (own.args[0] + 100, own)),
        (t_table, t_head, (foreign, 2)),
        (t_table, t_head, ("plain", 2)),
    ]
    for table, head, row in misses:
        assert table.supporting_rows(system.db, head, row) == frozenset()
        assert oracle(system.db, table, head, row) == set()


def body_shapes_cdss(style: str) -> CDSS:
    """Body occurrences with a constant, a repeated variable, a relation
    read twice, a join, and no variable at all; a head of constants only
    (both probe the empty column list)."""
    cdss = CDSS("body-shapes", encoding_style=style)
    cdss.add_peer("P1", {"A": ("k", "v"), "B": ("a", "b", "c")})
    cdss.add_peer("P2", {"R": ("x", "y"), "S": ("x",), "K": ("c",)})
    cdss.add_mapping("mconst", "B(k, k, 'x') -> S(k)")
    cdss.add_mapping("mjoin", "A(k, v), A(v, w) -> R(k, w)")
    cdss.add_mapping("mpair", "A(k, v), B(k, v, c) -> R(v, c)")
    cdss.add_mapping("mground", "A(k, v), B(1, 1, 'x') -> S(v)")
    cdss.add_mapping("mflag", "A(k, v) -> K('c')")
    with cdss.batch() as tx:
        for k, v in [(1, 2), (2, 2), (2, 3), (3, 1), (4, 4)]:
            tx.insert("A", (k, v))
        for row in [(1, 1, "x"), (2, 2, "y"), (2, 3, "x"), (3, 3, "x")]:
            tx.insert("B", row)
    cdss.update_exchange()
    return cdss


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("build", [shapes_cdss, paper_cdss, body_shapes_cdss])
def test_supported_is_the_per_row_probe_at_a_time(build, style):
    system = build(style).system()
    misses = [(1, 1, "y"), (2, 1), ("plain", 2), (99, 99), ("d",)]
    for table, head in system.encoding.iter_heads():
        arity = len(head.atom.terms)
        rows = set(system.db[f"{head.user_relation}__i"]) | {
            row for row in misses if len(row) == arity
        }
        expected = {
            row for row in rows if table.supporting_rows(system.db, head, row)
        }
        assert table.supported(system.db, head, rows) == expected
        assert expected, f"{head.atom} supports nothing; the check is vacuous"


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("build", [body_shapes_cdss, paper_cdss])
def test_doomed_rows_match_the_forward_oracle(build, style):
    """A provenance row is doomed by a source tuple exactly when one of
    its positive body occurrences instantiates to that tuple."""
    system = build(style).system()
    for table in system.encoding.tables:
        for relation in table.source_relations:
            rows = set(system.db[f"{relation}__o"])
            misses = {(9, 9), (9, 9, "x"), (1, 1, "y")}
            for probe in [rows, set(list(rows)[::2]), misses]:
                expected = {
                    prow
                    for prow in system.db[table.relation]
                    if any(
                        (relation, row) in table.source_tuples(prow)
                        for row in probe
                    )
                }
                found = table.doomed_rows(system.db, relation, probe)
                assert found == expected, (table.relation, relation, probe)
            assert table.doomed_rows(system.db, relation, rows)


def test_user_relation_of_internal_raises_real_error():
    # Must raise even under ``python -O``: the inverse rules are keyed by
    # the stripped name.
    assert _user_relation_of_internal("R__o") == "R"
    with pytest.raises(ProvenanceError):
        _user_relation_of_internal("R__t")
