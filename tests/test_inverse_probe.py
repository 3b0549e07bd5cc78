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
