#!/usr/bin/env python3
"""Debugging derivations: trees, derivability, EXPLAIN, checkpoints.

A curator asking "why is this tuple here, and would it survive if I deleted
that source?" needs more than instances.  This example tours the
introspection toolkit:

* **derivation trees** — every summand of a provenance expression as an
  explicit proof tree (Section 3.2);
* **goal-directed derivability** — the Section 4.1.3 test;
* **EXPLAIN** — the bind-join plans the engine actually runs (the paper's
  Section 5.1 tuning pains, made visible), including a prepared query's
  pipeline with its parameter slots pre-bound;
* **checkpoint/restore** — ORCHESTRA's auxiliary-storage persistence:
  freeze the whole exchanged state (including provenance tables and labeled
  nulls) and resume incrementally later.

Run:  python examples/derivation_debugging.py
"""

from repro import CDSS
from repro.core.derivation import DerivationTest
from repro.datalog.explain import explain_program
from repro.storage import checkpoint, restore


def build() -> CDSS:
    cdss = CDSS("debug")
    cdss.add_peer("PGUS", {"G": ("id", "can", "nam")})
    cdss.add_peer("PBioSQL", {"B": ("id", "nam")})
    cdss.add_peer("PuBio", {"U": ("nam", "can")})
    cdss.add_mapping("m1", "G(i, c, n) -> B(i, n)")
    cdss.add_mapping("m2", "G(i, c, n) -> U(n, c)")
    cdss.add_mapping("m4", "B(i, c), U(n, c) -> B(i, n)")
    with cdss.batch() as tx:
        tx.insert("G", (3, 5, 2))
        tx.insert("B", (3, 5))
        tx.insert("U", (2, 5))
    cdss.update_exchange()
    return cdss


def derivation_trees(cdss: CDSS) -> None:
    print("=== Why is B(3,2) in my instance? ===")
    print(f"Pv(B(3,2)) = {cdss.relation('B').provenance((3, 2))}\n")
    trees = cdss.provenance_graph().derivation_trees("B", (3, 2))
    for number, tree in enumerate(trees, start=1):
        print(f"derivation {number} (size {tree.size()}, depth {tree.depth()}):")
        print(f"  {tree!r}")
        print(f"  leaves: {', '.join(f'{r}{v!r}' for r, v in tree.leaves())}")
    print()


def what_if_analysis(cdss: CDSS) -> None:
    print("=== Would B(3,2) survive deleting G(3,5,2)? ===")
    system = cdss.system()
    # Simulate: remove the local contribution (without repairing) and ask
    # the goal-directed derivability test of Section 4.1.3.
    system.db["G__l"].delete((3, 5, 2))
    tester = DerivationTest(system.db, system.encoding, system.head_filters)
    print(f"derivable: {tester.is_derivable('B', (3, 2))}")
    print(
        "(True — the m4 derivation from B(3,5) and U(2,5) still grounds it;"
    )
    print(" the m1 and m2 paths through G are gone)")
    system.db["G__l"].insert((3, 5, 2))  # undo the simulation
    print(
        f"goal-directed work: visited {tester.slice_tuples_visited} tuples, "
        f"{tester.support_rows_visited} provenance rows\n"
    )


def explain_plans(cdss: CDSS) -> None:
    print("=== EXPLAIN: what does the engine actually run? ===")
    system = cdss.system()
    text = explain_program(system.program, system.db, system.engine.planner)
    # The full program is long; show the m4 mapping's pipeline.
    lines = text.splitlines()
    shown = [
        line
        for line in lines
        if "__prov_m4" in line or line.startswith("program")
    ]
    print("\n".join(shown[:8]))
    print("...\n")

    # Prepared queries expose their pipeline the same way.  The parameter c
    # occupies a pre-bound slot, so U is probed on its second column — and
    # re-executing with a new binding replans nothing (engine plan cache).
    prepared = cdss.prepare("ans(i, n) :- B(i, n), U(n, c)", params=("c",))
    print(prepared.explain())
    print(f"answers for c=5: {sorted(prepared.execute(c=5), key=repr)}")
    print(f"answers for c=2: {sorted(prepared.execute(c=2), key=repr)}\n")


def pushdown_views(cdss: CDSS) -> None:
    print("=== Structured view predicates (indexed pushdown) ===")
    from repro import col

    B = cdss.relation("B")
    keyed = B.where(col("id") == 3)
    print(f"B where id=3: {sorted(keyed, key=repr)}")
    # The same selection as an annotated query: every answer row carries
    # its provenance-semiring expression (computed via provenance.annotated).
    annotated = (
        cdss.prepare(B.select(col("id") == 3)).execute().annotated()
    )
    for row, expression in annotated.items():
        print(f"  Pv{row!r} = {expression!r}")
    print()


def checkpoint_resume(cdss: CDSS) -> None:
    print("=== Checkpoint / resume (auxiliary storage) ===")
    system = cdss.system()
    store = checkpoint(system.db)
    buckets = len(store.bucket_names())
    print(f"checkpointed {system.total_tuples()} tuples into {buckets} buckets")

    fresh = build()  # a brand-new, independently configured CDSS
    # Restore into a scratch database and carry every relation across.
    target = fresh.system().db
    for instance in restore(store):
        target[instance.name].insert_many(instance)
    print(f"restored; consistent: {fresh.system().is_consistent()}")
    fresh.peer("PGUS").insert("G", (7, 8, 9))
    fresh.update_exchange()
    print(
        "resumed incrementally after restore; B now:",
        sorted(fresh.relation("B")),
    )


if __name__ == "__main__":
    cdss = build()
    derivation_trees(cdss)
    what_if_analysis(cdss)
    explain_plans(cdss)
    pushdown_views(cdss)
    checkpoint_resume(cdss)
