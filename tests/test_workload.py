"""Tests for the synthetic SWISS-PROT workload generator (Section 6.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schema import is_weakly_acyclic
from repro.schema.internal import LOCAL_SUFFIX, OUTPUT_SUFFIX
from repro.workload import (
    ARITY,
    CDSSWorkloadGenerator,
    SWISSPROT_ATTRIBUTES,
    SwissProtGenerator,
    WorkloadConfig,
    string_hash,
    zipf_choice,
)


class TestSwissProtGenerator:
    def test_arity_is_25(self):
        assert ARITY == 25
        assert len(SWISSPROT_ATTRIBUTES) == 25

    def test_entries_deterministic(self):
        a = SwissProtGenerator(seed=7).entry(3)
        b = SwissProtGenerator(seed=7).entry(3)
        assert a == b

    def test_different_indices_differ(self):
        gen = SwissProtGenerator(seed=7)
        assert gen.entry(1) != gen.entry(2)

    def test_different_seeds_differ(self):
        assert SwissProtGenerator(0).entry(1) != SwissProtGenerator(1).entry(1)

    def test_rows_are_all_strings(self):
        row = SwissProtGenerator().entry(0).as_row()
        assert len(row) == 25
        assert all(isinstance(v, str) for v in row)

    def test_integer_rows_are_hashes(self):
        entry = SwissProtGenerator().entry(0)
        int_row = entry.as_integer_row()
        assert all(isinstance(v, int) for v in int_row)
        assert int_row[0] == string_hash(entry[0])

    def test_entries_iterator(self):
        gen = SwissProtGenerator()
        entries = list(gen.entries(5, start=10))
        assert len(entries) == 5
        assert entries[0] == gen.entry(10)

    def test_string_tuples_are_large(self):
        # SWISS-PROT tuples are "quite large" — the string/integer size gap
        # drives Figures 5-9.
        entry = SwissProtGenerator().entry(0)
        total = sum(len(v) for v in entry.as_row())
        assert total > 300


class TestZipf:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_zipf_in_range(self, seed):
        import random

        rng = random.Random(seed)
        value = zipf_choice(rng, 5)
        assert 1 <= value <= 5

    def test_zipf_skews_to_small(self):
        import random

        rng = random.Random(0)
        draws = [zipf_choice(rng, 5) for _ in range(2000)]
        assert draws.count(1) > draws.count(5)


class TestWorkloadConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(peers=0)
        with pytest.raises(ValueError):
            WorkloadConfig(attributes_per_peer=0)
        with pytest.raises(ValueError):
            WorkloadConfig(dataset="bogus")
        with pytest.raises(ValueError):
            WorkloadConfig(topology="star")


class TestGeneratorLayouts:
    def test_partitions_cover_attributes(self):
        gen = CDSSWorkloadGenerator(WorkloadConfig(peers=4, seed=2))
        for layout in gen.layouts:
            covered = sorted(
                a for partition in layout.partitions for a in partition
            )
            assert covered == sorted(layout.attribute_indices)

    def test_key_attribute_added(self):
        gen = CDSSWorkloadGenerator(WorkloadConfig(peers=2, seed=2))
        for schema in gen.layouts[0].relation_schemas():
            assert schema.attributes[0] == "entry_key"

    def test_uniform_attributes_make_full_mappings(self):
        gen = CDSSWorkloadGenerator(
            WorkloadConfig(peers=4, uniform_attributes=True, seed=3)
        )
        assert all(not m.existential_vars for m in gen.mappings)

    def test_nonuniform_attributes_can_have_existentials(self):
        gen = CDSSWorkloadGenerator(
            WorkloadConfig(
                peers=6,
                uniform_attributes=False,
                attributes_per_peer=6,
                seed=1,
            )
        )
        assert any(m.existential_vars for m in gen.mappings)

    def test_chain_topology_has_n_minus_1_mappings(self):
        gen = CDSSWorkloadGenerator(WorkloadConfig(peers=5, seed=0))
        assert len(gen.mappings) == 4

    def test_pairs_topology_doubles_edges(self):
        gen = CDSSWorkloadGenerator(
            WorkloadConfig(peers=5, topology="pairs", seed=0)
        )
        assert len(gen.mappings) == 8

    def test_extra_cycles_add_back_edges(self):
        base = CDSSWorkloadGenerator(WorkloadConfig(peers=5, seed=0))
        cyclic = CDSSWorkloadGenerator(
            WorkloadConfig(peers=5, extra_cycles=2, seed=0)
        )
        assert len(cyclic.mappings) == len(base.mappings) + 2

    def test_generated_mappings_weakly_acyclic(self):
        for seed in range(5):
            gen = CDSSWorkloadGenerator(
                WorkloadConfig(peers=4, extra_cycles=2, seed=seed)
            )
            assert is_weakly_acyclic(gen.mappings)

    def test_deterministic_given_seed(self):
        a = CDSSWorkloadGenerator(WorkloadConfig(peers=3, seed=11))
        b = CDSSWorkloadGenerator(WorkloadConfig(peers=3, seed=11))
        assert [l.partitions for l in a.layouts] == [
            l.partitions for l in b.layouts
        ]
        assert [m.name for m in a.mappings] == [m.name for m in b.mappings]


class TestUpdateStreams:
    def test_insertions_share_key_per_entry(self):
        gen = CDSSWorkloadGenerator(WorkloadConfig(peers=2, seed=4))
        updates = gen.insertions(per_peer=3)
        assert len(updates) == 6
        for update in updates:
            keys = {row[0] for row in update.rows.values()}
            assert keys == {update.key}

    def test_integer_dataset_rows_are_ints(self):
        gen = CDSSWorkloadGenerator(
            WorkloadConfig(peers=1, dataset="integer", seed=4)
        )
        update = gen.insertions(per_peer=1)[0]
        for row in update.rows.values():
            assert all(isinstance(v, int) for v in row)

    def test_deletions_sample_among_insertions(self):
        gen = CDSSWorkloadGenerator(WorkloadConfig(peers=2, seed=4))
        inserted = gen.insertions(per_peer=5)
        deleted = gen.deletions(per_peer=2)
        assert len(deleted) == 4
        inserted_keys = {u.key for u in inserted}
        assert all(u.key in inserted_keys for u in deleted)
        # Deleted entries are removed from the pool.
        assert all(
            len(pool) == 3 for pool in gen.inserted_entries.values()
        )

    def test_deletions_capped_at_pool_size(self):
        gen = CDSSWorkloadGenerator(WorkloadConfig(peers=1, seed=4))
        gen.insertions(per_peer=2)
        assert len(gen.deletions(per_peer=10)) == 2


class TestEndToEnd:
    @pytest.mark.parametrize("dataset", ["string", "integer"])
    def test_populate_and_delete_consistent(self, dataset):
        gen = CDSSWorkloadGenerator(
            WorkloadConfig(peers=3, dataset=dataset, seed=5)
        )
        cdss = gen.build_cdss()
        gen.populate(cdss, base_per_peer=10)
        system = cdss.system()
        base_tuples = system.total_tuples()
        assert base_tuples > 0
        gen.record_deletions(cdss, gen.deletions(per_peer=3))
        cdss.update_exchange()
        assert system.total_tuples() < base_tuples
        assert system.is_consistent()

    def test_data_flows_down_the_chain(self):
        gen = CDSSWorkloadGenerator(WorkloadConfig(peers=3, seed=6))
        cdss = gen.build_cdss()
        gen.populate(cdss, base_per_peer=4)
        first = gen.layouts[0]
        last = gen.layouts[-1]
        # Entries inserted at peer0 must surface at the last chain peer.
        relation = last.relation_name(0)
        instance = cdss.relation(relation).to_rows()
        peer0_keys = {
            u.key for u in gen.inserted_entries[first.name]
        }
        present = {row[0] for row in instance}
        assert peer0_keys <= present

    @pytest.mark.parametrize(
        "config",
        [
            WorkloadConfig(
                peers=4,
                uniform_attributes=False,
                attributes_per_peer=6,
                seed=1,
            ),
            WorkloadConfig(peers=4, topology="pairs", seed=2),
        ],
        ids=["existential-chain", "pairs-cycle"],
    )
    def test_report_counts_match_table_diffs(self, config):
        """The count-only reports against the rows they stopped keeping:
        each per-relation count is that table's row-count change, so
        ``inserted``/``deleted`` sum every internal table's change."""
        gen = CDSSWorkloadGenerator(config)
        cdss = gen.build_cdss()
        gen.populate(cdss, base_per_peer=6)
        db = cdss.system().db

        def diff(step):
            before = {name: len(db[name]) for name in db.relation_names()}
            report = step()
            return report, {
                name: len(db[name]) - before.get(name, 0)
                for name in db.relation_names()
                if len(db[name]) != before.get(name, 0)
            }

        def exchange_with(record, updates):
            record(cdss, updates)
            return cdss.update_exchange()

        report, grown = diff(
            lambda: exchange_with(
                gen.record_insertions, gen.insertions(per_peer=3)
            )
        )
        seeded = {n: d for n, d in grown.items() if n.endswith(LOCAL_SUFFIX)}
        derived = report.details["insertion"].derived
        assert derived == {n: d for n, d in grown.items() if n not in seeded}
        assert report.inserted == sum(grown.values()) - sum(seeded.values())
        assert report.deleted == 0
        assert any(n.endswith(OUTPUT_SUFFIX) for n in derived)

        report, shrunk = diff(
            lambda: exchange_with(
                gen.record_deletions, gen.deletions(per_peer=2)
            )
        )
        deletion = report.details["deletion"]
        assert deletion.output_deletions == {
            n[: -len(OUTPUT_SUFFIX)]: -d
            for n, d in shrunk.items()
            if n.endswith(OUTPUT_SUFFIX)
        }
        assert deletion.provenance_rows_deleted == -sum(
            d for n, d in shrunk.items() if n.startswith("__prov_")
        )
        assert report.deleted == -sum(
            d for n, d in shrunk.items() if not n.startswith("__prov_")
        )
        assert report.inserted == 0
        assert deletion.output_deletions

    def test_existential_workload_produces_nulls(self):
        from repro.datalog.ast import tuple_has_labeled_null

        gen = CDSSWorkloadGenerator(
            WorkloadConfig(
                peers=4,
                uniform_attributes=False,
                attributes_per_peer=6,
                seed=1,
            )
        )
        cdss = gen.build_cdss()
        gen.populate(cdss, base_per_peer=5)
        nulls = 0
        for layout in gen.layouts:
            for schema in layout.relation_schemas():
                for row in cdss.relation(schema.name):
                    if tuple_has_labeled_null(row):
                        nulls += 1
        assert nulls > 0
