"""Tests for the declarative spec layer and the ``repro run`` CLI."""

import json
import os

import pytest

from repro import CDSS, EditSpec, MappingSpec, PeerSpec, SpecError, SystemSpec
from repro.api.spec import RelationSpec
from repro.cli import main


def running_example(with_data: bool = True) -> CDSS:
    cdss = CDSS("bio")
    cdss.add_peer("PGUS", {"G": ("id", "can", "nam")})
    cdss.add_peer("PBioSQL", {"B": ("id", "nam")})
    cdss.add_peer("PuBio", {"U": ("nam", "can")})
    cdss.add_mapping("m1", "G(i, c, n) -> B(i, n)")
    cdss.add_mapping("m2", "G(i, c, n) -> U(n, c)")
    cdss.add_mapping("m3", "B(i, n) -> exists c . U(n, c)")
    cdss.add_mapping("m4", "B(i, c), U(n, c) -> B(i, n)")
    if with_data:
        with cdss.batch() as tx:
            tx.insert("G", (1, 2, 3))
            tx.insert("G", (3, 5, 2))
            tx.insert("B", (3, 5))
            tx.insert("U", (2, 5))
    return cdss


PAPER_B = frozenset({(1, 3), (3, 2), (3, 3), (3, 5)})


class TestSpecObjects:
    def test_to_spec_captures_configuration(self):
        spec = running_example(with_data=False).to_spec()
        assert [p.name for p in spec.peers] == ["PGUS", "PBioSQL", "PuBio"]
        assert [m.name for m in spec.mappings] == ["m1", "m2", "m3", "m4"]
        assert spec.edits == ()
        # The default strategy follows the REPRO_STRATEGY environment
        # override, else "unified".
        assert spec.strategy == (os.environ.get("REPRO_STRATEGY") or "unified")

    def test_strategy_environment_override_routes_through_the_shim(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_STRATEGY", "dred")
        cdss = running_example()
        assert cdss.to_spec().strategy == "dred"
        with pytest.warns(DeprecationWarning, match="strategy='dred'"):
            report = cdss.update_exchange()
        assert report.strategy == "dred"
        assert set(cdss.relation("B")) == PAPER_B

    def test_to_spec_captures_pending_edits(self):
        spec = running_example().to_spec()
        assert len(spec.edits) == 4
        assert all(e.op == "+" for e in spec.edits)

    def test_to_spec_captures_published_state_and_rejections(self):
        cdss = running_example()
        cdss.update_exchange()
        cdss.peer("PBioSQL").delete("B", (3, 2))
        cdss.update_exchange()
        spec = cdss.to_spec()
        inserts = [e for e in spec.edits if e.op == "+"]
        deletes = [e for e in spec.edits if e.op == "-"]
        assert len(inserts) == 4
        assert deletes == [EditSpec("B", (3, 2), "-")]

    def test_without_edits(self):
        spec = running_example().to_spec()
        assert spec.without_edits().edits == ()
        assert spec.without_edits().peers == spec.peers

    def test_mapping_spec_round_trips_tgds(self):
        for mapping in running_example().mappings():
            rebuilt = MappingSpec.of(mapping).to_mapping()
            assert rebuilt == mapping

    def test_bad_edit_op_rejected(self):
        with pytest.raises(SpecError):
            EditSpec("R", (1,), op="?")

    def test_bad_strategy_rejected(self):
        with pytest.raises(SpecError):
            SystemSpec(strategy="warp")

    def test_bad_encoding_rejected(self):
        with pytest.raises(SpecError):
            SystemSpec(encoding_style="sparse")


class TestBuildAndRoundTrip:
    def test_from_spec_reproduces_instances(self):
        original = running_example()
        original.update_exchange()
        clone = CDSS.from_spec(original.to_spec())
        assert clone.pending_edits() == 4  # staged, not exchanged
        clone.update_exchange()
        assert clone.relation("B").to_rows() == PAPER_B
        assert clone.relation("B").to_rows() == original.relation("B").to_rows()

    def test_spec_build_is_from_spec(self):
        spec = running_example().to_spec()
        cdss = spec.build()
        cdss.update_exchange()
        assert cdss.relation("B").to_rows() == PAPER_B

    def test_json_round_trip(self):
        spec = running_example().to_spec()
        text = spec.to_json()
        assert SystemSpec.from_json(text) == spec
        # Row tuples survive the JSON list round-trip.
        document = json.loads(text)
        assert document["format"] == "repro/system-spec@1"
        assert SystemSpec.from_dict(document).edits == spec.edits

    def test_save_and_load(self, tmp_path):
        spec = running_example().to_spec()
        path = spec.save(tmp_path / "bio.json")
        assert SystemSpec.load(path) == spec

    def test_from_spec_accepts_dict_and_path(self, tmp_path):
        spec = running_example().to_spec()
        path = spec.save(tmp_path / "bio.json")
        for source in (spec, spec.to_dict(), str(path), path):
            cdss = CDSS.from_spec(source)
            cdss.update_exchange()
            assert cdss.relation("B").to_rows() == PAPER_B

    def test_rejections_round_trip(self):
        original = running_example()
        original.update_exchange()
        original.peer("PBioSQL").delete("B", (3, 2))
        original.update_exchange()
        clone = CDSS.from_spec(original.to_spec())
        clone.update_exchange()
        assert clone.relation("B").to_rows() == original.relation("B").to_rows()
        assert clone.system().rejections("B") == {(3, 2)}

    def test_spec_preserves_options(self):
        cdss = CDSS(
            "opts", encoding_style="per-rule", strategy="dred",
            perspective=None,
        )
        cdss.add_peer("P", {"R": ("a",)})
        spec = cdss.to_spec()
        clone = CDSS.from_spec(spec)
        assert clone.strategy == "dred"
        assert clone.to_spec() == spec

    @pytest.mark.parametrize("legacy", ["incremental", "dred"])
    def test_legacy_strategy_shims_warn_and_round_trip(self, legacy):
        """`strategy="incremental"`/`"dred"` stay accepted as deprecation
        shims: they warn, round-trip through spec JSON verbatim, and run
        on the unified weighted maintainer."""
        with pytest.warns(DeprecationWarning, match="unified"):
            cdss = CDSS("legacy", strategy=legacy)
        cdss.add_peer("P", {"R": ("a",)})
        cdss.add_peer("Q", {"S": ("a",)})
        cdss.add_mapping("m", "R(x) -> S(x)")
        with cdss.batch() as tx:
            tx.insert("R", (1,))
        with pytest.warns(DeprecationWarning, match="unified"):
            report = cdss.update_exchange()
        # The report echoes the *requested* name, not the resolved one.
        assert report.strategy == legacy
        assert cdss.relation("S").to_rows() == {(1,)}
        document = cdss.to_spec().to_json()
        assert f'"strategy": "{legacy}"' in document
        with pytest.warns(DeprecationWarning, match="unified"):
            clone = CDSS.from_spec(SystemSpec.from_json(document))
        assert clone.strategy == legacy
        clone.update_exchange()
        assert clone.relation("S").to_rows() == {(1,)}

    def test_default_strategy_does_not_warn(self, recwarn):
        cdss = CDSS("quiet")
        cdss.add_peer("P", {"R": ("a",)})
        with cdss.batch() as tx:
            tx.insert("R", (1,))
        cdss.update_exchange()
        strategy_warnings = [
            w
            for w in recwarn.list
            if issubclass(w.category, DeprecationWarning)
            and "strategy" in str(w.message)
        ]
        if not (os.environ.get("REPRO_STRATEGY") in ("incremental", "dred")):
            assert strategy_warnings == []

    def test_unknown_keys_rejected(self):
        document = running_example(with_data=False).to_spec().to_dict()
        document["shards"] = 4
        with pytest.raises(SpecError, match="shards"):
            SystemSpec.from_dict(document)

    def test_legacy_workers_key(self, tmp_path):
        """Specs from before parallel evaluation was removed carry
        ``"workers": 1``; that loads (and is not written back).  Any
        other value names the removal."""
        document = running_example(with_data=False).to_spec().to_dict()
        assert "workers" not in document
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps({**document, "workers": 1}))
        assert SystemSpec.load(path).to_dict() == document
        for bad in (2, 0, True, "1", 1.0):
            with pytest.raises(SpecError, match="parallel evaluation was removed"):
                SystemSpec.from_dict({**document, "workers": bad})

    def test_wrong_format_rejected(self):
        document = running_example(with_data=False).to_spec().to_dict()
        document["format"] = "repro/system-spec@99"
        with pytest.raises(SpecError, match="format"):
            SystemSpec.from_dict(document)

    def test_invalid_json_rejected(self):
        with pytest.raises(SpecError):
            SystemSpec.from_json("not json {")
        with pytest.raises(SpecError):
            SystemSpec.from_json("[1, 2]")

    def test_missing_required_key_rejected(self):
        with pytest.raises(SpecError, match="tgd"):
            SystemSpec.from_dict(
                {"format": "repro/system-spec@1", "mappings": [{"name": "m"}]}
            )

    def test_workload_generator_specs_round_trip(self):
        from repro.workload import CDSSWorkloadGenerator, WorkloadConfig

        generator = CDSSWorkloadGenerator(
            WorkloadConfig(
                peers=3, dataset="integer", uniform_attributes=False, seed=7
            )
        )
        cdss = generator.build_cdss()
        generator.populate(cdss, base_per_peer=5)
        clone = CDSS.from_spec(
            SystemSpec.from_json(cdss.to_spec().to_json())
        )
        clone.update_exchange()
        for relation in cdss.relations():
            assert (
                clone.relation(relation).certain().to_rows()
                == cdss.relation(relation).certain().to_rows()
            )


class TestRunCommand:
    def test_run_reproduces_paper_instance_of_b(self, tmp_path, capsys):
        cdss = running_example()
        cdss.update_exchange()
        path = cdss.to_spec().save(tmp_path / "bio.json")
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "B: [(1, 3), (3, 2), (3, 3), (3, 5)]" in out
        assert "PBioSQL" in out

    def test_run_strategy_override(self, tmp_path, capsys):
        path = running_example().to_spec().save(tmp_path / "bio.json")
        assert main(["run", str(path), "--strategy", "recompute"]) == 0
        assert "recompute" in capsys.readouterr().out

    def test_run_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_run_malformed_spec_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"format\": \"other\"}")
        assert main(["run", str(path)]) == 1
        assert "error" in capsys.readouterr().err


class TestSpecDataclasses:
    def test_relation_and_peer_specs(self):
        relation = RelationSpec("R", ("a", "b"))
        peer = PeerSpec("P", (relation,))
        assert peer.to_dict() == {
            "name": "P",
            "relations": [{"name": "R", "attributes": ["a", "b"]}],
        }
        assert PeerSpec.from_dict(peer.to_dict()) == peer
        assert relation.to_schema().arity == 2

    def test_repr(self):
        assert "3 peers" in repr(running_example().to_spec())
