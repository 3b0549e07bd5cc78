"""Input generation: everything a run feeds the program, made from a seed.

The topology comes from :class:`repro.workload.CDSSWorkloadGenerator` under
the fixed ``LAYOUT_SEED``; the entries come from
:class:`repro.workload.SwissProtGenerator` under ``--seed``, normalized
into a peer's relations exactly as the generator's own ``fresh_entry``
does.  All of it is built before any clock starts, and its canonical JSON
is hashed into ``inputs_sha256``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.api import MappingSpec, PeerSpec
from repro.workload import (
    CDSSWorkloadGenerator,
    PeerLayout,
    SwissProtGenerator,
    WorkloadConfig,
    string_hash,
)

from .config import LAYOUT_SEED

Row = tuple


@dataclass(frozen=True)
class Entry:
    """One universal-relation entry normalized into one peer's relations."""

    peer: str
    key: object
    rows: tuple[tuple[str, Row], ...]
    #: attribute index -> value, for predicting the row at another peer.
    values: dict


def sha256_json(document: object) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Structure:
    """The fixed topology of one workload: peers, relations, mappings."""

    def __init__(
        self,
        peers: int,
        dataset: str,
        topology: str = "chain",
        uniform_attributes: bool = True,
    ) -> None:
        self.dataset = dataset
        self.generator = CDSSWorkloadGenerator(
            WorkloadConfig(
                peers=peers,
                dataset=dataset,
                topology=topology,
                uniform_attributes=uniform_attributes,
                seed=LAYOUT_SEED,
            )
        )
        self.layouts: list[PeerLayout] = self.generator.layouts

    def build(self):
        """A configured, empty CDSS (default constructor arguments)."""
        return self.generator.build_cdss()

    @property
    def first(self) -> PeerLayout:
        return self.layouts[0]

    @property
    def last(self) -> PeerLayout:
        return self.layouts[-1]

    def lookup_text(self, layout: PeerLayout, part: int = 0) -> str:
        """Datalog text of the by-key lookup on one relation (param ``k``)."""
        width = len(layout.partitions[part])
        columns = ", ".join(f"x{i}" for i in range(width))
        return f"ans(k, {columns}) :- {layout.relation_name(part)}(k, {columns})"

    def expected_row(self, layout: PeerLayout, part: int, entry: Entry) -> Row:
        """The row ``entry`` becomes in ``layout``'s relation ``part`` under
        full tgds (every peer holds the same attributes)."""
        return (entry.key,) + tuple(
            entry.values[a] for a in layout.partitions[part]
        )

    def canonical(self) -> dict:
        """The semantic part of the spec: schemas and mapping text.

        Engine options (strategy, index policy, workers) are left out on
        purpose — the benchmark uses the defaults, whatever they become.
        """
        return {
            "peers": [
                PeerSpec.of(schema).to_dict()
                for schema in self.generator.peer_schemas()
            ],
            "mappings": [
                MappingSpec.of(mapping).to_dict()
                for mapping in self.generator.mappings
            ],
        }


class EntrySource:
    """Fresh entries under ``--seed``; every entry gets a new index."""

    def __init__(self, structure: Structure, seed: int) -> None:
        self._structure = structure
        self._swissprot = SwissProtGenerator(seed=seed)
        self._next = 0

    def take(self, layout: PeerLayout, count: int) -> list[Entry]:
        integer = self._structure.dataset == "integer"
        entries = []
        for _ in range(count):
            index = self._next
            self._next += 1
            raw = self._swissprot.entry(index)
            key: object = f"{layout.name}:{index}"
            if integer:
                key = string_hash(str(key))
            values = {
                a: (string_hash(raw[a]) if integer else raw[a])
                for a in layout.attribute_indices
            }
            rows = tuple(
                (
                    layout.relation_name(part),
                    (key,) + tuple(values[a] for a in partition),
                )
                for part, partition in enumerate(layout.partitions)
            )
            entries.append(Entry(layout.name, key, rows, values))
        return entries

    def take_per_peer(self, count: int) -> list[Entry]:
        return [
            entry
            for layout in self._structure.layouts
            for entry in self.take(layout, count)
        ]


def edit_list(entries: list[Entry]) -> list[list]:
    """Entries as JSON-ready ``[relation, row]`` pairs (for hashing)."""
    return [
        [relation, list(row)] for entry in entries for relation, row in entry.rows
    ]


def stage(cdss, inserts: list[Entry] = (), deletes: list[Entry] = ()) -> int:
    """Commit one batch of edits through the public batch API."""
    with cdss.batch() as tx:
        for entry in inserts:
            for relation, row in entry.rows:
                tx.insert(relation, row)
        for entry in deletes:
            for relation, row in entry.rows:
                tx.delete(relation, row)
        return len(tx)


def drop_report_history(cdss) -> None:
    """Forget the reports the CDSS keeps of its past exchanges.

    ``CDSS.exchange_reports`` keeps every report — and through it every
    derived row — for the life of the object; measured here, rounds get
    ~20 % slower once ~260 reports have piled up.  The harness has read
    the report it was handed, so between operations it trims the list as
    a long-running caller would; otherwise an operation's speed would
    depend on how many came before it.
    """
    history = getattr(cdss, "exchange_reports", None)
    if isinstance(history, list):
        history.clear()


# -- answers -----------------------------------------------------------------


def canonical_value(value: object) -> object:
    """JSON scalars as they are; labeled nulls as their ``repr`` — the same
    shape the serving tier puts on the wire, so in-process and HTTP answers
    hash alike."""
    if value is None or isinstance(value, (bool, int, float, str, dict)):
        return value  # a dict is a null already in its wire shape
    return {"!": repr(value)}


def canonical_rows(rows) -> list[str]:
    return sorted(
        json.dumps([canonical_value(v) for v in row], separators=(",", ":"))
        for row in rows
    )


def cdss_answers(cdss) -> dict:
    """Sorted certain and with-nulls rows of every peer relation."""
    answers = {}
    for name in cdss.relations():
        view = cdss.relation(name)
        answers[name] = {
            "with_nulls": canonical_rows(view),
            "certain": canonical_rows(view.certain()),
        }
    return answers


def rebuild_answers(structure: Structure, surviving: list[Entry], configure=None) -> dict:
    """The reference: a fresh CDSS, the surviving entries in one batch, one
    exchange."""
    cdss = structure.build()
    if configure is not None:
        configure(cdss)
    stage(cdss, surviving)
    cdss.update_exchange()
    return cdss_answers(cdss)
