"""Declarative system specifications with JSON round-trip.

A :class:`SystemSpec` is a complete, serializable description of a CDSS:
peers and their relation schemas, named tgd mappings (as parseable text),
engine options (maintenance strategy, provenance encoding, perspective),
and optionally the base data as an ordered list of signed edits.

The spec layer decouples *describing* a confederation from *running* one:

* ``CDSS.from_spec(spec)`` / ``SystemSpec.build()`` construct a configured
  system (edits staged in the peers' edit logs, no exchange run yet);
* ``cdss.to_spec()`` captures a running system back into a spec — local
  contributions become ``+`` edits, persistent rejections become ``-``
  edits, and any unpublished edit-log entries are appended in order;
* ``SystemSpec.to_json`` / ``from_json`` / ``save`` / ``load`` give the
  JSON round-trip that ``python -m repro run <spec.json>`` consumes.

Trust conditions are arbitrary Python predicates and therefore outside the
declarative subset; token-level and peer-level distrust could be added here
without breaking the format (unknown keys are rejected loudly today).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from ..core.exchange import STRATEGY_UNIFIED, ExchangeError, check_strategy
from ..provenance.relations import ENCODING_STYLES, ENCODING_COMPOSITE
from ..schema.relation import PeerSchema, RelationSchema, SchemaError
from ..schema.tgd import SchemaMapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.cdss import CDSS

SPEC_FORMAT = "repro/system-spec@1"

INSERT = "+"
DELETE = "-"


class SpecError(Exception):
    """Raised for malformed specs or spec documents."""


def _require(document: Mapping[str, object], key: str, context: str) -> object:
    try:
        return document[key]
    except (KeyError, TypeError):
        raise SpecError(f"{context} is missing required key {key!r}") from None


@dataclass(frozen=True)
class RelationSpec:
    """One relation: a name and its attribute names."""

    name: str
    attributes: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", tuple(self.attributes))

    @classmethod
    def of(cls, schema: RelationSchema) -> "RelationSpec":
        return cls(schema.name, schema.attributes)

    def to_schema(self) -> RelationSchema:
        return RelationSchema(self.name, self.attributes)

    def to_dict(self) -> dict[str, object]:
        return {"name": self.name, "attributes": list(self.attributes)}

    @classmethod
    def from_dict(cls, document: Mapping[str, object]) -> "RelationSpec":
        return cls(
            str(_require(document, "name", "relation spec")),
            tuple(
                str(a)
                for a in _require(document, "attributes", "relation spec")  # type: ignore[union-attr]
            ),
        )


@dataclass(frozen=True)
class PeerSpec:
    """One peer: a name and its relations."""

    name: str
    relations: tuple[RelationSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "relations", tuple(self.relations))

    @classmethod
    def of(cls, schema: PeerSchema) -> "PeerSpec":
        return cls(
            schema.peer,
            tuple(RelationSpec.of(r) for r in schema.relations),
        )

    def to_schemas(self) -> tuple[RelationSchema, ...]:
        return tuple(r.to_schema() for r in self.relations)

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "relations": [r.to_dict() for r in self.relations],
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, object]) -> "PeerSpec":
        return cls(
            str(_require(document, "name", "peer spec")),
            tuple(
                RelationSpec.from_dict(r)
                for r in _require(document, "relations", "peer spec")  # type: ignore[union-attr]
            ),
        )


@dataclass(frozen=True)
class MappingSpec:
    """One named schema mapping, as parseable tgd text."""

    name: str
    tgd: str

    @classmethod
    def of(cls, mapping: SchemaMapping) -> "MappingSpec":
        return cls(mapping.name, mapping.to_tgd_text())

    def to_mapping(self) -> SchemaMapping:
        return SchemaMapping.parse(self.name, self.tgd)

    def to_dict(self) -> dict[str, object]:
        return {"name": self.name, "tgd": self.tgd}

    @classmethod
    def from_dict(cls, document: Mapping[str, object]) -> "MappingSpec":
        return cls(
            str(_require(document, "name", "mapping spec")),
            str(_require(document, "tgd", "mapping spec")),
        )


@dataclass(frozen=True)
class EditSpec:
    """One signed edit: ``(op, relation, row)`` with op in {'+', '-'}."""

    relation: str
    row: tuple[object, ...]
    op: str = INSERT

    def __post_init__(self) -> None:
        object.__setattr__(self, "row", tuple(self.row))
        if self.op not in (INSERT, DELETE):
            raise SpecError(
                f"edit op must be {INSERT!r} or {DELETE!r}, got {self.op!r}"
            )

    def to_dict(self) -> dict[str, object]:
        return {"op": self.op, "relation": self.relation, "row": list(self.row)}

    @classmethod
    def from_dict(cls, document: Mapping[str, object]) -> "EditSpec":
        row = _require(document, "row", "edit spec")
        if isinstance(row, str) or not isinstance(row, (list, tuple)):
            raise SpecError(
                f"edit row must be a JSON array of values, got {row!r}"
            )
        return cls(
            str(_require(document, "relation", "edit spec")),
            tuple(row),
            str(document.get("op", INSERT)),
        )


#: Valid write-ahead-log fsync policies (mirrors
#: :data:`repro.durability.wal.FSYNC_POLICIES`; duplicated here because the
#: spec layer must not import the durability package it configures).
_FSYNC_POLICIES = ("always", "never")


@dataclass(frozen=True)
class DurabilitySpec:
    """How a node persists itself (see :mod:`repro.durability`).

    ``path`` is the node's data directory (overridable on the command
    line), ``fsync`` the WAL flush policy, and ``checkpoint_every`` the
    publish cadence at which the serve tier checkpoints automatically
    (0 = only on graceful shutdown).
    """

    path: str | None = None
    fsync: str = "always"
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        if self.fsync not in _FSYNC_POLICIES:
            raise SpecError(
                f"unknown fsync policy {self.fsync!r}; expected one of "
                f"{_FSYNC_POLICIES}"
            )
        if (
            not isinstance(self.checkpoint_every, int)
            or isinstance(self.checkpoint_every, bool)
            or self.checkpoint_every < 0
        ):
            raise SpecError(
                f"checkpoint_every must be an integer >= 0, got "
                f"{self.checkpoint_every!r}"
            )

    def to_dict(self) -> dict[str, object]:
        document: dict[str, object] = {
            "fsync": self.fsync,
            "checkpoint_every": self.checkpoint_every,
        }
        if self.path is not None:
            document["path"] = self.path
        return document

    @classmethod
    def from_dict(cls, document: Mapping[str, object]) -> "DurabilitySpec":
        known = {"path", "fsync", "checkpoint_every"}
        unknown = set(document) - known
        if unknown:
            raise SpecError(f"unknown durability keys: {sorted(unknown)}")
        path = document.get("path")
        return cls(
            path=None if path is None else str(path),
            fsync=str(document.get("fsync", "always")),
            checkpoint_every=document.get("checkpoint_every", 0),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class SystemSpec:
    """A complete declarative description of one CDSS."""

    name: str = "cdss"
    peers: tuple[PeerSpec, ...] = ()
    mappings: tuple[MappingSpec, ...] = ()
    edits: tuple[EditSpec, ...] = ()
    strategy: str = STRATEGY_UNIFIED
    encoding_style: str = ENCODING_COMPOSITE
    perspective: str | None = None
    durability: DurabilitySpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "peers", tuple(self.peers))
        object.__setattr__(self, "mappings", tuple(self.mappings))
        object.__setattr__(self, "edits", tuple(self.edits))
        try:
            check_strategy(self.strategy)
        except ExchangeError as exc:
            raise SpecError(str(exc)) from None
        if self.encoding_style not in ENCODING_STYLES:
            raise SpecError(
                f"unknown encoding style {self.encoding_style!r}; expected "
                f"one of {ENCODING_STYLES}"
            )

    # -- construction ------------------------------------------------------

    def without_edits(self) -> "SystemSpec":
        """The configuration alone (schemas + mappings, no data)."""
        return replace(self, edits=())

    def build(self) -> "CDSS":
        """A CDSS configured per this spec, edits staged but unexchanged."""
        from ..core.cdss import CDSS

        return CDSS.from_spec(self)

    # -- JSON round-trip ---------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        document: dict[str, object] = {
            "format": SPEC_FORMAT,
            "name": self.name,
            "strategy": self.strategy,
            "encoding_style": self.encoding_style,
            "peers": [p.to_dict() for p in self.peers],
            "mappings": [m.to_dict() for m in self.mappings],
            "edits": [e.to_dict() for e in self.edits],
        }
        if self.perspective is not None:
            document["perspective"] = self.perspective
        if self.durability is not None:
            document["durability"] = self.durability.to_dict()
        return document

    @classmethod
    def from_dict(cls, document: Mapping[str, object]) -> "SystemSpec":
        declared = document.get("format", SPEC_FORMAT)
        if declared != SPEC_FORMAT:
            raise SpecError(
                f"unsupported spec format {declared!r}; this build reads "
                f"{SPEC_FORMAT!r}"
            )
        known = {
            "format", "name", "strategy", "encoding_style", "perspective",
            "index_policy", "workers", "peers", "mappings", "edits",
            "durability",
        }
        unknown = set(document) - known
        if unknown:
            raise SpecError(f"unknown spec keys: {sorted(unknown)}")
        # Specs written before parallel evaluation was removed carry
        # "workers": 1 (every DurableNode spec.json does); that is what
        # runs today, so it loads.  Any other count cannot be honoured.
        workers = document.get("workers", 1)
        if type(workers) is not int or workers != 1:
            raise SpecError(
                f"workers={workers!r}: parallel evaluation was removed; "
                "evaluation is sequential, so only workers=1 is accepted"
            )
        # Specs written while index maintenance had two policies carry
        # "index_policy".  Both old values load and are dropped: a policy
        # only decided when indexes were patched, never an answer.  Any
        # other value was never valid.
        index_policy = document.get("index_policy", "eager")
        if index_policy not in ("eager", "deferred"):
            raise SpecError(
                f"unknown index policy {index_policy!r}; only the legacy "
                "values 'eager' and 'deferred' load (and are ignored)"
            )
        perspective = document.get("perspective")
        durability = document.get("durability")
        if durability is not None and not isinstance(durability, Mapping):
            raise SpecError("durability must be a JSON object")
        return cls(
            name=str(document.get("name", "cdss")),
            peers=tuple(
                PeerSpec.from_dict(p) for p in document.get("peers", ())  # type: ignore[union-attr]
            ),
            mappings=tuple(
                MappingSpec.from_dict(m)
                for m in document.get("mappings", ())  # type: ignore[union-attr]
            ),
            edits=tuple(
                EditSpec.from_dict(e) for e in document.get("edits", ())  # type: ignore[union-attr]
            ),
            strategy=str(document.get("strategy", STRATEGY_UNIFIED)),
            encoding_style=str(
                document.get("encoding_style", ENCODING_COMPOSITE)
            ),
            perspective=None if perspective is None else str(perspective),
            durability=(
                None
                if durability is None
                else DurabilitySpec.from_dict(durability)
            ),
        )

    def to_json(self, indent: int | None = 2) -> str:
        try:
            return json.dumps(self.to_dict(), indent=indent)
        except TypeError as error:
            raise SpecError(
                f"spec contains non-JSON-serializable values: {error}"
            ) from None

    @classmethod
    def from_json(cls, text: str) -> "SystemSpec":
        try:
            document = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"invalid spec JSON: {error}") from None
        if not isinstance(document, dict):
            raise SpecError("spec JSON must be an object")
        spec = cls.from_dict(document)
        # JSON has no tuples: normalize rows back through EditSpec already
        # done in from_dict; nothing else to fix up.
        return spec

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "SystemSpec":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def __repr__(self) -> str:
        return (
            f"<SystemSpec {self.name}: {len(self.peers)} peers, "
            f"{len(self.mappings)} mappings, {len(self.edits)} edits>"
        )
