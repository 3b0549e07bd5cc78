"""Internal schema expansion: R^l, R^r, R^i, R^t, R^o (Figure 2).

Section 3.1 expands each user relation ``R`` into four internal relations
(plus the trusted table ``R^t`` of Section 3.3):

* ``R__l`` — local contributions (edit-log inserts not later deleted),
* ``R__r`` — rejections (curation deletions of non-local data),
* ``R__i`` — input: tuples produced by update translation via mappings,
* ``R__t`` — the trusted subset of the input (Section 3.3),
* ``R__o`` — the curated output table: what users query and what outgoing
  mappings read.

and rewrites the mappings over the internal schema:

* each tgd's LHS relations become ``R__o`` and RHS relations ``R__i``,
* (iR): ``R__t = trusted(R__i)`` — realized as per-mapping rules so trust
  conditions can be attached per mapping (see
  :mod:`repro.provenance.relations`),
* (tR): ``R__t(x) and not R__r(x) -> R__o(x)``,
* (lR): ``R__l(x) -> R__o(x)``.

Internal names use a double-underscore suffix to avoid colliding with user
relation names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..datalog.ast import Atom, Program, Rule, Variable
from ..storage.database import Database
from .relation import PeerSchema, RelationSchema, SchemaError
from .tgd import SchemaMapping
from .weak_acyclic import require_weakly_acyclic

LOCAL_SUFFIX = "__l"
REJECTION_SUFFIX = "__r"
INPUT_SUFFIX = "__i"
TRUSTED_SUFFIX = "__t"
OUTPUT_SUFFIX = "__o"

LOCAL_RULE_PREFIX = "lR:"
TRUST_RULE_PREFIX = "tR:"


def local_name(relation: str) -> str:
    return relation + LOCAL_SUFFIX


def rejection_name(relation: str) -> str:
    return relation + REJECTION_SUFFIX


def input_name(relation: str) -> str:
    return relation + INPUT_SUFFIX


def trusted_name(relation: str) -> str:
    return relation + TRUSTED_SUFFIX


def output_name(relation: str) -> str:
    return relation + OUTPUT_SUFFIX


@dataclass(frozen=True)
class InternalSchema:
    """The expanded internal schema and mapping rules for a CDSS.

    Construction validates the mappings against the union schema and checks
    weak acyclicity (Section 3.1's restriction).
    """

    peer_schemas: tuple[PeerSchema, ...]
    mappings: tuple[SchemaMapping, ...]
    catalog: dict[str, RelationSchema] = field(
        default=None, compare=False, repr=False
    )  # type: ignore[assignment]
    owner_of: dict[str, str] = field(
        default=None, compare=False, repr=False
    )  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "peer_schemas", tuple(self.peer_schemas))
        object.__setattr__(self, "mappings", tuple(self.mappings))
        catalog: dict[str, RelationSchema] = {}
        owner_of: dict[str, str] = {}
        for peer_schema in self.peer_schemas:
            for relation in peer_schema.relations:
                if relation.name in catalog:
                    raise SchemaError(
                        f"relation {relation.name!r} declared by two peers "
                        f"({owner_of[relation.name]!r} and "
                        f"{peer_schema.peer!r}); peer schemas must be disjoint"
                    )
                catalog[relation.name] = relation
                owner_of[relation.name] = peer_schema.peer
        object.__setattr__(self, "catalog", catalog)
        object.__setattr__(self, "owner_of", owner_of)
        names = [m.name for m in self.mappings]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate mapping names: {names!r}")
        for mapping in self.mappings:
            mapping.validate(catalog)
        require_weakly_acyclic(self.mappings)

    # -- lookups ---------------------------------------------------------

    def relation_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.catalog))

    def arity_of(self, relation: str) -> int:
        return self.catalog[relation].arity

    def peer_of_relation(self, relation: str) -> str:
        return self.owner_of[relation]

    def mapping_by_name(self, name: str) -> SchemaMapping:
        for mapping in self.mappings:
            if mapping.name == name:
                return mapping
        raise SchemaError(f"no mapping named {name!r}")

    def target_peers(self, mapping: SchemaMapping) -> frozenset[str]:
        """The peers owning the mapping's RHS relations."""
        return frozenset(
            self.owner_of[rel] for rel in mapping.target_relations()
        )

    def source_peers(self, mapping: SchemaMapping) -> frozenset[str]:
        return frozenset(
            self.owner_of[rel] for rel in mapping.source_relations()
        )

    # -- internal rules -----------------------------------------------------

    def mapping_rules(self) -> tuple[Rule, ...]:
        """Skolemized tgd rules over the internal schema: ``LHS^o -> RHS^i``."""
        rules: list[Rule] = []
        for mapping in self.mappings:
            rules.extend(
                mapping.to_rules(
                    rename=lambda rel, side: (
                        output_name(rel) if side == "source" else input_name(rel)
                    )
                )
            )
        return tuple(rules)

    def bookkeeping_rules(self) -> tuple[Rule, ...]:
        """The (tR) and (lR) rules for every relation (Sections 3.1, 3.3).

        The (iR) trust-selection rules are *not* generated here: the
        provenance encoding (:mod:`repro.provenance.relations`) emits them
        per mapping, so per-mapping trust conditions can be attached.
        """
        rules: list[Rule] = []
        for name in self.relation_names():
            schema = self.catalog[name]
            variables = tuple(
                Variable(f"x{i}") for i in range(schema.arity)
            )
            rules.append(
                Rule(
                    Atom(output_name(name), variables),
                    (
                        Atom(trusted_name(name), variables),
                        Atom(rejection_name(name), variables, negated=True),
                    ),
                    label=TRUST_RULE_PREFIX + name,
                )
            )
            rules.append(
                Rule(
                    Atom(output_name(name), variables),
                    (Atom(local_name(name), variables),),
                    label=LOCAL_RULE_PREFIX + name,
                )
            )
        return tuple(rules)

    def plain_program(self) -> Program:
        """A provenance-free executable program (used by baselines/tests).

        Adds the trivial (iR) rules ``R__t(x) :- R__i(x)`` so the program is
        closed; trust conditions cannot be attached per mapping in this form.
        """
        rules = list(self.mapping_rules()) + list(self.bookkeeping_rules())
        for name in self.relation_names():
            schema = self.catalog[name]
            variables = tuple(
                Variable(f"x{i}") for i in range(schema.arity)
            )
            rules.append(
                Rule(
                    Atom(trusted_name(name), variables),
                    (Atom(input_name(name), variables),),
                    label=f"iR:{name}",
                )
            )
        return Program(tuple(rules), name="internal-mappings-plain")

    # -- database setup ------------------------------------------------------

    def edb_names(self) -> tuple[str, ...]:
        out: list[str] = []
        for name in self.relation_names():
            out.append(local_name(name))
            out.append(rejection_name(name))
        return tuple(out)

    def setup_database(self, db: Database) -> None:
        """Create every internal relation in ``db`` (idempotent)."""
        for name in self.relation_names():
            arity = self.arity_of(name)
            for internal in (
                local_name(name),
                rejection_name(name),
                input_name(name),
                trusted_name(name),
                output_name(name),
            ):
                db.ensure(internal, arity)

    def relations_of_peer(self, peer: str) -> tuple[str, ...]:
        return tuple(
            name
            for name in self.relation_names()
            if self.owner_of[name] == peer
        )


def build_internal_schema(
    peer_schemas: Iterable[PeerSchema], mappings: Iterable[SchemaMapping]
) -> InternalSchema:
    """Convenience constructor with validation."""
    return InternalSchema(tuple(peer_schemas), tuple(mappings))
