"""Test oracle: the inverse-rule datalog program of Section 4.1.3, as
actual datalog.

:mod:`repro.core.derivation` implements derivation testing directly
(backward slice + grounding).  This module constructs the paper's
formulation *literally* — a datalog program run by the ordinary engine:

* ``Rchk`` relations seed the tuples whose derivation is being checked;
* inverse rules ``P'Ri(x, y) :- PRi(x, y), Rchk(x, f(x))`` use the stored
  provenance tables "to fill in the possible values ... that were projected
  away during the mapping" (Skolem patterns in the ``Rchk`` atom bind the
  labeled nulls' arguments);
* slice rules push the check down to the source tuples of each surviving
  provenance row, reaching fixpoint on the backward slice;
* a validation program then re-runs the original mappings *restricted to
  the slice* from the local-contribution tables, respecting trust
  conditions and rejections — "validate that the Rchk tuples can indeed be
  re-derived if we run the original datalog program over the R'
  instances".

Nothing in ``repro`` uses this program: the direct implementation is what
the incremental engine runs (it avoids materializing the intermediate
relations), and ``test_core_inverse_rules.py`` cross-checks it against
this one on randomized workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.datalog.ast import Atom, Program, Rule, Variable
from repro.datalog.engine import HeadFilter, SemiNaiveEngine
from repro.provenance.relations import ProvenanceEncoding
from repro.provenance.semiring import Token
from repro.schema.internal import (
    LOCAL_RULE_PREFIX,
    local_name,
    rejection_name,
)
from repro.storage.database import Database
from repro.storage.instance import Row

CHECK_PREFIX = "__chk_"
SLICE_PROV_PREFIX = "__slice_"
VALID_LOCAL_PREFIX = "__vl_"
VALID_TRUSTED_PREFIX = "__vt_"
VALID_OUTPUT_PREFIX = "__vo_"
VALID_PROV_PREFIX = "__vp_"


def check_name(relation: str) -> str:
    return CHECK_PREFIX + relation


def valid_output_name(relation: str) -> str:
    return VALID_OUTPUT_PREFIX + relation


@dataclass(frozen=True)
class InverseRuleProgram:
    """The two-phase program: backward slice, then validation."""

    slice_program: Program
    validation_program: Program
    head_filters: dict[str, HeadFilter]


def build_inverse_program(
    encoding: ProvenanceEncoding,
    head_filters: Mapping[str, HeadFilter] | None = None,
) -> InverseRuleProgram:
    """Construct the Section 4.1.3 program for an encoding."""
    head_filters = dict(head_filters or {})
    internal = encoding.internal
    slice_rules: list[Rule] = []
    validation_rules: list[Rule] = []
    new_filters: dict[str, HeadFilter] = {}

    for table in encoding.tables:
        prov_atom = Atom(table.relation, table.variables)
        slice_prov = SLICE_PROV_PREFIX + table.relation
        slice_prov_atom = Atom(slice_prov, table.variables)
        for head in table.heads:
            # P'Ri(x, y) :- Rchk(head pattern), PRi(x, y)
            # The Rchk atom's Skolem patterns bind the projected-away
            # attributes through the labeled nulls.
            check_atom = Atom(
                check_name(head.user_relation), head.atom.terms
            )
            slice_rules.append(
                Rule(
                    slice_prov_atom,
                    (check_atom, prov_atom),
                    label=f"inv:{table.relation}:{head.index}",
                )
            )
        # Push the check down to every positive source tuple.
        for _index, atom in table.positive_body_atoms():
            user_rel = atom.predicate[: -len("__o")]
            slice_rules.append(
                Rule(
                    Atom(check_name(user_rel), atom.terms),
                    (slice_prov_atom,),
                    label=f"down:{table.relation}:{user_rel}",
                )
            )

        # Validation: re-run the mapping over the validated sources.
        valid_body = tuple(
            Atom(
                VALID_OUTPUT_PREFIX + a.predicate[: -len("__o")],
                a.terms,
                negated=a.negated,
            )
            if not a.negated
            else Atom(a.predicate, a.terms, negated=True)
            for a in table.body
        )
        valid_prov = VALID_PROV_PREFIX + table.relation
        validation_rules.append(
            Rule(
                Atom(valid_prov, table.variables),
                valid_body,
                label=f"vprov:{table.relation}",
            )
        )
        for head in table.heads:
            label = f"vtrust:{head.trust_label}"
            validation_rules.append(
                Rule(
                    Atom(
                        VALID_TRUSTED_PREFIX + head.user_relation,
                        head.atom.terms,
                    ),
                    (Atom(valid_prov, table.variables),),
                    label=label,
                )
            )
            condition = head_filters.get(head.trust_label)
            if condition is not None:
                new_filters[label] = condition

    for relation in internal.relation_names():
        arity = internal.arity_of(relation)
        variables = tuple(Variable(f"x{i}") for i in range(arity))
        # Valid locals: contributions inside the slice.
        label = f"vlocal:{relation}"
        validation_rules.append(
            Rule(
                Atom(VALID_LOCAL_PREFIX + relation, variables),
                (
                    Atom(local_name(relation), variables),
                    Atom(check_name(relation), variables),
                ),
                label=label,
            )
        )
        token_filter = head_filters.get(LOCAL_RULE_PREFIX + relation)
        if token_filter is not None:
            new_filters[label] = token_filter
        # Output-validity mirrors (lR) and (tR).
        validation_rules.append(
            Rule(
                Atom(VALID_OUTPUT_PREFIX + relation, variables),
                (Atom(VALID_LOCAL_PREFIX + relation, variables),),
                label=f"vlR:{relation}",
            )
        )
        validation_rules.append(
            Rule(
                Atom(VALID_OUTPUT_PREFIX + relation, variables),
                (
                    Atom(VALID_TRUSTED_PREFIX + relation, variables),
                    Atom(rejection_name(relation), variables, negated=True),
                ),
                label=f"vtR:{relation}",
            )
        )

    return InverseRuleProgram(
        slice_program=Program(tuple(slice_rules), name="inverse-slice"),
        validation_program=Program(
            tuple(validation_rules), name="inverse-validate"
        ),
        head_filters=new_filters,
    )


def derivable_by_inverse_rules(
    db: Database,
    encoding: ProvenanceEncoding,
    checks: Iterable[Token],
    head_filters: Mapping[str, HeadFilter] | None = None,
) -> dict[Token, bool]:
    """Run the Section 4.1.3 program and report output-derivability.

    The scratch relations are created in (and afterwards removed from) the
    given database, mirroring ORCHESTRA's use of temporary tables.
    """
    checks = [(relation, tuple(row)) for relation, row in checks]
    program = build_inverse_program(encoding, head_filters)
    internal = encoding.internal
    scratch: list[str] = []
    try:
        # Seed the Rchk relations.
        for relation in internal.relation_names():
            arity = internal.arity_of(relation)
            for prefix in (
                CHECK_PREFIX,
                VALID_LOCAL_PREFIX,
                VALID_TRUSTED_PREFIX,
                VALID_OUTPUT_PREFIX,
            ):
                name = prefix + relation
                db.ensure(name, arity)
                scratch.append(name)
        for table in encoding.tables:
            for prefix in (SLICE_PROV_PREFIX, VALID_PROV_PREFIX):
                name = prefix + table.relation
                db.ensure(name, table.arity)
                scratch.append(name)
        for relation, row in checks:
            db[check_name(relation)].insert(row)

        engine = SemiNaiveEngine(head_filters=program.head_filters)
        engine.run(program.slice_program, db)
        engine.run(program.validation_program, db)
        return {
            (relation, row): row in db[valid_output_name(relation)]
            for relation, row in checks
        }
    finally:
        for name in set(scratch):
            db.drop(name)
