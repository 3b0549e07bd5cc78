"""EXPLAIN facilities: render plans and programs for inspection.

The paper's Section 5.1 experience — "the query optimizer occasionally
chose poor plans in executing the rules" and required "extensive tuning" —
is exactly the situation where an operator needs to *see* the plan.  This
module renders rule plans as bind-join pipelines (with the probe columns
each step will use) and whole programs with their components and
strata, both as plain text.
"""

from __future__ import annotations

from ..storage.database import Database
from .ast import Program, Rule, SkolemTerm, Variable
from .plan import RulePlan, probe_columns
from .planner import Planner, PreparedPlanner
from .stratify import stratify, twin_groups


def explain_plan(plan: RulePlan, db: Database | None = None) -> str:
    """Render one rule plan as a numbered bind-join pipeline.

    Each step shows the atom, whether it is a scan / indexed probe /
    anti-join, which columns are bound when it runs, and (when a database is
    supplied) the current cardinality of the relation it reads.
    """
    rule = plan.rule
    lines = [f"plan for {rule!r}"]
    if plan.params:
        names = ", ".join(v.name for v in plan.params)
        lines.append(f"  parameters (bound at execute): {names}")
    # Parameter variables occupy pre-bound environment slots, so they are
    # probeable from the first step on — mirror the compiler's view.
    bound: set[Variable] = set(plan.params)
    for step, index in enumerate(plan.order, start=1):
        atom = rule.body[index]
        # Shares the executor's probe-derivation code path, so EXPLAIN
        # output shows exactly the columns the compiled plan will probe.
        probe_cols = probe_columns(atom, bound)
        if atom.negated:
            kind = "anti-join"
        elif probe_cols:
            kind = f"index probe on columns {list(probe_cols)}"
        else:
            kind = "full scan"
        size = ""
        if db is not None and atom.predicate in db:
            size = f" [{len(db[atom.predicate])} rows]"
        lines.append(f"  {step}. {atom!r}: {kind}{size}")
        if not atom.negated:
            bound |= atom.variable_set()
    head_skolems = [
        term for term in rule.head.terms if isinstance(term, SkolemTerm)
    ]
    if head_skolems:
        names = ", ".join(t.function.name for t in head_skolems)
        lines.append(f"  => emit {rule.head!r} (labeled nulls via {names})")
    else:
        lines.append(f"  => emit {rule.head!r}")
    return "\n".join(lines)


def explain_program(
    program: Program,
    db: Database | None = None,
    planner: Planner | None = None,
) -> str:
    """Render a whole program: its components in evaluation order (each
    with its stratum and recursive flag), rules, and each rule's plan; a
    rule that reuses a twin's plan run names that twin."""
    planner = planner or PreparedPlanner()
    scratch = db if db is not None else Database()
    stratification = stratify(program)
    components = stratification.components
    twins = twin_groups(components)
    recursive = sum(component.recursive for component in components)
    lines = [
        f"program {program.name or '(anonymous)'}: "
        f"{len(program)} rules, {len(stratification)} strata, "
        f"{len(components)} components ({recursive} recursive)"
    ]
    for number, component in enumerate(components):
        members = sorted(component.predicates)
        stratum = stratification.predicate_stratum[members[0]]
        kind = "recursive" if component.recursive else "non-recursive"
        lines.append(
            f"component {number} (stratum {stratum}, {kind}): "
            + ", ".join(members)
        )
        for rule in component.rules:
            plan = planner.plan(rule, scratch, None)
            plan_text = explain_plan(plan, db)
            lines.extend("  " + line for line in plan_text.splitlines())
            if twins.get(id(rule), rule) is not rule:
                leader = twins[id(rule)].head.predicate
                lines.append(f"    shares evaluation with {leader}")
    return "\n".join(lines)


def explain_rule(
    rule: Rule, db: Database | None = None, planner: Planner | None = None
) -> str:
    """Plan and explain one rule against a database."""
    planner = planner or PreparedPlanner()
    scratch = db if db is not None else Database()
    return explain_plan(planner.plan(rule, scratch, None), db)
