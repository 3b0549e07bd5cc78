"""Stratification of datalog programs with (safe) negation.

The internal mappings of Section 3.1 contain negation — e.g. rule (tR):
``Rt(x) and not Rr(x) -> Ro(x)`` — but only over relations that are not
recursively defined through the negation.  This module computes a
stratification: an ordered partition of the IDB predicates such that

* positive dependencies stay within or point to earlier strata, and
* negative dependencies point strictly to earlier strata.

Programs where a predicate depends negatively on itself through a cycle are
rejected with :class:`StratificationError`.  Strongly connected components
are found with Tarjan's algorithm (iterative, to avoid recursion limits on
large mapping networks); they are also the engine's unit of evaluation
(:attr:`Stratification.components`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast import DatalogError, Program, Rule


class StratificationError(DatalogError):
    """The program is not stratifiable (negation through recursion)."""


@dataclass(frozen=True)
class Component:
    """One strongly connected component of the predicate graph.

    ``recursive`` is true for a cycle of two or more predicates or a
    predicate that reads itself; ``inputs`` are the predicates its rules
    read positively (its own included)."""

    predicates: frozenset[str]
    rules: tuple[Rule, ...]
    recursive: bool
    inputs: frozenset[str]


@dataclass(frozen=True)
class Stratification:
    """An ordered partition of a program's rules into strata, plus the
    strongly connected components in topological (evaluation) order."""

    strata: tuple[tuple[Rule, ...], ...]
    predicate_stratum: dict[str, int]
    components: tuple[Component, ...]

    def __len__(self) -> int:
        return len(self.strata)


def _dependency_edges(
    program: Program,
) -> tuple[set[tuple[str, str]], set[tuple[str, str]]]:
    """Return (positive, negative) edge sets: head depends on body."""
    idb = program.idb_predicates()
    positive: set[tuple[str, str]] = set()
    negative: set[tuple[str, str]] = set()
    for rule in program:
        for atom in rule.body:
            if atom.predicate not in idb:
                continue
            edge = (rule.head.predicate, atom.predicate)
            if atom.negated:
                negative.add(edge)
            else:
                positive.add(edge)
    return positive, negative


def _tarjan_sccs(
    nodes: list[str], successors: dict[str, list[str]]
) -> list[list[str]]:
    """Strongly connected components in reverse topological order."""
    index_of: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0

    for start in nodes:
        if start in index_of:
            continue
        work: list[tuple[str, int]] = [(start, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                index_of[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = successors.get(node, [])
            while child_index < len(children):
                child = children[child_index]
                child_index += 1
                if child not in index_of:
                    work[-1] = (node, child_index)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[child])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index_of[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return sccs


def stratify(program: Program) -> Stratification:
    """Compute a stratification of ``program``.

    Raises :class:`StratificationError` if some predicate depends negatively
    on itself (directly or through a cycle).
    """
    idb = sorted(program.idb_predicates())
    positive, negative = _dependency_edges(program)
    successors: dict[str, list[str]] = {p: [] for p in idb}
    for head, dep in sorted(positive | negative):
        successors[head].append(dep)

    sccs = _tarjan_sccs(idb, successors)  # reverse topological order
    component_of: dict[str, int] = {}
    for comp_id, members in enumerate(sccs):
        for member in members:
            component_of[member] = comp_id

    # Negative edges within one SCC are unstratifiable.
    for head, dep in negative:
        if component_of[head] == component_of[dep]:
            raise StratificationError(
                f"predicate {head!r} depends negatively on {dep!r} within a "
                "recursive cycle; the program is not stratifiable"
            )

    # Longest-path layering over the component DAG: a component's stratum is
    # 1 + max over dependencies (strictly greater across negative edges,
    # greater-or-equal across positive ones).  Components arrive in reverse
    # topological order, so dependencies are processed first.
    stratum_of_component: dict[int, int] = {}
    for comp_id, members in enumerate(sccs):
        level = 0
        for member in members:
            for dep in successors.get(member, []):
                dep_comp = component_of[dep]
                if dep_comp == comp_id:
                    continue
                dep_level = stratum_of_component[dep_comp]
                if (member, dep) in negative:
                    level = max(level, dep_level + 1)
                else:
                    level = max(level, dep_level)
        stratum_of_component[comp_id] = level

    predicate_stratum = {
        pred: stratum_of_component[component_of[pred]] for pred in idb
    }
    if predicate_stratum:
        count = max(predicate_stratum.values()) + 1
    else:
        count = 0
    buckets: list[list[Rule]] = [[] for _ in range(count)]
    by_component: list[list[Rule]] = [[] for _ in sccs]
    for rule in program:
        buckets[predicate_stratum[rule.head.predicate]].append(rule)
        by_component[component_of[rule.head.predicate]].append(rule)
    # Tarjan emits a component after every component it depends on, so
    # ``sccs`` is already an evaluation order.
    components = tuple(
        Component(
            predicates=frozenset(members),
            rules=tuple(rules),
            recursive=len(members) > 1 or (members[0], members[0]) in positive,
            inputs=frozenset(
                atom.predicate
                for rule in rules
                for atom in rule.body
                if not atom.negated
            ),
        )
        for members, rules in zip(sccs, by_component)
    )
    return Stratification(
        strata=tuple(tuple(bucket) for bucket in buckets),
        predicate_stratum=predicate_stratum,
        components=components,
    )


def twin_groups(components: tuple[Component, ...]) -> dict[int, Rule]:
    """``id(rule) -> leader`` for each rule of a non-recursive component
    whose ``body`` and head terms another such rule repeats; the leader
    runs first.  In the exchange program: each head's proj/trust pair."""
    groups: dict[tuple, list[Rule]] = {}
    for component in components:
        for rule in () if component.recursive else component.rules:
            groups.setdefault((rule.body, rule.head.terms), []).append(rule)
    return {
        id(rule): group[0]
        for group in groups.values()
        if len(group) > 1
        for rule in group
    }
