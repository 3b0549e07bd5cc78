"""Physical plans for rule bodies: compiled bind-join pipelines.

A rule body is executed as a left-deep pipeline of *bind joins*: atoms are
visited in a planner-chosen order; for each partial substitution the executor
probes the next atom's relation on its already-bound columns (using the
storage layer's hash indexes) and extends the substitution with each matching
row.  Negated atoms become anti-join filters and are scheduled only once all
their variables are bound.

Because the atom order is fixed per plan, *which* columns each atom probes
and *which* positions bind new variables is static — so a :class:`RulePlan`
is compiled once (:func:`compile_plan`) into per-atom templates:

* a **probe template**: the probe column indices plus a value getter that
  reads the probe key straight out of the current environment;
* **extension ops** for the remaining positions (bind a new variable, check
  a repeated variable, or destructure a Skolem pattern);
* prebuilt row constructors for negated atoms and the head.

Substitutions are streamed through the pipeline as compact tuples
("environments") indexed by variable slot, not dicts — extending a
substitution is a tuple concatenation instead of a dict copy.  The
(row, substitution) pairs yielded by :func:`execute_plan` expose the
environment through a lazy read-only mapping for API compatibility.

This is the executor shared by both of the paper's backends; they differ
only in *how the atom order is chosen* (see :mod:`repro.datalog.planner`) —
mirroring Section 5, where the same datalog is run either through an RDBMS
optimizer or through Tukwila's fixed heuristic plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import (
    Callable,
    Collection,
    Iterator,
    Mapping,
    Protocol,
    Sequence,
)

from .ast import (
    Atom,
    Constant,
    DatalogError,
    Rule,
    SkolemTerm,
    SkolemValue,
    Variable,
)

Row = tuple[object, ...]

Env = tuple[object, ...]
"""A compact substitution: values indexed by the plan's variable slots."""


class RowSource(Protocol):
    """What the executor needs from a relation: scan + indexed lookup.

    ``lookup`` may return a live, read-only view of an internal bucket
    (see :meth:`repro.storage.instance.Instance.lookup`); the executor
    never mutates sources mid-iteration, so no defensive copy is taken.
    """

    def __iter__(self) -> Iterator[Row]: ...

    def __contains__(self, row: Sequence[object]) -> bool: ...

    def __len__(self) -> int: ...

    def lookup(
        self, columns: Sequence[int], values: Sequence[object]
    ) -> Collection[Row]: ...


SourceResolver = Callable[[int, Atom], RowSource]
"""Maps (body atom index, atom) to the source it reads this round.

Semi-naive evaluation points one atom occurrence at a delta source and the
rest at the full instances.
"""


@dataclass(frozen=True)
class RulePlan:
    """An execution order for one rule's body atoms.

    ``order`` is a permutation of body-atom indices.  The plan is valid iff
    every negated atom appears after all its variables are bound by earlier
    positive atoms; :func:`check_plan` verifies this.

    ``params`` are *parameter variables*: variables treated as bound before
    the first atom runs.  They occupy the leading environment slots, and
    executing the plan supplies their values as the initial environment —
    this is what lets a prepared query re-bind parameters without
    recompiling (the constant slots stay in the compiled probe templates,
    only the initial environment changes).
    """

    rule: Rule
    order: tuple[int, ...]
    params: tuple[Variable, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))
        if len(set(self.params)) != len(self.params):
            raise PlanError(f"duplicate parameter variables: {self.params!r}")
        check_plan(self.rule, self.order, self.params)


class PlanError(DatalogError):
    """An invalid physical plan was constructed."""


def check_plan(
    rule: Rule,
    order: Sequence[int],
    params: Sequence[Variable] = (),
) -> None:
    if sorted(order) != list(range(len(rule.body))):
        raise PlanError(
            f"order {order!r} is not a permutation of body atoms of {rule!r}"
        )
    bound: set[Variable] = set(params)
    for index in order:
        atom = rule.body[index]
        if atom.negated:
            unbound = atom.variable_set() - bound
            if unbound:
                raise PlanError(
                    f"negated atom {atom!r} scheduled before variables "
                    f"{unbound!r} are bound in {rule!r}"
                )
        else:
            bound |= atom.variable_set()


# ---------------------------------------------------------------------------
# Probe derivation — the single code path shared by the plan compiler, the
# cost-based planner's fan-out estimates, and EXPLAIN rendering.
# ---------------------------------------------------------------------------


def probe_columns(atom: Atom, bound: Collection[Variable]) -> tuple[int, ...]:
    """Positions of ``atom`` probeable given the ``bound`` variable set:
    constants, already-bound variables, and fully bound Skolem patterns
    (which probe as their :class:`SkolemValue`).  Repeated variables are
    handled by the extension ops during row matching, so every bound
    occurrence can participate in the probe key.
    """
    columns: list[int] = []
    for position, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            columns.append(position)
        elif isinstance(term, Variable):
            if term in bound:
                columns.append(position)
        elif _skolem_fully_bound(term, bound):
            columns.append(position)
    return tuple(columns)


def _skolem_fully_bound(
    term: SkolemTerm, bound: Collection[Variable]
) -> bool:
    return all(
        isinstance(arg, Constant)
        or (isinstance(arg, Variable) and arg in bound)
        or (isinstance(arg, SkolemTerm) and _skolem_fully_bound(arg, bound))
        for arg in term.args
    )


# ---------------------------------------------------------------------------
# Plan compilation
# ---------------------------------------------------------------------------

# Extension op kinds (positions the probe did not pin down):
_OP_BIND = 0  # (kind, position)            -> bind a new slot to row[position]
_OP_EQ_NEW = 1  # (kind, position, offset)  -> row[position] == value bound
#                                              earlier in this same atom
_OP_EQ_OLD = 2  # (kind, position, slot)    -> row[position] == env[slot]
_OP_CONST = 3  # (kind, position, value)    -> row[position] == value
_OP_PATTERN = 4  # (kind, position, pattern) -> Skolem destructuring match

# Pattern op kinds (Skolem destructuring, mirrors ast._match_term):
_P_BIND = 0  # (kind,)                -> bind a new slot to the value
_P_EQ_NEW = 1  # (kind, offset)       -> value == value bound in this atom
_P_EQ_OLD = 2  # (kind, slot)         -> value == env[slot]
_P_CONST = 3  # (kind, constant)      -> value == constant
_P_SKOLEM = 4  # (kind, name, args)   -> value is SkolemValue(name, ...);
#                                        match args recursively


def _value_getter(
    term: object, slot_of: Mapping[Variable, int]
) -> Callable[[Env], object]:
    """A closure computing ``term``'s ground value from an environment."""
    if isinstance(term, Constant):
        value = term.value
        return lambda env: value
    if isinstance(term, Variable):
        slot = slot_of[term]
        return lambda env: env[slot]
    if isinstance(term, SkolemTerm):
        name = term.function.name
        args_of = _tuple_getter(term.args, slot_of)
        return lambda env: SkolemValue(name, args_of(env))
    raise PlanError(f"cannot compile term {term!r}")


def _tuple_getter(
    terms: Sequence[object], slot_of: Mapping[Variable, int]
) -> Callable[[Env], Row]:
    """A closure computing a tuple of ground term values from an environment.

    All-variable term lists — the overwhelmingly common case for probes and
    heads — compile to a C-level :func:`operator.itemgetter`.
    """
    if all(isinstance(term, Variable) for term in terms):
        slots = tuple(slot_of[term] for term in terms)
        if len(slots) == 1:
            slot = slots[0]
            return lambda env: (env[slot],)
        if slots:
            return itemgetter(*slots)
        return lambda env: ()
    getters = tuple(_value_getter(term, slot_of) for term in terms)
    return lambda env: tuple([getter(env) for getter in getters])


def _row_builder(
    atom: Atom, slot_of: Mapping[Variable, int]
) -> Callable[[Env], Row]:
    return _tuple_getter(atom.terms, slot_of)


def _compile_pattern(
    term: object, slot_of: dict[Variable, int], width: int
) -> tuple:
    if isinstance(term, Constant):
        return (_P_CONST, term.value)
    if isinstance(term, Variable):
        slot = slot_of.get(term)
        if slot is None:
            slot_of[term] = len(slot_of)
            return (_P_BIND,)
        if slot < width:
            return (_P_EQ_OLD, slot)
        return (_P_EQ_NEW, slot - width)
    if isinstance(term, SkolemTerm):
        return (
            _P_SKOLEM,
            term.function.name,
            tuple(
                _compile_pattern(arg, slot_of, width) for arg in term.args
            ),
        )
    raise PlanError(f"cannot compile pattern {term!r}")


class _Step:
    """One compiled pipeline step (a positive bind-join or an anti-join)."""

    __slots__ = (
        "index",
        "atom",
        "negated",
        "probe_cols",
        "probe_getter",
        "ops",
        "bind_positions",
        "binds_whole_row",
        "row_builder",
    )

    def __init__(self, index: int, atom: Atom) -> None:
        self.index = index
        self.atom = atom
        self.negated = atom.negated
        self.probe_cols: tuple[int, ...] = ()
        self.probe_getter: Callable[[Env], Row] | None = None
        self.ops: tuple[tuple, ...] = ()
        # Fast path: all extension ops bind fresh, distinct variables.
        self.bind_positions: tuple[int, ...] | None = None
        # Fastest path: those binds cover every column in order, so the
        # source row extends the environment verbatim (zero-copy).
        self.binds_whole_row = False
        self.row_builder: Callable[[Env], Row] | None = None


class CompiledPlan:
    """A :class:`RulePlan` with per-atom probe/extension templates."""

    __slots__ = ("plan", "steps", "head_builder", "slot_of", "slot_vars")

    def __init__(self, plan: RulePlan) -> None:
        rule = plan.rule
        self.plan = plan
        # Parameter variables occupy the leading slots, in declaration
        # order; the initial environment at execution time is the tuple of
        # their bound values (empty for parameterless plans).
        slot_of: dict[Variable, int] = {
            var: slot for slot, var in enumerate(plan.params)
        }
        steps: list[_Step] = []
        for index in plan.order:
            atom = rule.body[index]
            step = _Step(index, atom)
            if atom.negated:
                step.row_builder = _row_builder(atom, slot_of)
                steps.append(step)
                continue
            width = len(slot_of)
            step.probe_cols = probe_columns(atom, slot_of)
            if step.probe_cols:
                step.probe_getter = _tuple_getter(
                    tuple(atom.terms[col] for col in step.probe_cols),
                    slot_of,
                )
            probed = set(step.probe_cols)
            ops: list[tuple] = []
            for position, term in enumerate(atom.terms):
                if position in probed:
                    continue  # the indexed lookup guarantees equality
                if isinstance(term, Variable):
                    slot = slot_of.get(term)
                    if slot is None:
                        slot_of[term] = len(slot_of)
                        ops.append((_OP_BIND, position))
                    elif slot < width:
                        ops.append((_OP_EQ_OLD, position, slot))
                    else:
                        ops.append((_OP_EQ_NEW, position, slot - width))
                elif isinstance(term, Constant):
                    ops.append((_OP_CONST, position, term.value))
                else:
                    ops.append(
                        (
                            _OP_PATTERN,
                            position,
                            _compile_pattern(term, slot_of, width),
                        )
                    )
            step.ops = tuple(ops)
            if all(op[0] == _OP_BIND for op in ops):
                step.bind_positions = tuple(op[1] for op in ops)
                step.binds_whole_row = step.bind_positions == tuple(
                    range(atom.arity)
                )
            steps.append(step)
        self.steps = tuple(steps)
        self.head_builder = _row_builder(rule.head, slot_of)
        self.slot_of = slot_of
        self.slot_vars = tuple(
            var for var, _ in sorted(slot_of.items(), key=lambda kv: kv[1])
        )


def compile_plan(plan: RulePlan) -> CompiledPlan:
    """Compile ``plan`` (cached on the plan object)."""
    compiled = getattr(plan, "_compiled", None)
    if compiled is None:
        compiled = CompiledPlan(plan)
        object.__setattr__(plan, "_compiled", compiled)
    return compiled


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _match_pattern(
    pattern: tuple, value: object, env: Env, new: list[object]
) -> bool:
    kind = pattern[0]
    if kind == _P_BIND:
        new.append(value)
        return True
    if kind == _P_EQ_NEW:
        return new[pattern[1]] == value
    if kind == _P_EQ_OLD:
        return env[pattern[1]] == value
    if kind == _P_CONST:
        return pattern[1] == value
    # _P_SKOLEM
    if (
        not isinstance(value, SkolemValue)
        or value.function_name != pattern[1]
        or len(value.args) != len(pattern[2])
    ):
        return False
    return all(
        _match_pattern(sub, arg, env, new)
        for sub, arg in zip(pattern[2], value.args)
    )


def _extend(env: Env, row: Row, ops: tuple[tuple, ...]) -> Env | None:
    new: list[object] = []
    for op in ops:
        kind = op[0]
        if kind == _OP_BIND:
            new.append(row[op[1]])
        elif kind == _OP_EQ_NEW:
            if new[op[2]] != row[op[1]]:
                return None
        elif kind == _OP_EQ_OLD:
            if env[op[2]] != row[op[1]]:
                return None
        elif kind == _OP_CONST:
            if op[2] != row[op[1]]:
                return None
        else:  # _OP_PATTERN
            if not _match_pattern(op[2], row[op[1]], env, new):
                return None
    return env + tuple(new)


class PlanSubstitution(Mapping):
    """Read-only variable->value view over a compact environment tuple."""

    __slots__ = ("_slot_of", "_env")

    def __init__(self, slot_of: Mapping[Variable, int], env: Env) -> None:
        self._slot_of = slot_of
        self._env = env

    def __getitem__(self, var: Variable) -> object:
        return self._env[self._slot_of[var]]

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._slot_of)

    def __len__(self) -> int:
        return len(self._slot_of)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{var!r}: {value!r}" for var, value in self.items()
        )
        return f"{{{inner}}}"


def _extend_all(
    envs: list[Env], rows: Collection[Row], step: _Step
) -> list[Env]:
    """Cross ``envs`` with ``rows`` through the step's extension template.

    Used on the full-scan path, where every environment sees the same rows.
    """
    binds = step.bind_positions
    if binds is not None:
        if step.binds_whole_row:
            if envs == [()]:
                return list(rows)
            return [env + row for env in envs for row in rows]
        extensions = [tuple(row[p] for p in binds) for row in rows]
        return [env + extension for env in envs for extension in extensions]
    next_envs: list[Env] = []
    ops = step.ops
    for env in envs:
        for row in rows:
            extended = _extend(env, row, ops)
            if extended is not None:
                next_envs.append(extended)
    return next_envs


def _run_pipeline(
    compiled: CompiledPlan, resolve: SourceResolver, init_env: Env = ()
) -> list[Env]:
    """Push environments through every compiled step; the pipeline core.

    ``init_env`` pre-binds the plan's parameter slots (see
    :attr:`RulePlan.params`)."""
    envs: list[Env] = [init_env]
    for step in compiled.steps:
        source = resolve(step.index, step.atom)
        if step.negated:
            build = step.row_builder
            envs = [env for env in envs if build(env) not in source]
        elif step.probe_cols:
            cols = step.probe_cols
            probe = step.probe_getter
            lookup = source.lookup
            next_envs: list[Env] = []
            binds = step.bind_positions
            if binds is not None:
                # (binds never covers the whole row here: probed columns
                # are excluded from the bind template by construction.)
                for env in envs:
                    for row in lookup(cols, probe(env)):
                        next_envs.append(
                            env + tuple(row[p] for p in binds)
                        )
            else:
                ops = step.ops
                for env in envs:
                    for row in lookup(cols, probe(env)):
                        extended = _extend(env, row, ops)
                        if extended is not None:
                            next_envs.append(extended)
            envs = next_envs
        else:
            # Snapshot the scan: sources may expose live views.
            envs = _extend_all(envs, tuple(source), step)
        if not envs:
            break
    return envs


def _init_env(plan: RulePlan, params: Sequence[object]) -> Env:
    """Validate and shape parameter values into the initial environment."""
    if len(params) != len(plan.params):
        raise PlanError(
            f"plan expects {len(plan.params)} parameter values "
            f"({', '.join(v.name for v in plan.params) or 'none'}), "
            f"got {len(params)}"
        )
    return tuple(params)


def run_plan(
    plan: RulePlan,
    resolve: SourceResolver,
    row_filter: Callable[[Row], bool] | None = None,
    params: Sequence[object] = (),
) -> list[Row]:
    """Run a rule plan to a materialized list of head rows.

    The engine's hot path: no generator machinery and no substitution
    objects are created.  ``row_filter`` (if given) drops head rows before
    they are collected — this is where trust conditions are applied during
    update exchange (Section 4.2).  ``params`` supplies one value per
    :attr:`RulePlan.params` variable, in order.
    """
    compiled = compile_plan(plan)
    envs = _run_pipeline(compiled, resolve, _init_env(plan, params))
    head_builder = compiled.head_builder
    if row_filter is None:
        return [head_builder(env) for env in envs]
    return [
        row for row in map(head_builder, envs) if row_filter(row)
    ]


def execute_plan(
    plan: RulePlan,
    resolve: SourceResolver,
    head_filter: Callable[[Row, Mapping[Variable, object]], bool] | None = None,
    params: Sequence[object] = (),
) -> Iterator[tuple[Row, Mapping[Variable, object]]]:
    """Run a rule plan, yielding (head row, substitution) pairs.

    ``head_filter`` (if given) drops derivations before they are yielded.
    The substitution is a lazy read-only mapping over the plan's compact
    environment; it stays valid after the generator advances.  ``params``
    supplies one value per :attr:`RulePlan.params` variable, in order.
    Callers that only need the head rows should prefer :func:`run_plan`.
    """
    compiled = compile_plan(plan)
    head_builder = compiled.head_builder
    slot_of = compiled.slot_of
    for env in _run_pipeline(compiled, resolve, _init_env(plan, params)):
        head_row = head_builder(env)
        subst = PlanSubstitution(slot_of, env)
        if head_filter is None or head_filter(head_row, subst):
            yield head_row, subst
