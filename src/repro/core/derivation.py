"""Goal-directed derivation testing (Section 4.1.3).

Given a set of tuples whose derivability is in question (``Rchk``), the test
must decide whether each is (still) derivable from edbs — the local
contributions tables — using the stored provenance.  The paper inverts the
mapping rules: the provenance tables "fill in the possible values that were
projected away during the mapping", so the relevant slice of the database
can be walked *backwards* from the checked tuples, after which the original
mappings are re-run over the slice to validate genuine (well-founded)
derivability.

Our implementation realizes exactly that plan:

1. **Backward slice** — from each checked tuple, follow
   :meth:`ProvenanceTable.supporting_rows` (the compiled inverse rules)
   recursively to collect every provenance-table row and source tuple that
   could participate in a derivation.  Each tuple is probed once; a caller
   that already probed the checked tuples hands their support in.
2. **Grounding** — compute the least fixpoint of "derivable from local
   contributions" *within the slice*: a tuple is grounded iff it is a
   filtered local contribution, or some trusted supporting rule
   instantiation has all its sources grounded and the tuple is not
   rejected.  A worklist does it in one pass over the slice's edges: each
   provenance row counts its ungrounded sources, each tuple lists the rows
   waiting on it, and a tuple enters the worklist when the count of one of
   its trusted rows reaches zero.  Cyclic mutual support grounds nothing,
   which is the entire point (Section 4.2's "garbage collection" of tuples
   only derivable through loops).

Two verdicts are produced per checked tuple, because the internal schema
distinguishes the unfiltered input table from the trusted/curated chain:

* ``trusted`` — the tuple belongs in ``R__o`` (trusted derivation, not
  rejected, or a local contribution);
* ``any`` — the tuple belongs in ``R__i`` (some derivation from grounded
  sources exists, trusted or not, rejection irrelevant).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from ..provenance.relations import HeadTarget, ProvenanceEncoding
from ..provenance.semiring import Token
from ..schema.internal import LOCAL_RULE_PREFIX, local_name, rejection_name
from ..storage.database import Database
from ..storage.instance import Row

HeadFilters = Mapping[str, Callable[[Row], bool]]

#: One provenance row supporting a tuple: the tuples it joined (its
#: sources) and whether the step passes its mapping's trust condition.
SupportEntry = tuple[tuple[Token, ...], bool]


@dataclass(frozen=True)
class DerivabilityVerdict:
    """The three derivability answers for one checked tuple, one per stage
    of the internal chain ``R__i -> R__t -> R__o`` (Fig. 2)."""

    output: bool  # belongs in R__o (local, or trusted + not rejected)
    trusted: bool  # belongs in R__t (trusted derivation; rejection ignored)
    any: bool  # belongs in R__i (some derivation, trust ignored)


@dataclass
class DerivationTest:
    """Reusable derivability tester bound to one database + encoding."""

    db: Database
    encoding: ProvenanceEncoding
    head_filters: HeadFilters = field(default_factory=dict)

    # Instrumentation (read by benchmarks/tests):
    slice_tuples_visited: int = 0
    support_rows_visited: int = 0

    # -- filters -----------------------------------------------------------

    def _local_ok(self, relation: str, row: Row) -> bool:
        if row not in self.db[local_name(relation)]:
            return False
        token_filter = self.head_filters.get(LOCAL_RULE_PREFIX + relation)
        return token_filter is None or token_filter(row)

    def _trust_ok(self, head: HeadTarget, row: Row) -> bool:
        condition = self.head_filters.get(head.trust_label)
        return condition is None or condition(row)

    def _rejected(self, relation: str, row: Row) -> bool:
        return row in self.db[rejection_name(relation)]

    # -- the test -------------------------------------------------------------

    def direct_support(
        self, relation: str, row: Row, trusted_only: bool = False
    ) -> list[SupportEntry]:
        """Probe the inverse rules for one tuple: one entry per provenance
        row deriving it, untrusted steps skipped if ``trusted_only``."""
        entries: list[SupportEntry] = []
        for table, head in self.encoding.targets_for_relation(relation):
            trusted = self._trust_ok(head, row)
            if trusted_only and not trusted:
                continue
            for prow in table.supporting_rows(self.db, head, row):
                entries.append((table.source_tuples(prow), trusted))
        self.support_rows_visited += len(entries)
        return entries

    def derivable(
        self,
        checks: Iterable[Token],
        support: Mapping[Token, list[SupportEntry]] | None = None,
    ) -> dict[Token, DerivabilityVerdict]:
        """Decide derivability-from-edbs for each checked (relation, row).

        ``support`` may carry the :meth:`direct_support` of checked tuples
        the caller already probed; the slice starts from it instead of
        probing them again.
        """
        checks = [(relation, tuple(row)) for relation, row in checks]
        check_set = set(checks)
        given = support or {}
        # node -> its support entries as [ungrounded source count, trusted]
        counts: dict[Token, list[list]] = {}
        # tuple -> the (entry, node) pairs waiting for it to ground
        waiting: dict[Token, list[tuple[list, Token]]] = {}
        sourceless: list[Token] = []  # tuples with a trusted bodiless step
        visited: set[Token] = set()
        stack: list[Token] = list(checks)

        # 1. Backward slice via the inverse rules.
        while stack:
            node = stack.pop()
            if node in visited:
                continue
            visited.add(node)
            self.slice_tuples_visited += 1
            relation, row = node
            is_check = node in check_set
            if is_check and node in given:
                entries = given[node]
            elif (
                not is_check
                and self._rejected(relation, row)
                and not self._local_ok(relation, row)
            ):
                # A rejected non-local tuple cannot be in R__o, so as a
                # *source* it is dead; its mapped support is irrelevant.
                continue
            else:
                # Untrusted support only matters for R__i verdicts of
                # checked tuples.
                entries = self.direct_support(relation, row, not is_check)
            node_counts = counts[node] = []
            for sources, trusted_step in entries:
                distinct = set(sources)
                entry = [len(distinct), trusted_step]
                node_counts.append(entry)
                for source in distinct:
                    waiting.setdefault(source, []).append((entry, node))
                    if source not in visited:
                        stack.append(source)
                if trusted_step and not distinct:
                    sourceless.append(node)

        # 2. Grounding worklist within the slice (R__o semantics): seed
        # with the local contributions, ground a tuple when one of its
        # trusted entries has no ungrounded source left.
        grounded: set[Token] = {
            node for node in visited if self._local_ok(node[0], node[1])
        }
        grounded.update(
            node for node in sourceless if not self._rejected(node[0], node[1])
        )
        worklist = list(grounded)
        while worklist:
            for entry, node in waiting.get(worklist.pop(), ()):
                entry[0] -= 1
                if (
                    not entry[0]
                    and entry[1]
                    and node not in grounded
                    and not self._rejected(node[0], node[1])
                ):
                    grounded.add(node)
                    worklist.append(node)

        # 3. Verdicts, read off the same counts.
        verdicts: dict[Token, DerivabilityVerdict] = {}
        for node in checks:
            node_counts = counts.get(node, ())
            verdicts[node] = DerivabilityVerdict(
                output=node in grounded,
                trusted=any(e[1] and not e[0] for e in node_counts),
                any=any(not e[0] for e in node_counts),
            )
        return verdicts

    def is_derivable(self, relation: str, row: Iterable[object]) -> bool:
        """True iff the tuple belongs in ``R__o`` (trusted derivability)."""
        node = (relation, tuple(row))
        return self.derivable([node])[node].output
