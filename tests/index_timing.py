"""When a hash index comes to exist: the one choice index maintenance
still leaves open, shared by the storage tests.

* ``eager``: the index is declared before the mutations, so every
  mutation patches it;
* ``deferred``: the index is left to its first probe after the
  mutations, which builds it from the live rows.

Both paths must answer every probe alike.  The two ids are the names of
the index-maintenance policies this axis replaced, so the parametrized
tests keep their names.
"""

INDEX_TIMINGS = ("eager", "deferred")


def declare_indexes(inst, timing, *columns):
    """Build the indexes on each of ``columns`` now (``eager``), or leave
    them to their first probe (``deferred``)."""
    if timing not in INDEX_TIMINGS:
        raise ValueError(f"unknown index timing {timing!r}")
    if timing == "eager":
        for cols in columns:
            inst.ensure_index(cols)
