"""repro — a complete reproduction of *Update Exchange with Mappings and
Provenance* (Green, Karvounarakis, Ives, Tannen; VLDB 2007 / UPenn TR
MS-CIS-07-26): the ORCHESTRA collaborative data sharing system.

Quickstart (the peer-centric v2 API)::

    from repro import CDSS

    cdss = CDSS("bio")
    pgus = cdss.add_peer("PGUS", {"G": ("id", "can", "nam")})
    pbio = cdss.add_peer("PBioSQL", {"B": ("id", "nam")})
    cdss.add_peer("PuBio", {"U": ("nam", "can")})
    cdss.add_mapping("m1", "G(i, c, n) -> B(i, n)")
    cdss.add_mapping("m3", "B(i, n) -> exists c . U(n, c)")
    with pgus.batch() as tx:
        tx.insert("G", (3, 5, 2))
    cdss.update_exchange()
    B = pbio.relation("B")
    print(sorted(B))                   # [(3, 2)]
    print(B.provenance((3, 2)))

Whole systems round-trip through declarative JSON specs::

    cdss.to_spec().save("bio.json")    # python -m repro run bio.json

See DESIGN.md for the API layering (including the old-facade migration
table) and the docstrings in :mod:`repro.bench.experiments` for the
paper-figure reproductions.
"""

from .api import (
    AnswerSet,
    Batch,
    BatchError,
    DurabilitySpec,
    EditSpec,
    MappingSpec,
    PeerHandle,
    PeerSpec,
    PreparedQuery,
    Query,
    RelationSpec,
    RelationView,
    SpecError,
    SystemSpec,
    TrustScope,
    col,
    param,
)
from .core import (
    CDSS,
    STRATEGY_RECOMPUTE,
    STRATEGY_UNIFIED,
    ExchangeSystem,
)
from .durability import DurableNode, WriteAheadLog
from .storage import SQLiteStore, ZSet
from .provenance import (
    BooleanSemiring,
    CountingSemiring,
    LineageSemiring,
    TropicalSemiring,
    TrustCondition,
    TrustPolicy,
    WhySemiring,
)
from .schema import PeerSchema, RelationSchema, SchemaMapping

__version__ = "2.0.0"

__all__ = [
    "AnswerSet",
    "Batch",
    "BatchError",
    "BooleanSemiring",
    "CDSS",
    "CountingSemiring",
    "DurabilitySpec",
    "DurableNode",
    "EditSpec",
    "ExchangeSystem",
    "LineageSemiring",
    "MappingSpec",
    "PeerHandle",
    "PeerSchema",
    "PeerSpec",
    "PreparedQuery",
    "Query",
    "RelationSchema",
    "RelationSpec",
    "RelationView",
    "SQLiteStore",
    "STRATEGY_RECOMPUTE",
    "STRATEGY_UNIFIED",
    "SchemaMapping",
    "ZSet",
    "SpecError",
    "SystemSpec",
    "TropicalSemiring",
    "TrustCondition",
    "TrustPolicy",
    "TrustScope",
    "WhySemiring",
    "WriteAheadLog",
    "__version__",
    "col",
    "param",
]
