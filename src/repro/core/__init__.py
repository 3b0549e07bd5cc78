"""The CDSS core: edit logs, update exchange, incremental maintenance.

The state-machine layer beneath :mod:`repro.api` (paper Sections 2, 3, 4);
DESIGN.md documents how the layers stack.
"""

from .cdss import CDSS, Peer
from .derivation import DerivabilityVerdict, DerivationTest
from .editlog import EditLog, Update, publish
from .exchange import (
    STRATEGIES,
    STRATEGY_RECOMPUTE,
    STRATEGY_UNIFIED,
    ChangeBatch,
    ExchangeError,
    ExchangeReport,
    ExchangeSystem,
    Subscription,
)
from .weighted import DeletionReport, InsertionReport, WeightedMaintainer

__all__ = [
    "CDSS",
    "ChangeBatch",
    "DeletionReport",
    "DerivabilityVerdict",
    "DerivationTest",
    "EditLog",
    "ExchangeError",
    "ExchangeReport",
    "ExchangeSystem",
    "InsertionReport",
    "Peer",
    "STRATEGIES",
    "STRATEGY_RECOMPUTE",
    "STRATEGY_UNIFIED",
    "Subscription",
    "Update",
    "WeightedMaintainer",
    "publish",
]
