"""Mining high utility-occupancy patterns from uncertain quantitative data.

A pattern qualifies when, over an uncertain transaction database, it
clears three user thresholds at once: minimum support, minimum average
share of its supporting transactions' utility, and minimum summed
existence probability.  The package provides the list-based depth-first
miner with switchable pruning strategies, an exhaustive oracle for
verification, the file formats, a seeded data generator, and a benchmark
harness, all exposed through the ``occumine`` command-line tool.
"""

from .dataio import (
    GeneratorConfig,
    augment,
    generate,
    load_database,
    parse_database,
    save_database,
    write_database,
)
from .errors import (
    DatabaseValidationError,
    EnumerationBudgetError,
    MissingUtilityError,
    OccumineError,
    ParseError,
    PlanError,
    UndefinedMeasureError,
)
from .measures import (
    TotalOrder,
    oracle_measures,
    oracle_mine,
    probability,
    remaining_utility_occupancy,
    support_count,
    total_order,
    utility,
    utility_occupancy,
)
from .miner import FULL, PRESETS, S1, S12, S13, MiningOutcome, StrategySet, mine, upper_bound
from .model import (
    ItemOccurrence,
    MiningStats,
    PatternRecord,
    PatternSummary,
    Thresholds,
    Transaction,
    TransactionTable,
    UncertainDatabase,
    Violation,
    build_database,
    validate_database,
)

__version__ = "0.1.0"

__all__ = [
    "DatabaseValidationError",
    "EnumerationBudgetError",
    "FULL",
    "GeneratorConfig",
    "ItemOccurrence",
    "MiningOutcome",
    "MiningStats",
    "MissingUtilityError",
    "OccumineError",
    "ParseError",
    "PatternRecord",
    "PatternSummary",
    "PlanError",
    "PRESETS",
    "S1",
    "S12",
    "S13",
    "StrategySet",
    "Thresholds",
    "TotalOrder",
    "Transaction",
    "TransactionTable",
    "UncertainDatabase",
    "UndefinedMeasureError",
    "Violation",
    "augment",
    "build_database",
    "generate",
    "load_database",
    "mine",
    "oracle_measures",
    "oracle_mine",
    "parse_database",
    "probability",
    "remaining_utility_occupancy",
    "save_database",
    "support_count",
    "total_order",
    "upper_bound",
    "utility",
    "utility_occupancy",
    "validate_database",
    "write_database",
]
