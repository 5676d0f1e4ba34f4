from pathlib import Path

import pytest

from occumine import GeneratorConfig, generate, load_database

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = REPO_ROOT / "data"
TEST_DATA_DIR = Path(__file__).resolve().parent / "data"

EXAMPLE_TRANSACTIONS = DATA_DIR / "example_transactions.txt"
EXAMPLE_UTILITIES = DATA_DIR / "example_utilities.txt"


def exact_outcome(outcome):
    """Records with their floats as hex, and every counter but the wall time."""
    records = [
        (r.items, r.support, r.probability.hex(), r.utility_occupancy.hex())
        for r in outcome.patterns
    ]
    counters = {k: v for k, v in outcome.stats.as_dict().items() if k != "elapsed_ms"}
    return records, counters


@pytest.fixture(scope="session")
def example_db():
    """The ten-transaction, five-item example database."""
    return load_database(EXAMPLE_TRANSACTIONS, EXAMPLE_UTILITIES)


@pytest.fixture(scope="session")
def bench_db():
    """The large sweep database: 10,000 transactions over 200 items."""
    return generate(
        GeneratorConfig(
            seed=7,
            num_transactions=10_000,
            num_items=200,
            avg_transaction_length=8.0,
            max_quantity=5,
            max_unit_utility=30,
            prob_min=0.3,
            prob_max=0.95,
        )
    )
