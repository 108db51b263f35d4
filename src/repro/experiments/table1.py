"""Table 1: existing LDP mechanisms encoded as strategy matrices.

Builds each of the four Table 1 mechanisms at a small domain, verifies the
encoding (stochasticity, exact privacy ratio, output range size) and prints
the structural summary the table conveys.  Serves as the executable version
of the paper's Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.reporting import format_table
from repro.mechanisms import (
    hadamard_response,
    randomized_response,
    rappor,
    subset_selection,
)
from repro.protocol import audit_strategy

DOMAIN_SIZE = 8
EPSILON = 1.0


@dataclass(frozen=True)
class Table1Row:
    """Verified facts about one Table 1 encoding."""

    mechanism: str
    num_outputs: int
    expected_outputs: int
    epsilon_realized: float
    distinct_entry_levels: int
    satisfied: bool


def _distinct_levels(matrix: np.ndarray) -> int:
    return int(np.unique(np.round(matrix, 12)).size)


def run(domain_size: int = DOMAIN_SIZE, epsilon: float = EPSILON) -> list[Table1Row]:
    """Construct and audit the four Table 1 strategy matrices."""
    from math import comb

    from repro.linalg import next_power_of_two
    from repro.mechanisms.subset_selection import recommended_subset_size

    subset_size = recommended_subset_size(domain_size, epsilon)
    entries = [
        ("Randomized Response", randomized_response(domain_size, epsilon), domain_size),
        ("RAPPOR", rappor(domain_size, epsilon), 2**domain_size),
        (
            "Hadamard",
            hadamard_response(domain_size, epsilon),
            next_power_of_two(domain_size + 1),
        ),
        (
            "Subset Selection",
            subset_selection(domain_size, epsilon),
            comb(domain_size, subset_size),
        ),
    ]
    rows = []
    for name, strategy, expected in entries:
        report = audit_strategy(strategy)
        rows.append(
            Table1Row(
                mechanism=name,
                num_outputs=strategy.num_outputs,
                expected_outputs=int(expected),
                epsilon_realized=report.epsilon_realized,
                distinct_entry_levels=_distinct_levels(strategy.probabilities),
                satisfied=report.satisfied and strategy.num_outputs == expected,
            )
        )
    return rows


def render(rows: list[Table1Row]) -> str:
    headers = ["mechanism", "outputs", "expected", "eps realized", "levels", "ok"]
    table = [
        [
            row.mechanism,
            str(row.num_outputs),
            str(row.expected_outputs),
            row.epsilon_realized,
            str(row.distinct_entry_levels),
            "yes" if row.satisfied else "NO",
        ]
        for row in rows
    ]
    return format_table(headers, table)


def main() -> list[Table1Row]:
    rows = run()
    print(render(rows))
    return rows


if __name__ == "__main__":
    main()
