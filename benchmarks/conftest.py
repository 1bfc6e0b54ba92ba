"""Benchmark harness helpers.

Every bench regenerates one paper exhibit (table/figure) or measures one
prose claim (see DESIGN.md section 4).  Since the paper reports no
numbers, each bench prints the regenerated exhibit and saves it under
``benchmarks/results/`` so EXPERIMENTS.md can cite the measured values.
"""

from __future__ import annotations

import pytest
from gate import write_result


@pytest.fixture
def exhibit():
    """Report one exhibit: print it and persist it to results/."""

    def _report(name: str, text: str) -> None:
        write_result(name, text)
        print(f"\n===== {name} =====")
        print(text)

    return _report
