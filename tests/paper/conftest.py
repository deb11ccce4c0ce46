"""The paper's evaluation, one test file per figure, table or claim.

Run ``pytest tests/paper -q -s`` to print every table EXPERIMENTS.md
quotes.  Figs. 11/12 and Table I are the ``datapath`` matrix target's
full grid: their tests assert on its rollup through the ``datapath``
fixture instead of solving the server model again.
"""

import pytest

from repro.exp import get_target, run_matrix


@pytest.fixture(scope="session")
def datapath():
    """The ``datapath`` target's full-grid rollup, printed once as the
    target renders it (``python -m repro matrix --only datapath``)."""
    target = get_target("datapath")
    payload = run_matrix(target.specs()).payload["targets"][target.name]
    print("\n" + target.render(payload))
    return payload
