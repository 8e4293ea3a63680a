"""Multi-GPU resident lockstep runs reproduce their recorded simulated counters.

The fixture was recorded by ``resident_oracle.py`` (see its docstring for
what a cell records); every cell must match it exactly, float for float.
"""

import json

import pytest

import resident_oracle

RECORDED = json.loads(resident_oracle.FIXTURE.read_text())
CELLS = resident_oracle.cells()


def test_fixture_covers_the_matrix():
    assert RECORDED["stats_fields"] == resident_oracle.STATS_FIELDS
    assert sorted(RECORDED["cells"]) == sorted(
        resident_oracle.cell_key(cell) for cell in CELLS
    )


@pytest.mark.parametrize("cell", CELLS, ids=resident_oracle.cell_key)
def test_cell_matches_recorded_counters(cell):
    recorded = RECORDED["cells"][resident_oracle.cell_key(cell)]
    assert resident_oracle.run_cell(cell) == recorded
