"""Solve-server trace replays reproduce their recorded admissions.

The fixture was recorded by ``admission_oracle.py`` (see its docstring for
what a cell records); every cell must match it exactly.
"""

import json

import pytest

import admission_oracle

RECORDED = json.loads(admission_oracle.FIXTURE.read_text())
CELLS = admission_oracle.cells()


def test_fixture_covers_the_matrix():
    assert sorted(RECORDED["cells"]) == sorted(
        admission_oracle.cell_key(cell) for cell in CELLS
    )


def test_cells_exercise_every_admission_path():
    cells = RECORDED["cells"].values()
    assert sum(cell["statuses"].get("rejected", 0) for cell in cells) > 0
    assert sum(cell["statuses"].get("expired", 0) for cell in cells) > 0
    assert sum(cell["preemptions"] for cell in cells) > 0


@pytest.mark.parametrize("cell", CELLS, ids=admission_oracle.cell_key)
def test_cell_matches_recorded_admissions(cell):
    recorded = RECORDED["cells"][admission_oracle.cell_key(cell)]
    assert admission_oracle.run_cell(cell) == recorded
