import os
from pathlib import Path

import pytest

import scdebug
from scdebug.checker import _by, _leaf_test
from scdebug.dsl import parse_domain_theory, parse_sd

FIXTURES = Path(__file__).parent / "fixtures"
# Environment for `python -m scdebug.cli` children: they import the same
# scdebug as this session, installed or not.
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, (str(Path(scdebug.__file__).parents[1]), os.environ.get("PYTHONPATH")))
    ),
}


def face_index(lines, obj: str, mid: int, which: str) -> int:
    """The position on the object's lifeline, in ``lines`` (object ->
    ``Lifeline``), of the pre or post face of message ``mid``."""
    ids = [m.id for m in lines[obj].messages]
    return 2 * ids.index(mid) + (which == "post")


def face(lines, obj: str, mid: int, which: str) -> tuple:
    """The cells of the pre or post face of message ``mid`` on the object's lifeline."""
    return lines[obj].faces[face_index(lines, obj, mid, which)]


def all_faces(lines) -> dict:
    """A copy of every lifeline's cells: object -> list of faces."""
    return {obj: [list(cells) for cells in line.faces] for obj, line in lines.items()}


def known_cells(lines) -> dict:
    """Every determined cell of an annotation, keyed by (object, face, index)."""
    return {
        (obj, i, j): c
        for obj, line in lines.items()
        for i, cells in enumerate(line.faces)
        for j, c in enumerate(cells)
        if c is not None
    }


def leaf_test(chart, sd, obj):
    """The repair search's ``_leaf_test`` of a flat chart, as ``repair`` calls
    it: (accepted, deletable by position - 1, position -> fitting events)."""
    return _leaf_test(chart, _by(chart.transitions, "source"), _by(chart.transitions, "event"), sd, obj)


def read(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def coffee_dt():
    return parse_domain_theory(read("theory.dt"), "theory.dt")


@pytest.fixture(scope="session")
def coffee_dt_unfixed():
    return parse_domain_theory(read("theory_unfixed.dt"), "theory_unfixed.dt")


@pytest.fixture(scope="session")
def sd1():
    return parse_sd(read("sd1.sd"), "sd1.sd")


@pytest.fixture(scope="session")
def sd2():
    return parse_sd(read("sd2.sd"), "sd2.sd")


@pytest.fixture(scope="session")
def stepper_dt():
    return parse_domain_theory(read("stepper.dt"), "stepper.dt")


@pytest.fixture(scope="session")
def stepper_sd():
    return parse_sd(read("stepper.sd"), "stepper.sd")
