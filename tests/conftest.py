import os
from pathlib import Path

import pytest

import scdebug
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


def known_cells(asd) -> dict:
    """Every determined cell of an annotation, keyed by (vector key, index)."""
    return {
        (key, i): c
        for key, cells in asd.vectors.items()
        for i, c in enumerate(cells)
        if c is not None
    }


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
