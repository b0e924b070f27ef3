"""Fixtures shared by the test modules."""

import pytest

from selsolve.formats import write_system
from selsolve.pipeline import default_strategy, run_pipeline
from selsolve.symmetry import build_symmetry_system


@pytest.fixture(scope="session")
def symmetry_files(tmp_path_factory):
    """Degree -> path of the ``gen --nc`` system file, with its name
    sidecar, for degrees 3..7; read them, never write them."""
    directory = tmp_path_factory.mktemp("symmetry")
    paths = {}
    for degree in range(3, 8):
        paths[degree] = str(directory / f"s{degree}.sys")
        write_system(build_symmetry_system(degree, include_nc=True),
                     paths[degree])
    return paths


@pytest.fixture(scope="session")
def staged_solution_files(tmp_path_factory):
    """Degree -> path of the ``pipeline --out`` solution file of the
    default strategy, for degrees 3..8; read them, never write them."""
    directory = tmp_path_factory.mktemp("staged")
    paths = {}
    for degree in range(3, 9):
        paths[degree] = str(directory / f"p{degree}.sol")
        run_pipeline(degree, default_strategy(degree)).write_solution(
            paths[degree])
    return paths
