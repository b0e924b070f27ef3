"""Fixtures shared by the test modules."""

import pytest

from selsolve.formats import write_system
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
