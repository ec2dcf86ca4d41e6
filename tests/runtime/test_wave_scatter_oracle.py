"""The runtime's one-pass lemma 4.2 scatter equals its two-pass oracle.

``repro.runtime.rules._wave_scatter`` ranks the pieces once, fills every
bundle in that order and returns the one size map it builds; the oracle
(:func:`tests.wave_oracles.two_pass_wave_programs`) sorts every bundle
on its own and builds the sizes in a separate loop.  The node programs,
the chunk sizes (with their key order) and the whole
:class:`~repro.runtime.rules.ClusterProgram` must be equal.
"""

import pytest

import repro.runtime.rules as rules
from repro.runtime import build_cluster_program
from repro.sim.ports import PortModel
from repro.topology import Hypercube
from tests.wave_oracles import two_pass_wave_programs

MB = [(1, 1), (3, 2), (5, 3), (7, 16), (10, 4), (1024, 256)]


def _sources(n):
    return sorted({0, 1, (1 << n) - 1, (0b1011011 & ((1 << n) - 1))})


@pytest.mark.parametrize("family", ["sbt", "bst"])
@pytest.mark.parametrize("n", range(1, 8))
def test_wave_programs_equal_two_pass(family, n):
    cube = Hypercube(n)
    for source in _sources(n):
        for m, b in MB:
            programs, sizes = rules._wave_scatter(cube, source, m, b, family)
            want_programs, want_sizes = two_pass_wave_programs(
                cube, source, m, b, family
            )
            assert programs == want_programs
            assert list(sizes.items()) == list(want_sizes.items())


@pytest.mark.parametrize("family", ["sbt", "bst"])
def test_cluster_program_equals_two_pass(family):
    cube = Hypercube(5)
    for source in (0, 19):
        for m, b in ((1, 1), (10, 4)):
            got = build_cluster_program(
                cube, "scatter", family, source, m, b, PortModel.ALL_PORT
            )
            programs, sizes = two_pass_wave_programs(cube, source, m, b, family)
            assert got == rules.ClusterProgram(
                programs=programs,
                chunk_sizes=sizes,
                op="scatter",
                algorithm=family,
                source=source,
                port_model=PortModel.ALL_PORT,
            )
            assert list(got.chunk_sizes) == list(sizes)
