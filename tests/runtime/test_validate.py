"""Differential harness: runtime execution must equal engine replay.

The tier-1 grid here is reduced for CI latency; set
``REPRO_RUNTIME_FULL_GRID=1`` to run the full acceptance grid
(n up to 8, M up to 1000) — minutes, not seconds.
"""

from __future__ import annotations

import os

import pytest

from repro.runtime import differential_check, differential_grid
from repro.runtime.validate import RUNTIME_OPS
from repro.sim.machine import MachineParams
from repro.sim.ports import PortModel
from repro.topology import Hypercube

PMS = tuple(PortModel)

FULL = os.environ.get("REPRO_RUNTIME_FULL_GRID") == "1"


class TestDifferentialReduced:
    @pytest.mark.parametrize("pm", PMS)
    @pytest.mark.parametrize("op,algorithm", RUNTIME_OPS)
    @pytest.mark.parametrize("M,B", [(1, 1), (17, 4), (64, 32)])
    @pytest.mark.parametrize("n", [3, 4])
    def test_point(self, n, op, algorithm, M, B, pm):
        differential_check(Hypercube(n), op, algorithm, 0, M, B, pm)

    @pytest.mark.parametrize(
        "op,algorithm,source,M,B,pm",
        [
            *(
                pytest.param(op, algorithm, 11, 17, 4,
                             PortModel.ONE_PORT_FULL, id=f"{op}-{algorithm}")
                for op, algorithm in RUNTIME_OPS
            ),
            *(
                pytest.param("scatter", "bst", source, 33, 8,
                             PortModel.ONE_PORT_HALF,
                             id=f"scatter-bst-source{source}")
                for source in (5, 15)
            ),
        ],
    )
    def test_nonzero_source(self, op, algorithm, source, M, B, pm):
        differential_check(Hypercube(4), op, algorithm, source, M, B, pm)

    @pytest.mark.parametrize(
        "machine,n,op,algorithm,source,M,B,pm",
        [
            *(
                pytest.param(MachineParams(tau=2.5, t_c=0.75), 3, op,
                             algorithm, 0, 9, 4, PortModel.ONE_PORT_HALF,
                             id=f"startup-{op}-{algorithm}")
                for op, algorithm in RUNTIME_OPS
            ),
            pytest.param(MachineParams(tau=2.5, t_c=0.75, overlap=0.5), 4,
                         "broadcast", "sbt", 3, 29, 4,
                         PortModel.ONE_PORT_FULL, id="overlap"),
            pytest.param(MachineParams(internal_packet_elems=8), 4,
                         "scatter", "sbt", 0, 64, 16, PortModel.ALL_PORT,
                         id="internal-packets"),
        ],
    )
    def test_nonunit_machine(self, machine, n, op, algorithm, source, M, B,
                             pm):
        differential_check(
            Hypercube(n), op, algorithm, source, M, B, pm, machine=machine,
        )

    def test_grid_report_collects(self):
        report = differential_grid(
            dims=(3,), messages=(5,), packets=(2,),
            port_models=(PortModel.ALL_PORT,), fail_fast=False,
        )
        assert report.ok
        assert report.points == len(RUNTIME_OPS)
        assert report.failures == []


@pytest.mark.skipif(
    not FULL, reason="set REPRO_RUNTIME_FULL_GRID=1 for the full grid"
)
class TestDifferentialFull:
    """The ISSUE acceptance grid, verbatim."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_full_grid_dimension(self, n):
        report = differential_grid(
            dims=(n,), messages=(1, 64, 1000), packets=(1, 32),
            fail_fast=True,
        )
        assert report.ok
        assert report.points == 72  # 4 ops x 3 port models x 3 M x 2 B
