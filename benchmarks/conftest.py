"""Shared fixtures for the figure/table reproduction benchmarks.

Every figure and table in the paper's evaluation has a ``bench_figXX_*``
module here; each prints the same rows/series the paper plots and checks
the qualitative shape (who wins, roughly by how much).

Scale control (see EXPERIMENTS.md):

* default   — reduced resolutions/frame counts; the full suite finishes in
  tens of minutes on a laptop;
* ``REPRO_FULL=1`` — larger sweeps (all six CS2 workloads, more frames).

Expensive sweeps (the case-study-I full-system grids) are session-scoped
fixtures shared by the figure benchmarks that consume them.
"""

import os

import pytest

from repro.harness.case_study1 import CS1Config, sweep
from repro.harness.case_study2 import CS2Config

FULL = bool(os.environ.get("REPRO_FULL"))


#: Case study I's four SoC models; both scales sweep all of them.
CS1_MODELS = ("M1", "M2", "M3", "M4")


def cs2_workloads():
    if FULL:
        return ("W1", "W2", "W3", "W4", "W5", "W6")
    return ("W2", "W3", "W4", "W5", "W6")       # W1 (sibenik) is slow


def cs1_config() -> CS1Config:
    return CS1Config(num_frames=5 if FULL else 4)


def cs2_config() -> CS2Config:
    # The WT locality-vs-balance crossover is calibrated at 160x120 with
    # 3 clusters (see repro.harness.case_study2._scaled_cs2_gpu); quick
    # mode only trims the workload list, not the operating point.
    return CS2Config()


@pytest.fixture(scope="session")
def cs1_regular(request):
    """The (models x configs) full-system grid, regular load (Figs. 9-11)."""
    return sweep(models=CS1_MODELS, load="regular", config=cs1_config())


@pytest.fixture(scope="session")
def cs1_high(request):
    """The high-load grid (Figs. 12-14)."""
    return sweep(models=CS1_MODELS, load="high", config=cs1_config())
