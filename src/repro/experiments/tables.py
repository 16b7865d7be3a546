"""Drivers for the paper's Tables 1-3 (and Figs. 25-27).

* Table 1 / Fig. 25 — mapping to hypercubes (10 experiments).
* Table 2 / Fig. 26 — mapping to 2-D meshes (11 experiments).
* Table 3 / Fig. 27 — mapping to random topologies (17 experiments).

System sizes follow the paper's ``ns in [4, 40]``; the exact per-row
sizes were not published, so each table cycles through its family's
admissible sizes (hypercubes are powers of two, meshes are the
factorable counts) deterministically from a seed.
"""

from __future__ import annotations

import numpy as np

from ..analysis.histogram import render_histogram
from ..analysis.stats import ExperimentRow
from ..analysis.tables import render_experiment_table
from ..topology.base import SystemGraph
from ..topology.generators import hypercube, mesh2d, random_connected
from ..utils import as_rng
from .runner import ExperimentConfig, run_table

__all__ = [
    "table1_systems",
    "table2_systems",
    "table3_systems",
    "run_table1",
    "run_table2",
    "run_table3",
    "format_table",
    "format_figure",
]

#: Paper table sizes: 10 hypercube rows, 11 mesh rows, 17 random rows.
TABLE1_ROWS = 10
TABLE2_ROWS = 11
TABLE3_ROWS = 17


def table1_systems(rows: int = TABLE1_ROWS) -> list[SystemGraph]:
    """Hypercubes with 4-32 nodes (the paper's ns range caps at 40)."""
    dims = [2, 3, 4, 5]  # 4, 8, 16, 32 nodes
    return [hypercube(dims[i % len(dims)]) for i in range(rows)]


def table2_systems(rows: int = TABLE2_ROWS) -> list[SystemGraph]:
    """2-D meshes with 4-24 nodes.

    The paper's global ``ns`` range is 4-40 but its mesh results (7 of 11
    runs hitting the lower bound exactly) are only reachable when the
    critical cluster subgraph embeds into the mesh, which confines the
    mesh family to the small end of the range.
    """
    shapes = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 5), (4, 6)]
    return [mesh2d(*shapes[i % len(shapes)]) for i in range(rows)]


def table3_systems(
    rows: int = TABLE3_ROWS, rng: int | np.random.Generator | None = None
) -> list[SystemGraph]:
    """Random connected topologies with 4-40 nodes."""
    gen = as_rng(rng)
    systems = []
    for _ in range(rows):
        n = int(gen.integers(4, 41))
        systems.append(random_connected(n, extra_edge_prob=0.15, rng=gen))
    return systems


def run_table1(
    rng: int | np.random.Generator | None = 1991,
    rows: int = TABLE1_ROWS,
    config: ExperimentConfig = ExperimentConfig(),
) -> list[ExperimentRow]:
    """Experiment E1: Table 1 / Fig. 25 (hypercubes)."""
    return run_table(table1_systems(rows), config, rng=rng)


def run_table2(
    rng: int | np.random.Generator | None = 1991,
    rows: int = TABLE2_ROWS,
    config: ExperimentConfig = ExperimentConfig(),
) -> list[ExperimentRow]:
    """Experiment E2: Table 2 / Fig. 26 (meshes)."""
    return run_table(table2_systems(rows), config, rng=rng)


def run_table3(
    rng: int | np.random.Generator | None = 1991,
    rows: int = TABLE3_ROWS,
    config: ExperimentConfig = ExperimentConfig(),
) -> list[ExperimentRow]:
    """Experiment E3: Table 3 / Fig. 27 (random topologies)."""
    gen = as_rng(rng)
    return run_table(table3_systems(rows, rng=gen), config, rng=gen)


def format_table(rows: list[ExperimentRow], number: int) -> str:
    """Render a table exactly like the paper's Table ``number``."""
    titles = {
        1: "Table 1 — Mapping to Hypercubes",
        2: "Table 2 — Mapping to Meshes",
        3: "Table 3 — Mapping to Randomly Produced Topologies",
    }
    return render_experiment_table(rows, titles.get(number, f"Table {number}"))


def format_figure(rows: list[ExperimentRow], number: int) -> str:
    """Render the histogram figure paired with each table (Figs. 25-27)."""
    titles = {
        25: "Fig. 25 — Mapping to Hypercubes (percent over lower bound)",
        26: "Fig. 26 — Mapping to Meshes (percent over lower bound)",
        27: "Fig. 27 — Mapping to Random Topologies (percent over lower bound)",
    }
    return render_histogram(rows, titles.get(number, f"Fig. {number}"))
