"""PrivIM — differentially private graph neural networks for influence
maximization (reproduction).

The package reproduces "PrivIM: Differentially Private Graph Neural
Networks for Influence Maximization" end to end on a pure numpy
substrate: graph data structures and generators, a reverse-mode autograd
engine with five GNN architectures, node-level DP machinery (sensitivity
bounds, the Theorem 3 RDP accountant, noise calibration), the two subgraph
sampling schemes (Algorithm 1 and the dual-stage Algorithm 3), the IM
substrate (IC/LT/SIS diffusion, CELF), the training pipelines, baselines,
and the experiment harnesses regenerating every table and figure.

Quickstart::

    from repro import PrivIMStar, PrivIMConfig, load_dataset
    from repro.im import celf_coverage, coverage_spread

    graph = load_dataset("lastfm", scale=0.1)
    pipeline = PrivIMStar(PrivIMConfig(epsilon=4.0, rng=0))
    pipeline.fit(graph)
    seeds = pipeline.select_seeds(graph, k=20)
    print(coverage_spread(graph, seeds), celf_coverage(graph, 20)[1])
"""

from repro.core.pipeline import PipelineResult, PrivIM, PrivIMConfig, PrivIMStar
from repro.core.indicator import DEFAULT_INDICATOR, Indicator, fit_indicator
from repro.baselines import EGNPipeline, HPPipeline, NonPrivatePipeline
from repro.datasets import dataset_names, load_dataset
from repro.graphs import Graph
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "PrivIM",
    "PrivIMStar",
    "PrivIMConfig",
    "PipelineResult",
    "Indicator",
    "DEFAULT_INDICATOR",
    "fit_indicator",
    "EGNPipeline",
    "HPPipeline",
    "NonPrivatePipeline",
    "Graph",
    "load_dataset",
    "dataset_names",
    "ReproError",
    "__version__",
]
