"""Influence maximization substrate: diffusion models, CELF, metrics."""

from repro.im.ic_model import estimate_ic_spread, simulate_ic
from repro.im.lt_model import estimate_lt_spread, simulate_lt
from repro.im.sis_model import simulate_sis
from repro.im.spread import coverage_spread, estimate_spread
from repro.im.celf import celf_coverage, greedy_im
from repro.im.ris import reverse_reachable_set, ris_im, sample_rr_sets
from repro.im.heuristics import degree_seeds, random_seeds
from repro.im.metrics import coverage_ratio
from repro.im.analysis import ranking_quality, seed_overlap, spread_curve
from repro.im.imm import imm_im, imm_sample_size

__all__ = [
    "simulate_ic",
    "estimate_ic_spread",
    "simulate_lt",
    "estimate_lt_spread",
    "simulate_sis",
    "coverage_spread",
    "estimate_spread",
    "celf_coverage",
    "greedy_im",
    "ris_im",
    "sample_rr_sets",
    "reverse_reachable_set",
    "degree_seeds",
    "random_seeds",
    "coverage_ratio",
    "spread_curve",
    "ranking_quality",
    "seed_overlap",
    "imm_im",
    "imm_sample_size",
]
