"""Synthetic datasets and data-vector generators.

The DPBench datasets are not redistributable here, so they are replaced by
shape-matched synthetic surrogates; the experiments read a dataset only
through its empirical distribution, so shape is what matters (see
:mod:`repro.data.datasets`).
"""

from repro.data.datasets import (
    DEFAULT_NUM_USERS,
    DPBENCH_NAMES,
    Dataset,
    by_name,
    dpbench_like,
    hepth_like,
    medcost_like,
    nettrace_like,
)
from repro.data.generators import (
    bimodal_data,
    geometric_data,
    sparse_spike_data,
    uniform_data,
    zipf_data,
)

__all__ = [
    "DEFAULT_NUM_USERS",
    "DPBENCH_NAMES",
    "Dataset",
    "bimodal_data",
    "by_name",
    "dpbench_like",
    "geometric_data",
    "hepth_like",
    "medcost_like",
    "nettrace_like",
    "sparse_spike_data",
    "uniform_data",
    "zipf_data",
]
