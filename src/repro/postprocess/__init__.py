"""Post-processing for consistency (Remark 1 / Appendix A).

WNNLS projects the unbiased estimate onto the set of answers realizable by
some non-negative data vector; truncation baselines are provided for the
ablation in the Figure 4 experiment.
"""

from repro.postprocess.baselines import truncate_and_rescale, truncate_negative
from repro.postprocess.intervals import (
    IntervalEstimate,
    per_query_variances,
    variance_matrix,
    workload_confidence_intervals,
)
from repro.postprocess.wnnls import wnnls_from_answers, wnnls_from_data_estimate

__all__ = [
    "IntervalEstimate",
    "per_query_variances",
    "truncate_and_rescale",
    "truncate_negative",
    "variance_matrix",
    "wnnls_from_answers",
    "wnnls_from_data_estimate",
    "workload_confidence_intervals",
]
