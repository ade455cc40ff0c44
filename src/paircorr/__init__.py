"""Numerical laboratory for the pair correlation of {alpha * n**theta mod 1}.

The package splits into raw statistics (stats), smooth test machinery
(kernels), exponential sums and their short dual form (expsums), averaging
over the dilate (measure), majorant construction (beurling), counting
problems behind the variance bounds (diophantine), and an experiment
runner (cli).
"""

from ._pool import ResourceGuardError
from .beurling import (BeurlingConstructionError, BeurlingSelberg,
                       build_beurling_selberg)
from .diophantine import (DioInstance, build_zset, count_duq, count_zdiag,
                          dio_instance, duq_bound_check, robert_sargos_count)
from .expsums import (BProcessConstants, ExpSumPair, SequenceSpec,
                      TildeDecomposition, bprocess_constants,
                      exp_sum_bprocess, exp_sum_direct, exp_sum_pair,
                      pair_corr_smooth, s_sum, s_tilde_parts)
from .kernels import (DegenerateKernelError, FourierTable, KernelError,
                      TestKernel, default_f, default_h, default_rho,
                      fourier, integrate, make_bump, normalize_rho,
                      periodize)
from .measure import (MeasureError, MomentEstimate, MuMeasure,
                      osc_integral_single, second_moment_roff,
                      second_moment_tilde_e)
from .stats import (GapHistogram, PairCorrEstimate, PointSet,
                    fractional_parts, gap_distribution, pair_corr_count,
                    uniform_points)

__version__ = "0.1.0"

__all__ = [
    "BProcessConstants",
    "BeurlingConstructionError",
    "BeurlingSelberg",
    "DegenerateKernelError",
    "DioInstance",
    "ExpSumPair",
    "FourierTable",
    "GapHistogram",
    "KernelError",
    "MeasureError",
    "MomentEstimate",
    "MuMeasure",
    "PairCorrEstimate",
    "PointSet",
    "ResourceGuardError",
    "SequenceSpec",
    "TestKernel",
    "TildeDecomposition",
    "bprocess_constants",
    "build_beurling_selberg",
    "build_zset",
    "count_duq",
    "count_zdiag",
    "default_f",
    "default_h",
    "default_rho",
    "dio_instance",
    "duq_bound_check",
    "exp_sum_bprocess",
    "exp_sum_direct",
    "exp_sum_pair",
    "fourier",
    "fractional_parts",
    "gap_distribution",
    "integrate",
    "make_bump",
    "normalize_rho",
    "osc_integral_single",
    "pair_corr_count",
    "pair_corr_smooth",
    "periodize",
    "robert_sargos_count",
    "s_sum",
    "s_tilde_parts",
    "second_moment_roff",
    "second_moment_tilde_e",
    "uniform_points",
    "__version__",
]
