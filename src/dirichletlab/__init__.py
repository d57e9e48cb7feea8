"""Numerical laboratory for two composition-operator constructions on the
Dirichlet space: a cusp domain whose operator is compact with certified
slow decay of approximation numbers, and a box/tower/pipe domain whose
exponential image has bounded power norms while the operator itself is
unbounded."""

from .errors import ConstructionError, NumericIntegrityError, ValidationError
from .seqs import CAP, DecaySequence, clamp_monotone, dyadic, slow_decay
from .geometry import (CuspProfile, DiskFamily, Rect, RectilinearDomain,
                       disk_family, eksy_build, eps_exp, profile_make)
from .spectra import eigh, schur_bound
from .gram import (CertificateReport, CheckResult, GramMatrix,
                   bernstein_certificate, closed_form_gram, nu_bound,
                   tec_report)
from .carleson import (WindowMeasureReport, cusp_window_report,
                       eksy_window_table, half_window_area, window_area_cusp)
from .powers import (GrowthReport, eksy_growth_report, growth_grid,
                     growth_majorant, growth_term, jensen_lower, log2_targets,
                     power_norm_region, region_moment)
from .galerkin import MomentMatrix, floor_crossings, moment_matrix

__version__ = "0.1.0"

__all__ = [
    "ConstructionError", "NumericIntegrityError", "ValidationError",
    "CAP", "DecaySequence", "clamp_monotone", "dyadic", "slow_decay",
    "CuspProfile", "DiskFamily", "Rect", "RectilinearDomain",
    "disk_family", "eksy_build", "eps_exp", "profile_make",
    "eigh", "schur_bound",
    "CertificateReport", "CheckResult", "GramMatrix",
    "bernstein_certificate", "closed_form_gram", "nu_bound", "tec_report",
    "WindowMeasureReport", "cusp_window_report", "eksy_window_table",
    "half_window_area", "window_area_cusp",
    "GrowthReport", "eksy_growth_report", "growth_grid", "growth_majorant",
    "growth_term", "jensen_lower", "log2_targets", "power_norm_region",
    "region_moment",
    "MomentMatrix", "floor_crossings", "moment_matrix",
    "__version__",
]
