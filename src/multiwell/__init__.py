"""Multi-well polynomial potentials in 1D: spectra, avoided level
crossings, and relocalization catastrophes."""

__version__ = "0.1.0"

from .crossings import (AlcQuery, AlcSolution, AsymLocusPoint, DegeneracyFit,
                        LabelsUnresolvedError, NewtonError, ScanResult, ScanRow,
                        asym_locus_cubic, asym_locus_linearized, crossing_table,
                        left_well_shift, pairing_gaps, relocalization_scan,
                        solve_crossing, tilt_scan, tune_maximal_degeneracy)
from .polynomial import (ParameterError, Polynomial, Root, RootIsolationError,
                         real_roots)
from .spectrum import (ConvergenceError, DomainEstimateError, Eigenpair,
                       HarmonicSpectrum, LabeledLevel, RegionWeight,
                       SolverConfig, choose_domain, classify_levels,
                       grid_points_for, harmonic_families,
                       harmonic_spectrum_n2, resolve_solver, solve_numerical,
                       well_weights)
from .wells import (AlphaOverflowError, CriticalPoint, DegenerateWellError,
                    HarmonicWell, PerturbationRangeError, PerturbedExtrema,
                    QuadWellForms, WellShape, build_symmetric, closed_form_n2,
                    closed_form_n3, critical_points, harmonic_wells,
                    perturbed_extrema_n2, tilted_well_minimum)

__all__ = [
    "__version__",
    # polynomial
    "ParameterError", "Polynomial", "Root", "RootIsolationError", "real_roots",
    # wells
    "WellShape", "HarmonicWell", "CriticalPoint", "QuadWellForms",
    "PerturbedExtrema", "DegenerateWellError", "PerturbationRangeError",
    "AlphaOverflowError", "build_symmetric", "closed_form_n2",
    "closed_form_n3", "critical_points", "harmonic_wells",
    "tilted_well_minimum", "perturbed_extrema_n2",
    # spectrum
    "SolverConfig", "Eigenpair", "HarmonicSpectrum", "RegionWeight",
    "LabeledLevel", "ConvergenceError", "DomainEstimateError",
    "harmonic_families", "harmonic_spectrum_n2", "choose_domain",
    "grid_points_for", "resolve_solver", "solve_numerical", "well_weights",
    "classify_levels",
    # crossings
    "AlcQuery", "AlcSolution", "AsymLocusPoint", "DegeneracyFit",
    "ScanRow", "ScanResult", "LabelsUnresolvedError", "NewtonError",
    "solve_crossing", "crossing_table", "pairing_gaps",
    "tune_maximal_degeneracy", "asym_locus_linearized", "asym_locus_cubic",
    "left_well_shift", "relocalization_scan", "tilt_scan",
]
