"""convspec: spectra of infinite convolutions generated by Hadamard triples.

Construct candidate orthonormal exponential bases for infinite-convolution
measures driven by finitely many Hadamard triples on the line, probe
equi-positivity of the tail measures, analyze mask zero sets, and certify
levels numerically through Gram and completeness checks.
"""

from .convolution import (
    ConvolutionSpec,
    DiscreteMeasure,
    SelectionWord,
    TailSpec,
    TailValue,
    cdf,
    convolve,
    finite_level,
    fourier_finite,
    fourier_tail,
    mask,
    tail_truncation_bound,
)
from .equipos import EquiPositivityCertificate, ProbeRow, choose_k, probe_family
from .spectrum import (
    BuildParams,
    EquiPositivityViolation,
    GcdNotCertifiedWarning,
    GcdReport,
    HorizonExhaustedError,
    SpectrumLevels,
    block_frequencies,
    build_spectrum,
    certify_gcd_condition,
    next_level,
)
from .triples import (
    HadamardTriple,
    TripleReport,
    compose_triples,
    difference_gcd,
    normalize_frequencies,
    reduce_frequencies,
    translate_triple,
    verify_triple,
)
from .verify import (
    QReport,
    level_completeness,
    orthonormality_gram,
    spectral_report,
)
from .zeros import (
    PropagationTrace,
    ZeroProbeVerdict,
    ZeroSetReport,
    enumerate_zero_products,
    integral_periodic_zero_probe,
    mask_zeros,
    zero_propagation,
)

__version__ = "0.1.0"

__all__ = [
    "BuildParams",
    "ConvolutionSpec",
    "DiscreteMeasure",
    "EquiPositivityCertificate",
    "EquiPositivityViolation",
    "GcdNotCertifiedWarning",
    "GcdReport",
    "HadamardTriple",
    "HorizonExhaustedError",
    "ProbeRow",
    "PropagationTrace",
    "QReport",
    "SelectionWord",
    "SpectrumLevels",
    "TailSpec",
    "TailValue",
    "TripleReport",
    "ZeroProbeVerdict",
    "ZeroSetReport",
    "block_frequencies",
    "build_spectrum",
    "cdf",
    "certify_gcd_condition",
    "choose_k",
    "compose_triples",
    "convolve",
    "difference_gcd",
    "enumerate_zero_products",
    "finite_level",
    "fourier_finite",
    "fourier_tail",
    "integral_periodic_zero_probe",
    "level_completeness",
    "mask",
    "mask_zeros",
    "next_level",
    "normalize_frequencies",
    "orthonormality_gram",
    "probe_family",
    "reduce_frequencies",
    "spectral_report",
    "tail_truncation_bound",
    "translate_triple",
    "verify_triple",
    "zero_propagation",
]
