"""akhodge: exact invariant Hodge theory on almost-Kahler coframes.

The engine models a compact almost-Hermitian manifold through structure
equations on a (1,0)-coframe, builds the bigraded operators mu, del, delbar,
mubar, the C-linear Hodge star, Lefschetz operators and all Laplacians as
exact matrices over Q(i) (optionally with Laurent-symbolic coefficients), and
machine-verifies primitive decompositions of invariant harmonic forms.
"""

__version__ = "0.1.0"

from .exterior import BasisMonomial, Form, basis_of
from .model import (InvalidSpecError, ManifoldSpec, RealFramePresentation,
                    SpecError, complexify, parse_form, parse_spec,
                    render_spec, validate)
from .scalars import FunctionSymbol, GaussianRational, Nonzeroness, SymScalar

__all__ = [
    "__version__", "BasisMonomial", "Form", "basis_of", "ManifoldSpec",
    "RealFramePresentation", "SpecError", "InvalidSpecError", "complexify",
    "parse_form", "parse_spec", "render_spec", "validate", "FunctionSymbol",
    "GaussianRational", "Nonzeroness", "SymScalar",
]
