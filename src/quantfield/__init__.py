"""quantfield: a numerical laboratory for the curvature of fields of quantum
Hilbert spaces built from weighted Gaussian measures on compact symmetric
models (group manifolds, tori, spheres, truncated phase spaces)."""

from .logdomain import LogValue, signed_logsumexp
from .quantization import (CurvatureDensity, ModelSpec, WeightParams,
                           curvature, flatness_classify, sphere_asymptote,
                           weight_params)

__version__ = "0.1.0"

__all__ = [
    "LogValue",
    "signed_logsumexp",
    "WeightParams",
    "weight_params",
    "ModelSpec",
    "CurvatureDensity",
    "curvature",
    "flatness_classify",
    "sphere_asymptote",
    "__version__",
]
