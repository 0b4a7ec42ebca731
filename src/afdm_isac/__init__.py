"""AFDM integrated sensing and communication simulation laboratory.

Modem, doubly dispersive channel, superimposed-pilot channel estimation,
range-Doppler sensing, and closed-form bound/ambiguity analysis.
"""

from .errors import AfdmError, ConfigurationError, NumericalError, ParameterError
from .daft import (
    AfdmConfig,
    add_cpp,
    build_daft_matrix,
    daft,
    idaft,
    remove_cpp,
    waveform_samples,
)

__version__ = "0.1.0"

__all__ = [
    "AfdmError",
    "ConfigurationError",
    "ParameterError",
    "NumericalError",
    "AfdmConfig",
    "idaft",
    "daft",
    "build_daft_matrix",
    "add_cpp",
    "remove_cpp",
    "waveform_samples",
    "__version__",
]
