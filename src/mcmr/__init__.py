"""Crosstalk physics and benchmarking for mid-circuit measurement and reset.

Subpackages by theme:

* :mod:`mcmr.micromotion` — hiding an idle ion from detection light by
  parking it on a carrier-extinction point, plus optical-pumping rate models
  and the depumping-curve fit,
* :mod:`mcmr.liouville` — the 16-element Hermitian operator basis for a
  qubit with two extra levels,
* :mod:`mcmr.clifford` — the 24-element Clifford group as exact integer
  product and inverse tables,
* :mod:`mcmr.channels` — CPTP crosstalk channels for measurement/reset
  windows, the Clifford twirl and its structure validation,
* :mod:`mcmr.rb` — randomized-benchmarking sequences, exact survival,
  decay fits, bootstrap, focus-ion SPAM simulation and campaign running,
* :mod:`mcmr.varpro` — the bounded decay-law fit that rb and micromotion share,
* :mod:`mcmr.config` — the field-driven parsing every JSON config shares,
* :mod:`mcmr.cli` — the ``mcmr`` command (not imported by the package).
"""

from . import channels, clifford, liouville, micromotion, rb
from .errors import AssumptionError, ConfigError, DataFormatError, FitError

__version__ = "0.1.0"

__all__ = [
    "channels", "clifford", "cli", "liouville", "micromotion", "rb",
    "AssumptionError", "ConfigError", "DataFormatError", "FitError",
    "__version__",
]
