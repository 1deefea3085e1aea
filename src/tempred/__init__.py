"""tempred: temporal redundancy metrics for source-code commit histories.

The package exports the library surface: configure a run, analyze a source
and serialize the report. Everything else is importable from its module
(``tempred.history``, ``tempred.differ``, ``tempred.synth``, ...).
"""

from .errors import ConfigurationError
from .report import AnalysisConfig, Report, emit_report, run_analysis

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AnalysisConfig",
    "ConfigurationError",
    "Report",
    "emit_report",
    "run_analysis",
]
