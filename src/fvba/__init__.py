"""Flow-volume based flooding-DDoS detection toolkit.

Builds per-protocol normal profiles of windowed traffic (byte volume and
distinct-flow count), flags windows whose deviations exceed tolerance-
factor thresholds, characterizes individual flows with six-sigma control
limits, and ships a scenario simulator, a KDD-99 ingestion pipeline and
an evaluation harness for detection/false-positive rates and ROC sweeps.
"""

from .characterizer import (
    FlowBand,
    FlowClassification,
    SigmaLimits,
    ThrottleDirectives,
    classify_flows,
    sigma_limits,
    throttle_directives,
)
from .detector import (
    DEFAULT_FACTORS,
    Thresholds,
    ToleranceFactors,
    TriggerCondition,
    VerdictReport,
    Verdicts,
    compute_thresholds,
    detect_series,
)
from .errors import Error, InsufficientDataError, OrderingError, ParameterError, ParseError
from .evaluation import RocPoint, ScoreReport, score, sweep
from .model import EventTable, FlowKey, ProtocolCategory, WindowSeries
from .profiler import NormalProfile, build_profile, windowize
from .simulator import LabeledEventStream, ScenarioConfig, ScenarioKind, generate

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_FACTORS",
    "Error",
    "EventTable",
    "FlowBand",
    "FlowClassification",
    "FlowKey",
    "InsufficientDataError",
    "LabeledEventStream",
    "NormalProfile",
    "OrderingError",
    "ParameterError",
    "ParseError",
    "ProtocolCategory",
    "RocPoint",
    "ScenarioConfig",
    "ScenarioKind",
    "ScoreReport",
    "SigmaLimits",
    "ThrottleDirectives",
    "Thresholds",
    "ToleranceFactors",
    "TriggerCondition",
    "VerdictReport",
    "Verdicts",
    "WindowSeries",
    "build_profile",
    "classify_flows",
    "compute_thresholds",
    "detect_series",
    "generate",
    "score",
    "sigma_limits",
    "sweep",
    "throttle_directives",
    "windowize",
]
