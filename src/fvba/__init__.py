"""Flow-volume based flooding-DDoS detection toolkit.

Builds per-protocol normal profiles of windowed traffic (byte volume and
distinct-flow count), flags windows whose deviations exceed tolerance-
factor thresholds, characterizes individual flows with six-sigma control
limits, and ships a scenario simulator, a KDD-99 ingestion pipeline and
an evaluation harness for detection/false-positive rates and ROC sweeps.

Each public name is imported from its module on first use: ``import fvba`` loads no numpy.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the module that defines it.
_ORIGIN = {
    "DEFAULT_FACTORS": "detector",
    "Error": "errors",
    "EventTable": "model",
    "FlowBand": "characterizer",
    "FlowClassification": "characterizer",
    "FlowKey": "model",
    "InsufficientDataError": "errors",
    "LabeledEventStream": "simulator",
    "NormalProfile": "profiler",
    "OrderingError": "errors",
    "ParameterError": "errors",
    "ParseError": "errors",
    "ProtocolCategory": "model",
    "RocPoint": "evaluation",
    "ScenarioConfig": "simulator",
    "ScenarioKind": "simulator",
    "ScoreReport": "evaluation",
    "SigmaLimits": "characterizer",
    "ThrottleDirectives": "characterizer",
    "Thresholds": "detector",
    "ToleranceFactors": "detector",
    "TriggerCondition": "detector",
    "VerdictReport": "detector",
    "Verdicts": "detector",
    "WindowSeries": "model",
    "build_profile": "profiler",
    "classify_flows": "characterizer",
    "compute_thresholds": "detector",
    "detect_series": "detector",
    "generate": "simulator",
    "score": "evaluation",
    "sigma_limits": "characterizer",
    "sweep": "evaluation",
    "throttle_directives": "characterizer",
    "windowize": "profiler",
}

__all__ = list(_ORIGIN)


def __getattr__(name: str):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value
