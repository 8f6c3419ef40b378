"""Streaming substrate: RDF triples, windows, generators, format processors.

In the original StreamRule deployment, CQELS filters RDF streams from the
Web of Data and a *data format processor* translates the query results into
ASP facts before they reach Clingo (Figure 1 of the paper).  This package
provides a faithful, self-contained stand-in:

* :mod:`repro.streaming.triples` -- the RDF triple data model,
* :mod:`repro.streaming.format` -- RDF <-> ASP translation (the data format
  processor),
* :mod:`repro.streaming.generator` -- synthetic stream generators: the
  paper's random-triple scheme and a realistic traffic scenario,
* :mod:`repro.streaming.window` -- tuple-based and time-based windows,
* :mod:`repro.streaming.processor` -- a predicate-filtering stream query
  processor standing in for CQELS.
"""

from repro.streaming.format import DataFormatProcessor
from repro.streaming.generator import (
    FraudScenarioGenerator,
    IotScenarioGenerator,
    SyntheticStreamConfig,
    TrafficScenarioGenerator,
    UniformTripleGenerator,
    generate_window,
)
from repro.streaming.processor import StreamQueryProcessor
from repro.streaming.triples import Triple
from repro.streaming.window import (
    CountWindow,
    CountWindowStepper,
    LateArrivalError,
    TimeWindow,
    TimeWindowStepper,
    WindowDelta,
)

__all__ = [
    "CountWindow",
    "CountWindowStepper",
    "DataFormatProcessor",
    "LateArrivalError",
    "StreamQueryProcessor",
    "FraudScenarioGenerator",
    "IotScenarioGenerator",
    "SyntheticStreamConfig",
    "TimeWindow",
    "TimeWindowStepper",
    "WindowDelta",
    "TrafficScenarioGenerator",
    "Triple",
    "UniformTripleGenerator",
    "generate_window",
]
