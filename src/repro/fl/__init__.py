"""Federated-learning simulation engine: clients, server loop, metering,
and the simulated wire (codecs + network models).

Pluggable pieces (backends, codecs, networks, schedulers, populations,
telemetry, algorithms) are declared once in the component registry
(:mod:`repro.fl.registry`).
"""

from repro.fl.registry import (
    ComponentSpec,
    FamilySpec,
    OptionSpec,
    opt,
    register,
)
from repro.fl.codecs import (
    Codec,
    Encoded,
    Fp16Codec,
    IdentityCodec,
    Int8Codec,
    TopKCodec,
    make_codec,
)
from repro.fl.comm import MB, CommTracker
from repro.fl.config import FLConfig
from repro.fl.execution import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    make_backend,
)
from repro.fl.network import (
    ClientLink,
    FlakyNetwork,
    HeterogeneousNetwork,
    IdealNetwork,
    NetworkModel,
    StragglerNetwork,
    UniformNetwork,
    make_network,
    resolve_deadline,
)
from repro.fl.fairness import FairnessReport, fairness_report
from repro.fl.history import History, RoundRecord
from repro.fl.population import (
    ChurnPopulation,
    GrowthPopulation,
    PopulationEvent,
    PopulationModel,
    StaticPopulation,
    TracePopulation,
    make_population,
)
from repro.fl.sampling import sample_clients
from repro.fl.scheduler import (
    BufferedScheduler,
    Scheduler,
    SemiSyncScheduler,
    SyncScheduler,
    make_scheduler,
)
from repro.fl.server import (
    ClientUpdate,
    FederatedAlgorithm,
    average_states,
    weighted_average,
)
from repro.fl.telemetry import (
    NULL_TELEMETRY,
    MetricsRegistry,
    NullTelemetry,
    Telemetry,
    load_events,
    make_telemetry,
    replay_history,
)
from repro.fl.training import evaluate_accuracy, evaluate_loss, local_sgd, minibatches

__all__ = [
    "OptionSpec",
    "ComponentSpec",
    "FamilySpec",
    "opt",
    "register",
    "FLConfig",
    "CommTracker",
    "MB",
    "Codec",
    "Encoded",
    "IdentityCodec",
    "Fp16Codec",
    "Int8Codec",
    "TopKCodec",
    "make_codec",
    "NetworkModel",
    "ClientLink",
    "IdealNetwork",
    "UniformNetwork",
    "HeterogeneousNetwork",
    "StragglerNetwork",
    "FlakyNetwork",
    "make_network",
    "resolve_deadline",
    "Scheduler",
    "SyncScheduler",
    "SemiSyncScheduler",
    "BufferedScheduler",
    "make_scheduler",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "make_backend",
    "PopulationModel",
    "PopulationEvent",
    "StaticPopulation",
    "ChurnPopulation",
    "GrowthPopulation",
    "TracePopulation",
    "make_population",
    "FairnessReport",
    "fairness_report",
    "History",
    "RoundRecord",
    "sample_clients",
    "FederatedAlgorithm",
    "ClientUpdate",
    "weighted_average",
    "average_states",
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "MetricsRegistry",
    "make_telemetry",
    "replay_history",
    "load_events",
    "local_sgd",
    "evaluate_accuracy",
    "evaluate_loss",
    "minibatches",
]
