"""Each option is defaulted and bounds-checked once, by the registry.

Every component is built from ``registry.resolve(...).options``: the
``make_*`` factories hand the resolved options to the constructor, and
``FederatedAlgorithm`` resolves its own from ``FLConfig.extra``.  These
tests are driven by the declarations themselves, so an option added
later is covered without editing them:

* a value just outside any declared bound or ``choices`` fails through
  the public path (``FLConfig``, the family's ``make_*`` or
  ``build_algorithm``) with a ``ValueError`` naming the option;
* a built component holds the resolved value of each of its knobs.
"""

from __future__ import annotations

import math
import re

import pytest

from repro.algorithms import build_algorithm
from repro.data import build_federated_dataset, make_dataset
from repro.experiments.components import flag_table_markdown
from repro.fl import registry
from repro.fl.aggregation import make_aggregator
from repro.fl.attacks import make_attack
from repro.fl.codecs import make_codec
from repro.fl.config import FLConfig
from repro.fl.network import make_network
from repro.fl.population import make_population
from repro.fl.scheduler import make_scheduler
from repro.fl.telemetry import make_telemetry
from repro.fl.topology import make_topology
from repro.nn.models import mlp
from repro.utils.rng import RngFactory

#: config-selected family -> factory building it from a config
FACTORIES = {
    "codec": make_codec,
    "network": lambda cfg: make_network(cfg, num_clients=8, rngs=RngFactory(0)),
    "scheduler": make_scheduler,
    "population": lambda cfg: make_population(
        cfg, num_clients=8, rngs=RngFactory(0)
    ),
    "telemetry": make_telemetry,
    "attack": lambda cfg: make_attack(cfg, num_clients=8, rngs=RngFactory(0)),
    "aggregator": make_aggregator,
    "topology": lambda cfg: make_topology(cfg, num_clients=8, rngs=RngFactory(0)),
}

#: families whose components keep their resolved options as ``.options``
BUILT_FROM_OPTIONS = (
    "network", "scheduler", "population", "attack", "aggregator", "topology",
)

#: component attributes that hold a knob under another name
ATTRIBUTE_OF = {
    "net_availability": "availability",
    "net_latency_s": "latency_s",
    "net_step_seconds": "step_seconds",
    "net_sigma": "sigma",
    "net_straggler_frac": "straggler_frac",
    "net_straggler_factor": "straggler_factor",
    "pop_assign": "assign",
    "pop_join_start": "join_start",
    "pop_join_every": "join_every",
    "pop_session": "session",
    "pop_gap": "gap",
    "pop_churn_frac": "churn_frac",
    "topo_edges": "edges",
    "num_clusters": "k",
    "feddyn_alpha": "alpha",
    "tele_progress": "progress",
}


def _options(fam, impl) -> list:
    """The declarations resolving ``impl`` checks that apply to it."""
    return [
        o for o in registry._options_for(fam, impl)
        if o.only_for is None or impl.name in o.only_for
    ]


def _outside(o) -> list:
    """Values just outside each declared bound and the choices (a
    numeric option may name choices besides its bounded numbers)."""
    out = ["bogus"] if o.choices is not None else []
    if o.low is not None:
        if not o.low_inclusive:
            out.append(o.type(o.low))
        elif o.type is int:
            out.append(int(o.low) - 1)
        else:
            out.append(math.nextafter(o.low, -math.inf))
    if o.high is not None:
        if not o.high_inclusive:
            out.append(o.type(o.high))
        elif o.type is int:
            out.append(int(o.high) + 1)
        else:
            out.append(math.nextafter(o.high, math.inf))
    return out


def _bound_cases() -> list:
    cases, seen = [], set()
    for fam in registry.families():
        for name in sorted(fam.impls):
            for o in _options(fam, fam.impls[name]):
                if (fam.name, o) in seen:
                    continue
                seen.add((fam.name, o))
                for value in _outside(o):
                    cases.append(pytest.param(
                        fam.name, name, o, value,
                        id=f"{fam.name}-{name}-{o.name}={value!r}",
                    ))
    return cases


@pytest.fixture(scope="module")
def fed():
    ds = make_dataset("cifar10", seed=0, n_samples=120, size=8)
    return build_federated_dataset(
        ds, "label_skew", num_clients=4, frac_labels=0.2, rng=0,
        num_label_sets=2,
    )


def _model_fn(fed):
    return lambda rng: mlp(fed.num_classes, fed.input_shape, hidden=8, rng=rng)


class TestEveryDeclaredBoundIsEnforced:
    @pytest.mark.parametrize("family, impl, option, value", _bound_cases())
    def test_value_outside_bound_rejected(self, family, impl, option, value, fed):
        label = re.escape(option.field or option.name)
        with pytest.raises(ValueError, match=label):
            if family == "algorithm":
                cfg = FLConfig(rounds=1).with_extra(**{option.name: value})
                build_algorithm(impl, fed, _model_fn(fed), cfg)
            elif option.field is not None:
                FLConfig(**{option.field: value})
            else:
                fam = registry.get_family(family)
                cfg = FLConfig(
                    rounds=1, **{fam.field: impl}, extra={option.name: value}
                )
                FACTORIES[family](cfg)

    def test_factory_keyword_checked_where_it_does_not_apply(self):
        with pytest.raises(ValueError, match="buffer_size"):
            make_scheduler(scheduler="sync", buffer_size=-1)
        with pytest.raises(ValueError, match="topk_frac"):
            make_codec(codec="none", topk_frac=5.0)
        assert "buffer_size" not in make_scheduler(
            scheduler="sync", buffer_size=4
        ).options

    @pytest.mark.parametrize("method, extra", [
        ("fedclust", {"selection_k": 0}),
        ("cfl", {"min_cluster_size": 0}),
        ("perfedavg", {"personalize_epochs": -1}),
    ])
    def test_invalid_algorithm_knob_fails_before_training(self, method, extra, fed):
        (key,) = extra
        cfg = FLConfig(rounds=1).with_extra(**extra)
        with pytest.raises(ValueError, match=key):
            build_algorithm(method, fed, _model_fn(fed), cfg)


class TestComponentsHoldResolvedOptions:
    @staticmethod
    def _assert_holds(component, resolved: dict):
        for name, value in resolved.items():
            attr = ATTRIBUTE_OF.get(name, name)
            if value is not None and hasattr(component, attr):
                assert getattr(component, attr) == value, name
        assert component.options == resolved

    @pytest.mark.parametrize("family, impl", [
        (family, impl)
        for family in BUILT_FROM_OPTIONS
        for impl in sorted(registry.get_family(family).impls)
    ])
    def test_engine_component(self, family, impl):
        fam = registry.get_family(family)
        cfg = FLConfig(rounds=1, **{fam.field: impl})
        resolved = registry.resolve(family, config=cfg).options
        self._assert_holds(FACTORIES[family](cfg), resolved)

    @pytest.mark.parametrize(
        "method", sorted(registry.get_family("algorithm").impls)
    )
    def test_algorithm(self, method, fed):
        cfg = FLConfig(rounds=1)
        algo = build_algorithm(method, fed, _model_fn(fed), cfg)
        resolved = registry.resolve("algorithm", spec=method, config=cfg).options
        self._assert_holds(algo, resolved)
        assert "options" not in algo.checkpoint_state()

    def test_telemetry(self):
        cfg = FLConfig(rounds=1, telemetry="on:progress=2")
        resolved = registry.resolve("telemetry", config=cfg).options
        self._assert_holds(make_telemetry(cfg), resolved)

    def test_flaky_declares_its_own_availability(self):
        net = make_network(FLConfig(network="flaky"))
        assert net.availability == net.options["net_availability"] == 0.8
        assert "default 1.0 (`flaky`: 0.8)" in flag_table_markdown()
        assert make_network(FLConfig(network="hetero")).availability == 1.0
        via_extra = make_network(
            FLConfig(network="flaky", extra={"net_availability": 0.5})
        )
        assert via_extra.availability == 0.5
