"""Tests for the unified component registry (repro.fl.registry).

Covers the three selection paths (config field, env var, inline spec
string) agreeing for every registered component, the derived FLConfig
validation, the flat fl_options mapping, the components/docs generators,
and a golden-equivalence check that default resolution reproduces a
pre-refactor engine capture bit-for-bit.
"""

from __future__ import annotations

import pytest

from repro.algorithms import build_algorithm
from repro.data import build_federated_dataset, make_dataset
from repro.experiments.components import (
    check_docs,
    components_text,
    flag_table_markdown,
)
from repro.experiments.runner import run_cell
from repro.experiments.configs import SMOKE_SCALE
from repro.fl import registry
from repro.fl.aggregation import make_aggregator
from repro.fl.attacks import make_attack
from repro.fl.codecs import IdentityCodec, TopKCodec, make_codec
from repro.fl.config import FLConfig
from repro.fl.execution import make_backend
from repro.fl.network import make_network
from repro.fl.population import make_population
from repro.fl.scheduler import make_scheduler
from repro.fl.topology import make_topology
from repro.nn.models import mlp
from repro.utils.rng import RngFactory

#: family name → (make factory keyword, factory)
FACTORIES = {
    "backend": lambda spec=None, config=None: make_backend(
        config, backend=spec
    ),
    "codec": lambda spec=None, config=None: make_codec(config, codec=spec),
    "network": lambda spec=None, config=None: make_network(
        config, num_clients=4, rngs=RngFactory(0), network=spec
    ),
    "scheduler": lambda spec=None, config=None: make_scheduler(
        config, scheduler=spec
    ),
    "population": lambda spec=None, config=None: make_population(
        config, num_clients=8, rngs=RngFactory(0), population=spec
    ),
    "attack": lambda spec=None, config=None: make_attack(
        config, num_clients=8, rngs=RngFactory(0), attack=spec
    ),
    "aggregator": lambda spec=None, config=None: make_aggregator(
        config, aggregator=spec
    ),
    "topology": lambda spec=None, config=None: make_topology(
        config, num_clients=8, rngs=RngFactory(0), topology=spec
    ),
}

ALL_IMPLS = [
    (family, name)
    for family in FACTORIES
    for name in sorted(registry.get_family(family).impls)
]


class TestRegistryShape:
    def test_families_present(self):
        names = [f.name for f in registry.families()]
        assert names == [
            "backend", "codec", "network", "scheduler", "population",
            "telemetry", "attack", "aggregator", "topology", "algorithm",
        ]

    def test_known_prefix_keys_derived(self):
        for family, key in [
            ("topology", "topo_edges"),
            ("network", "net_straggler_factor"),
            ("population", "pop_session"),
            ("scheduler", "sched_concurrency"),
            ("attack", "atk_frac"),
            ("aggregator", "agg_trim_frac"),
        ]:
            assert key in registry.known_prefix_keys(family)

    def test_every_algorithm_registered_with_class(self):
        fam = registry.get_family("algorithm")
        for name, spec in fam.impls.items():
            assert spec.cls.name == name
            assert spec.help  # one-line description from the docstring

    def test_auto_reserved(self):
        with pytest.raises(ValueError, match="reserved"):
            registry.register("codec", "auto")(object)

    def test_register_tolerates_missing_docstring(self):
        fam = registry.get_family("codec")

        class NoDoc:
            pass

        try:
            assert registry.register("codec", "nodoc-test")(NoDoc) is NoDoc
            assert fam.impls["nodoc-test"].help == ""
        finally:
            fam.impls.pop("nodoc-test", None)

    def test_late_registered_algorithm_is_constructible(self):
        """The extension story: a post-import @register lands everywhere."""
        fam = registry.get_family("algorithm")

        calls = []

        @registry.register("algorithm", "late-test")
        class LateAlgo:
            """A late registration."""

            def __init__(self, fed, model_fn, config, seed=0):
                calls.append((fed, model_fn, config, seed))

        try:
            build_algorithm("late-test", "fed", "model_fn", "config", seed=7)
            assert calls == [("fed", "model_fn", "config", 7)]
        finally:
            fam.impls.pop("late-test", None)


class TestThreePathAgreement:
    """Config field, env var, and inline spec select the same component."""

    @pytest.mark.parametrize("family,name", ALL_IMPLS)
    def test_plain_name_three_ways(self, family, name, monkeypatch):
        fam = registry.get_family(family)
        via_config = FACTORIES[family](
            config=FLConfig(rounds=1, **{fam.field: name})
        )
        monkeypatch.setenv(fam.env, name)
        via_env = FACTORIES[family](config=FLConfig(rounds=1))
        monkeypatch.delenv(fam.env)
        via_inline = FACTORIES[family](spec=name)
        assert type(via_config) is type(via_env) is type(via_inline)
        assert type(via_config) is fam.impls[name].cls

    def test_topk_frac_three_ways(self, monkeypatch):
        via_config = make_codec(FLConfig(rounds=1, codec="topk", topk_frac=0.2))
        monkeypatch.setenv("REPRO_CODEC", "topk")
        monkeypatch.setenv("REPRO_TOPK_FRAC", "0.2")
        via_env = make_codec(FLConfig(rounds=1))
        monkeypatch.delenv("REPRO_CODEC")
        monkeypatch.delenv("REPRO_TOPK_FRAC")
        via_inline = make_codec(codec="topk:frac=0.2")
        assert isinstance(via_config, TopKCodec)
        assert via_config.frac == via_env.frac == via_inline.frac == 0.2

    def test_buffered_knobs_three_ways(self, monkeypatch):
        via_config = make_scheduler(
            FLConfig(rounds=1, scheduler="buffered", buffer_size=4,
                     staleness_alpha=0.25)
        )
        monkeypatch.setenv("REPRO_SCHEDULER", "buffered")
        monkeypatch.setenv("REPRO_BUFFER_SIZE", "4")
        monkeypatch.setenv("REPRO_STALENESS_ALPHA", "0.25")
        via_env = make_scheduler(FLConfig(rounds=1))
        for var in ("REPRO_SCHEDULER", "REPRO_BUFFER_SIZE",
                    "REPRO_STALENESS_ALPHA"):
            monkeypatch.delenv(var)
        via_inline = make_scheduler(scheduler="buffered:bs=4,sa=0.25")
        for s in (via_config, via_env, via_inline):
            assert (s.options["buffer_size"], s.options["staleness_alpha"]) == (
                4, 0.25
            )

    def test_network_knob_three_ways(self, monkeypatch):
        cfg = FLConfig(rounds=1, network="stragglers").with_extra(
            net_straggler_factor=5.0
        )
        via_config = make_network(cfg, num_clients=4, rngs=RngFactory(0))
        monkeypatch.setenv("REPRO_NETWORK", "stragglers")
        monkeypatch.setenv("REPRO_NET_STRAGGLER_FACTOR", "5.0")
        via_env = make_network(FLConfig(rounds=1), num_clients=4,
                               rngs=RngFactory(0))
        monkeypatch.delenv("REPRO_NETWORK")
        monkeypatch.delenv("REPRO_NET_STRAGGLER_FACTOR")
        via_inline = make_network(network="stragglers:straggler_factor=5",
                                  num_clients=4, rngs=RngFactory(0))
        assert (via_config.straggler_factor == via_env.straggler_factor
                == via_inline.straggler_factor == 5.0)

    def test_env_spec_string_may_carry_inline_options(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODEC", "topk:frac=0.125")
        codec = make_codec(FLConfig(rounds=1))
        assert isinstance(codec, TopKCodec) and codec.frac == 0.125

    def test_sched_concurrency_inline_overrides_extra(self):
        cfg = FLConfig(rounds=1).with_extra(sched_concurrency=3)
        sched = make_scheduler(cfg, scheduler="buffered:concurrency=7")
        assert sched.options["sched_concurrency"] == 7

    def test_env_set_to_auto_means_unset(self, monkeypatch):
        # an env var of "auto" expresses "no opinion", not a component
        # named auto (e.g. `--codec auto` exports REPRO_CODEC=auto)
        monkeypatch.setenv("REPRO_CODEC", "auto")
        assert isinstance(make_codec(FLConfig(rounds=1)), IdentityCodec)

    def test_scheduler_defaults_from_declarations_for_other_impls(self):
        # each scheduler holds exactly its own declared knobs, at their
        # declared defaults: sync carries none of buffered's
        for name in ("sync", "semisync", "buffered"):
            sched = make_scheduler(scheduler=name)
            spec = registry.get_family("scheduler").impls[name]
            for o in spec.options:
                assert sched.options[o.name] == o.default
        assert "buffer_size" not in make_scheduler(scheduler="sync").options


class TestSpecStringErrors:
    def test_unknown_inline_option_lists_known(self):
        with pytest.raises(ValueError, match="known options"):
            make_codec(codec="topk:junk=1")

    def test_inline_cast_error_names_the_spec(self):
        with pytest.raises(ValueError, match="must be a float"):
            make_codec(codec="topk:frac=lots")

    def test_inline_bounds_checked(self):
        with pytest.raises(ValueError, match="topk_frac must be in"):
            make_codec(codec="topk:frac=0.0")

    def test_malformed_spec_rejected(self):
        with pytest.raises(ValueError, match="invalid codec spec"):
            FLConfig(codec="topk:frac")

    def test_unknown_impl_message_names_env_and_field(self):
        with pytest.raises(ValueError) as excinfo:
            make_codec(codec="gzip")
        message = str(excinfo.value)
        assert "unknown codec 'gzip'" in message
        assert "REPRO_CODEC" in message and "FLConfig.codec" in message

    def test_config_validates_inline_specs(self):
        FLConfig(codec="topk:frac=0.5")  # fine
        with pytest.raises(ValueError, match="topk_frac must be in"):
            FLConfig(codec="topk:frac=2.0")
        with pytest.raises(ValueError, match="unknown scheduler"):
            FLConfig(scheduler="gossip:x=1")

    def test_inline_option_for_wrong_impl_rejected(self):
        # a knob the selected implementation would silently drop is an
        # error, matching the CLI's "--x only applies to ..." checks
        # family-level option restricted via only_for -> "only applies to"
        with pytest.raises(ValueError, match="only applies to"):
            FLConfig(attack="none:frac=0.25")
        with pytest.raises(ValueError, match="only applies to"):
            FACTORIES["attack"](spec="none:frac=0.25")
        # impl-scoped option on another impl -> not declared there at all
        with pytest.raises(ValueError, match="unknown option 'bs'"):
            FLConfig(scheduler="sync:bs=4")
        FACTORIES["attack"](spec="signflip:frac=0.25")  # right impl: fine

    def test_population_options_rejected_on_every_other_family(self):
        """Satellite property: `resolve` rejects population options on
        non-population families — exhaustively, for every declared
        population option (canonical name and alias) against every
        implementation of every other family."""
        pop = registry.get_family("population")
        pop_keys = set()
        for o in list(pop.options) + [
            o for impl in pop.impls.values() for o in impl.options
        ]:
            if o.inline:
                pop_keys.add(o.name)
                if o.alias:
                    pop_keys.add(o.alias)
        assert pop_keys  # the sweep must actually cover something
        for family in ("backend", "codec", "network", "scheduler"):
            fam = registry.get_family(family)
            for impl in fam.impls:
                for key in pop_keys:
                    with pytest.raises(ValueError, match="unknown option|only applies to"):
                        registry.resolve(family, spec=f"{impl}:{key}=1")

    def test_population_only_for_cross_checks(self):
        # churn-scoped knobs on other population impls: not declared
        # there at all (impl options never leak across implementations)
        with pytest.raises(ValueError, match="unknown option"):
            registry.resolve("population", spec="static:session=4")
        with pytest.raises(ValueError, match="unknown option"):
            registry.resolve("population", spec="growth:gap=2")
        # family-level join knobs do not apply to static
        with pytest.raises(ValueError, match="only applies to"):
            registry.resolve("population", spec="static:assign=random")
        # the right implementations accept them
        registry.resolve("population", spec="churn:session=4,gap=2")
        registry.resolve("population", spec="growth:joiners=2,assign=random")

    def test_auto_with_inline_options_rejected_everywhere(self):
        # config validation and resolve() must agree, so the config
        # cannot validate a spec that would crash mid-run
        with pytest.raises(ValueError, match="not allowed on an 'auto'"):
            FLConfig(codec="auto:frac=0.2")
        with pytest.raises(ValueError, match="not allowed on an 'auto'"):
            make_codec(codec="auto:frac=0.2")

    def test_non_string_spec_rejected(self):
        # str(None) == "none" is a registered codec; coercion would
        # silently select it
        with pytest.raises(ValueError, match="must be a string"):
            FLConfig(codec=None)
        with pytest.raises(ValueError, match="must be a string"):
            FLConfig(network=5)

    def test_env_cast_errors_name_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULER", "buffered")
        monkeypatch.setenv("REPRO_SCHED_CONCURRENCY", "many")
        with pytest.raises(ValueError, match="REPRO_SCHED_CONCURRENCY"):
            make_scheduler(scheduler="auto")

    def test_env_inline_errors_name_the_variable(self, monkeypatch):
        # the user typed the typo into REPRO_CODEC, not into any spec
        # string they can see — the message must say where it came from
        monkeypatch.setenv("REPRO_CODEC", "topk:fraction=0.1")
        with pytest.raises(ValueError, match="from REPRO_CODEC"):
            make_codec(FLConfig(rounds=1))


class TestFlatOptions:
    def test_targets_cover_families_fields_and_extras(self):
        targets = registry.flat_option_targets()
        assert targets["codec"] == ("field", "codec")
        assert targets["topk_frac"] == ("field", "topk_frac")
        assert targets["deadline"] == ("field", "deadline")
        assert targets["net_mbps"] == ("extra", "net_mbps")
        assert targets["sched_concurrency"] == ("extra", "sched_concurrency")
        assert targets["prox_mu"] == ("extra", "prox_mu")
        assert targets["num_clusters"] == ("extra", "num_clusters")

    def test_apply_options_splits_fields_and_extras(self):
        fields, extras = registry.apply_options(
            {"codec": "topk", "topk_frac": 0.1, "net_mbps": 10.0,
             "prox_mu": 0.02}
        )
        assert fields == {"codec": "topk", "topk_frac": 0.1}
        assert extras == {"net_mbps": 10.0, "prox_mu": 0.02}

    def test_unknown_key_lists_known(self):
        with pytest.raises(ValueError, match="unknown fl_options key"):
            registry.apply_options({"codec_frac": 0.1})

    def test_flconfig_with_options(self):
        cfg = FLConfig(rounds=2).with_options(
            codec="topk", topk_frac=0.1, net_mbps=10.0
        )
        assert cfg.codec == "topk" and cfg.topk_frac == 0.1
        assert cfg.extra["net_mbps"] == 10.0

    def test_run_cell_rejects_unknown_kwargs(self):
        with pytest.raises(TypeError, match="fl_options"):
            run_cell("cifar10", "fedavg", "label_skew_20", SMOKE_SCALE,
                     codex="topk")

    def test_run_cell_rejects_unknown_fl_options_key(self):
        with pytest.raises(ValueError, match="unknown fl_options key"):
            run_cell("cifar10", "fedavg", "label_skew_20", SMOKE_SCALE,
                     fl_options={"topk_fraction": 0.1})


class TestComponentsAndDocs:
    def test_components_text_lists_every_impl(self):
        text = components_text()
        for family in FACTORIES:
            for name in registry.get_family(family).impls:
                assert name in text
        for name in registry.classes("algorithm"):
            assert name in text

    def test_flag_table_covers_cli_flags(self):
        table = flag_table_markdown()
        for flag in ("--backend", "--codec", "--topk-frac", "--network",
                     "--deadline", "--scheduler", "--buffer-size",
                     "--staleness-alpha", "--over-select-frac"):
            assert flag in table
        assert "REPRO_CODEC" in table and "net_mbps" in table

    def test_docs_in_sync_with_registry(self):
        assert check_docs() == []

    def test_components_cli_subcommand(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["components"]) == 0
        out = capsys.readouterr().out
        assert "component registry" in out and "topk" in out
        assert main(["components", "--markdown"]) == 0
        assert "| Flag / `FLConfig` field |" in capsys.readouterr().out
        assert main(["components", "--check-docs"]) == 0


class TestGoldenEquivalence:
    """Default resolution reproduces the pre-refactor engine capture.

    The capture (tests/data/golden_registry.json) was generated on the
    pre-registry engine (see CHANGES.md PR 4): small federations across
    algorithms, backends, codecs, networks, and schedulers.  Comparison
    semantics live in ``tests/golden.py`` (exact equality everywhere
    except ``sim_seconds`` at rtol 1e-12: an event clock accumulates
    globally, sync sums per-round maxima); ``REPRO_UPDATE_GOLDENS=1``
    regenerates the capture through the same helper.
    """

    CASES = {
        "fedavg-default": ("fedavg", dict(), dict()),
        "fedclust-default": ("fedclust", dict(), dict(lam="auto")),
        # the pinned capture's key; the default backend reproduces it
        "scaffold-thread": ("scaffold", dict(), dict()),
        "lg-int8-uniform": ("lg", dict(codec="int8", network="uniform"),
                            dict()),
        "fedavg-buffered-stragglers": (
            "fedavg",
            dict(scheduler="buffered", network="stragglers", buffer_size=2,
                 staleness_alpha=0.5),
            dict(),
        ),
        "fedavg-dropout": ("fedavg", dict(dropout_rate=0.25), dict()),
        "fedavg-int8-hetero": (
            "fedavg", dict(codec="int8", network="hetero"), dict(),
        ),
        "fedavg-semisync-stragglers": (
            "fedavg",
            dict(scheduler="semisync", network="stragglers",
                 over_select_frac=0.5),
            dict(),
        ),
        "ifca-flaky": ("ifca", dict(network="flaky"), dict(num_clusters=2)),
        "fedclust-topk-stragglers-deadline": (
            "fedclust",
            dict(codec="topk", network="stragglers", deadline=40.0),
            dict(lam="auto"),
        ),
        # 4th element: partition scheme (default label_skew) — pins the
        # Table-3 Dirichlet path into the determinism contract too.
        "fedclust-dirichlet": ("fedclust", dict(), dict(lam="auto"),
                               "dirichlet"),
    }

    @staticmethod
    def _fed(scheme: str = "label_skew"):
        ds = make_dataset("cifar10", seed=0, n_samples=240, size=8)
        if scheme == "dirichlet":
            return build_federated_dataset(
                ds, "dirichlet", num_clients=6, alpha=0.3, rng=0,
            )
        return build_federated_dataset(
            ds, "label_skew", num_clients=6, frac_labels=0.2, rng=0,
            num_label_sets=3,
        )

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_pre_refactor_capture(self, case, golden_compare):
        method, cfg_kw, extra, *rest = self.CASES[case]
        fed = self._fed(rest[0] if rest else "label_skew")
        cfg = FLConfig(
            rounds=3, sample_rate=0.6, local_epochs=1, batch_size=10,
            lr=0.05, eval_every=1, **cfg_kw
        ).with_extra(**extra)

        def model_fn(rng):
            return mlp(fed.num_classes, fed.input_shape, hidden=16, rng=rng)

        algo = build_algorithm(method, fed, model_fn, cfg, seed=0)
        history = algo.run()
        golden_compare("golden_registry.json", case, algo, history)
