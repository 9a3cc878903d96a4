"""Telemetry: zero-cost default, replay equivalence, spans, metrics, CLI.

The contract under test (fl/telemetry.py): observation never changes a
run.  Telemetry is off by default (the engine holds the shared no-op
singleton); switched on, the history must equal the disabled run's
bit-for-bit (modulo the added ``extras["metrics"]`` snapshots and host
wall-clock), and :func:`repro.fl.telemetry.replay_history` must rebuild
the **full** live history — wall-clock seconds included — from the
typed event log alone, in memory or through the JSONL file.

Layers:

* ``TestDefaultOff`` — the default run carries ``NULL_TELEMETRY`` and
  no metrics extras; resolution honors config field, spec, and env.
* ``TestReplayEquivalence`` — schedulers x populations with telemetry
  on: off-vs-on canonical equality + exact replay (memory and file).
* ``TestGoldenReplay`` — every pinned golden-registry case rerun with
  telemetry on still matches its capture, and replays exactly.
* ``TestReplayProperty`` — Hypothesis: randomized short runs across
  scheduler/network/codec/population/dropout/seed replay exactly.
* ``TestSpansAndTrace`` — span taxonomy, event schema, Chrome-trace
  export shape.
* ``TestMetrics`` — registry unit semantics + counters vs history sums.
* ``TestCheckpointInterplay`` — telemetry stays out of checkpoint state
  and fingerprints; runs may resume with it toggled either way.
* ``TestCLI`` — ``--telemetry on`` end-to-end + the ``trace`` inspector
  + the ``progress`` live stream.
"""

from __future__ import annotations

import json
import logging

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from golden import canonical_history
from repro.algorithms import build_algorithm
from repro.data import build_federated_dataset, make_dataset
from repro.experiments.__main__ import main
from repro.experiments.configs import SMOKE_SCALE
from repro.experiments.runner import build_cell, resume_cell
from repro.fl.checkpoint import run_fingerprint
from repro.fl.config import FLConfig
from repro.fl.telemetry import (
    EVENT_TYPES,
    NULL_TELEMETRY,
    MetricsRegistry,
    Telemetry,
    load_events,
    make_telemetry,
    replay_history,
)
from repro.nn.models import mlp
from test_registry import TestGoldenEquivalence

ROUNDS = 3

#: wall-clock span names each scheduler's run must have traced
EXPECTED_SPANS = {
    "sync": {"setup", "round", "wire_down", "execute", "wire_up",
             "aggregate", "eval"},
    "semisync": {"setup", "round", "wire_down", "execute", "wire_up",
                 "aggregate", "eval"},
    "buffered": {"setup", "dispatch", "execute", "merge", "eval"},
}


def _cell(config_overrides=None, extra_overrides=None, fl_options=None,
          method="fedavg", seed=0):
    overrides = {"rounds": ROUNDS, **(config_overrides or {})}
    return build_cell(
        "cifar10", method, "label_skew_20", SMOKE_SCALE, seed=seed,
        config_overrides=overrides, extra_overrides=extra_overrides,
        fl_options=fl_options,
    )


def _strip_metrics(d: dict) -> dict:
    """Canonical dict minus the telemetry-only ``metrics`` extras."""
    d = dict(d)
    d["extras"] = [
        {k: v for k, v in extras.items() if k != "metrics"}
        for extras in d["extras"]
    ]
    return d


def _jsonable(d: dict) -> dict:
    return json.loads(json.dumps(d))


def _assert_replays_exactly(history, telemetry, events_path=None):
    """In-memory (and optionally file-based) replay == live ``as_dict``."""
    live = _jsonable(history.as_dict())
    assert replay_history(telemetry.events).as_dict() == live
    if events_path is not None:
        assert replay_history(load_events(events_path)).as_dict() == live


class TestDefaultOff:
    def test_default_run_is_unobserved(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        algo = _cell()
        history = algo.run()
        assert algo.telemetry is NULL_TELEMETRY
        assert not algo.telemetry.enabled
        assert all("metrics" not in r.extras for r in history.records)

    def test_resolution_paths(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert make_telemetry(FLConfig()) is NULL_TELEMETRY
        assert make_telemetry(FLConfig(telemetry="off")) is NULL_TELEMETRY
        on = make_telemetry(FLConfig(telemetry="on"))
        assert isinstance(on, Telemetry) and on.enabled
        spec = make_telemetry(telemetry="on:progress=2")
        assert spec.progress == 2
        monkeypatch.setenv("REPRO_TELEMETRY", "on")
        assert make_telemetry(FLConfig()).enabled
        monkeypatch.setenv("REPRO_TELEMETRY_PROGRESS", "3")
        assert make_telemetry(FLConfig()).progress == 3

    def test_null_telemetry_api_is_inert(self):
        tele = NULL_TELEMETRY
        with tele.span("x", client=1):
            pass
        tele.vspan("trip", 0.0, 1.0)
        tele.emit("arrival", client=0)
        tele.count("bytes_up", 10)
        tele.observe("staleness", 1.0)
        tele.gauge("roster_size", 4)
        tele.record(None)
        tele.begin_run(None)
        tele.finish()
        assert tele.events == ()
        assert tele.metrics_snapshot() == {}


#: (case id, fl_options) — one per scheduler, with dynamic populations
REPLAY_CASES = {
    "sync-static": {"scheduler": "sync", "population": "static"},
    "semisync-churn-stragglers": {
        "scheduler": "semisync", "network": "stragglers",
        "population": "churn", "over_select_frac": 0.5,
    },
    "buffered-growth-stragglers": {
        "scheduler": "buffered", "network": "stragglers",
        "population": "growth", "buffer_size": 2,
    },
}


class TestReplayEquivalence:
    @pytest.mark.parametrize("case", sorted(REPLAY_CASES))
    def test_on_vs_off_and_replay(self, case, tmp_path):
        fl_options = REPLAY_CASES[case]
        baseline = canonical_history(_cell(fl_options=fl_options).run())

        algo = _cell(
            {"telemetry": "on"}, {"tele_dir": str(tmp_path / case)},
            fl_options=fl_options,
        )
        history = algo.run()

        # observation leaves the trajectory untouched
        assert _strip_metrics(canonical_history(history)) == baseline
        # every committed record carries its metrics snapshot
        assert all("metrics" in r.extras for r in history.records)
        # the event log alone rebuilds the full live history
        _assert_replays_exactly(
            history, algo.telemetry, tmp_path / case / "events.jsonl"
        )

    def test_ifca_on_vs_off_and_replay(self, tmp_path):
        baseline = canonical_history(_cell(method="ifca").run())
        algo = _cell(
            {"telemetry": "on"}, {"tele_dir": str(tmp_path)}, method="ifca",
        )
        history = algo.run()
        assert _strip_metrics(canonical_history(history)) == baseline
        _assert_replays_exactly(
            history, algo.telemetry, tmp_path / "events.jsonl"
        )

    def test_lazy_population_on_flaky_network(self):
        """Clients the lazy population finds offline and clients the
        network's availability draw skips both land in
        ``extras["unavailable"]``, so replay still equals live."""
        algo = _cell(
            {"telemetry": "on", "rounds": 6, "sample_rate": 1.0},
            fl_options={"network": "flaky",
                        "population": "churn:session=0.3,gap=0.3,lazy=1"},
        )
        history = algo.run()
        skipped = [
            e["client"] for e in algo.telemetry.events
            if e["type"] == "unavailable"
        ]
        recorded = [c for r in history.records
                    for c in r.extras.get("unavailable", ())]
        assert len(skipped) > len(history.records)
        assert recorded == skipped
        _assert_replays_exactly(history, algo.telemetry)

    def test_eval_every_accumulates_between_records(self, tmp_path):
        """Granular events spanning several rounds fold into one record."""
        algo = _cell(
            {"telemetry": "on", "rounds": 4, "eval_every": 2},
            {"tele_events_out": str(tmp_path / "ev.jsonl")},
            fl_options={"network": "stragglers", "deadline": 40.0},
        )
        history = algo.run()
        assert len(history.records) == 2
        _assert_replays_exactly(history, algo.telemetry, tmp_path / "ev.jsonl")


class TestGoldenReplay:
    """Acceptance gate: every pinned golden config, telemetry on.

    The run must (a) still match its pre-telemetry pinned capture —
    proof the subsystem never perturbs any scheduler/codec/network
    combination the suite pins — and (b) replay bit-identically from
    the JSONL event log alone.
    """

    @pytest.mark.parametrize("case", sorted(TestGoldenEquivalence.CASES))
    def test_golden_with_telemetry_replays(
        self, case, tmp_path, golden_compare
    ):
        method, cfg_kw, extra, *rest = TestGoldenEquivalence.CASES[case]
        fed = TestGoldenEquivalence._fed(rest[0] if rest else "label_skew")
        cfg = FLConfig(
            rounds=3, sample_rate=0.6, local_epochs=1, batch_size=10,
            lr=0.05, eval_every=1, telemetry="on", **cfg_kw
        ).with_extra(tele_events_out=str(tmp_path / "ev.jsonl"), **extra)

        def model_fn(rng):
            return mlp(fed.num_classes, fed.input_shape, hidden=16, rng=rng)

        algo = build_algorithm(method, fed, model_fn, cfg, seed=0)
        history = algo.run()
        _assert_replays_exactly(history, algo.telemetry, tmp_path / "ev.jsonl")
        for rec in history.records:
            rec.extras.pop("metrics", None)
        golden_compare("golden_registry.json", case, algo, history)


class TestReplayProperty:
    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        scheduler=st.sampled_from(["sync", "semisync", "buffered"]),
        network=st.sampled_from(["ideal", "stragglers", "flaky"]),
        codec=st.sampled_from(["none", "int8"]),
        population=st.sampled_from(["static", "churn"]),
        dropout=st.sampled_from([0.0, 0.25]),
        seed=st.integers(min_value=0, max_value=3),
        rounds=st.integers(min_value=2, max_value=3),
    )
    def test_random_short_runs_replay_exactly(
        self, scheduler, network, codec, population, dropout, seed, rounds
    ):
        algo = _cell(
            {"telemetry": "on", "rounds": rounds,
             "dropout_rate": dropout},
            fl_options={"scheduler": scheduler, "network": network,
                        "codec": codec, "population": population},
            seed=seed,
        )
        history = algo.run()
        _assert_replays_exactly(history, algo.telemetry)


class TestSpansAndTrace:
    @pytest.mark.parametrize("scheduler", sorted(EXPECTED_SPANS))
    def test_span_taxonomy(self, scheduler, tmp_path):
        algo = _cell(
            {"telemetry": "on",
             "checkpoint_every": 2,
             "checkpoint_dir": str(tmp_path / "cks")},
            fl_options={"scheduler": scheduler, "network": "stragglers"},
        )
        algo.run()
        tele = algo.telemetry
        names = {s["name"] for s in tele.spans}
        assert EXPECTED_SPANS[scheduler] <= names
        assert "checkpoint" in names
        # codec spans appear whenever a lossy codec runs (separate case
        # below); here the identity codec must still produce trip vspans
        assert {v["name"] for v in tele.vspans} == {"trip"}
        assert all(v["t1"] >= v["t0"] for v in tele.vspans)

    def test_codec_spans(self):
        algo = _cell({"telemetry": "on"}, fl_options={"codec": "int8"})
        algo.run()
        names = {s["name"] for s in algo.telemetry.spans}
        assert {"encode", "decode"} <= names

    def test_ifca_assign_spans(self, tmp_path):
        """IFCA's cluster scoring has its own span, apart from the
        ``execute`` and ``eval`` phases that contain it."""
        algo = _cell(
            {"telemetry": "on"}, {"tele_dir": str(tmp_path)},
            fl_options={"backend": "vector"}, method="ifca",
        )
        algo.run()
        spans = [s for s in algo.telemetry.spans if s["name"] == "ifca_assign"]
        assert spans and all(
            s["cat"] == "algorithm" and s["args"]["models"] == algo.k
            and s["args"]["clients"] >= 1
            for s in spans
        )
        # the eval sweep scores every client in one pass
        assert max(s["args"]["clients"] for s in spans) == algo.fed.num_clients
        trace = json.loads((tmp_path / "trace.json").read_text())
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert {"ifca_assign", "execute", "eval"} <= names

    def test_event_schema(self):
        algo = _cell({"telemetry": "on"})
        algo.run()
        events = algo.telemetry.events
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert {e["type"] for e in events} <= set(EVENT_TYPES)
        assert events[0]["type"] == "run_start"
        assert events[-1] == {
            "type": "run_end", "seq": len(events) - 1, "records": ROUNDS,
        }

    def test_chrome_trace_shape(self, tmp_path):
        algo = _cell(
            {"telemetry": "on"}, {"tele_trace_out": str(tmp_path / "t.json")}
        )
        algo.run()
        trace = json.loads((tmp_path / "t.json").read_text())
        assert trace == _jsonable(algo.telemetry.chrome_trace())
        events = trace["traceEvents"]
        # two metadata lanes: wall clock (pid 1) and virtual clock (pid 2)
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["pid"] for e in meta} == {1, 2}
        spans = [e for e in events if e["ph"] == "X"]
        assert spans and all(
            e["dur"] >= 0 and e["pid"] in (1, 2) for e in spans
        )

    def test_metrics_csv_sink(self, tmp_path):
        algo = _cell(
            {"telemetry": "on"}, {"tele_metrics_out": str(tmp_path / "m.csv")}
        )
        algo.run()
        lines = (tmp_path / "m.csv").read_text().splitlines()
        assert lines[0] == "kind,name,stat,value"
        assert any(line.startswith("counter,bytes_up,") for line in lines)


class TestMetrics:
    def test_registry_scopes(self):
        m = MetricsRegistry()
        m.count("a")
        m.count("a", 2)
        m.observe("h", 1.0)
        m.observe("h", 3.0)
        m.gauge("g", 7.0)
        snap = m.round_snapshot()
        assert snap["counters"] == {"a": 3}
        assert snap["gauges"] == {"g": 7.0}
        assert snap["histograms"]["h"] == {
            "count": 2, "max": 3.0, "mean": 2.0, "min": 1.0, "sum": 4.0,
        }
        # the record scope drained; the cumulative scope did not
        m.count("a")
        assert m.round_snapshot()["counters"] == {"a": 1}
        assert m.totals()["counters"] == {"a": 4}

    def test_counters_match_history_sums(self):
        algo = _cell({"telemetry": "on"})
        history = algo.run()
        totals = algo.telemetry.metrics.totals()["counters"]
        assert totals["bytes_up"] == int(np.sum(history.upload_bytes))
        assert totals["bytes_down"] == int(np.sum(history.download_bytes))

    def test_record_deltas_sum_to_totals(self):
        algo = _cell({"telemetry": "on"})
        history = algo.run()
        per_round = [
            r.extras["metrics"]["counters"].get("bytes_up", 0)
            for r in history.records
        ]
        totals = algo.telemetry.metrics.totals()["counters"]
        assert sum(per_round) == totals["bytes_up"]


class TestCheckpointInterplay:
    def test_telemetry_not_in_checkpoint_state(self, tmp_path):
        algo = _cell(
            {"telemetry": "on", "checkpoint_every": 1,
             "checkpoint_dir": str(tmp_path)},
        )
        algo.run()
        assert "telemetry" not in algo.checkpoint_state()

    def test_fingerprint_ignores_tele_keys(self):
        plain = _cell()
        observed = _cell(
            {"telemetry": "on"},
            {"tele_dir": "/tmp/somewhere", "tele_progress": 5},
        )
        assert run_fingerprint(plain) == run_fingerprint(observed)

    def test_resume_toggles_telemetry_both_ways(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        baseline = canonical_history(_cell().run())
        algo = _cell(
            {"checkpoint_every": 1, "checkpoint_dir": str(tmp_path / "cks")},
        )
        algo.run()

        # checkpointed without telemetry, resumed with it (env toggle —
        # tele_* knobs stay out of the fingerprint, so this must load)
        monkeypatch.setenv("REPRO_TELEMETRY", "on")
        res = resume_cell(str(tmp_path / "cks" / "latest.ckpt"))
        assert res.algorithm.telemetry.enabled
        assert _strip_metrics(canonical_history(res.history)) == baseline

        # and the other direction: observed run (via the same env
        # toggle, so the stored provenance stays telemetry-neutral),
        # plain resume
        algo2 = _cell(
            {"checkpoint_every": 1, "checkpoint_dir": str(tmp_path / "cks2")},
        )
        algo2.run()
        monkeypatch.delenv("REPRO_TELEMETRY")
        res2 = resume_cell(str(tmp_path / "cks2" / "latest.ckpt"))
        assert not res2.algorithm.telemetry.enabled
        assert _strip_metrics(
            canonical_history(res2.history)
        ) == baseline


class TestCLI:
    def test_telemetry_flags_end_to_end(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        rc = main([
            "table1", "--scale", "smoke", "--dataset", "cifar10",
            "--telemetry", "on", "--telemetry-dir", str(run_dir),
        ])
        assert rc == 0
        capsys.readouterr()
        assert (run_dir / "events.jsonl").exists()
        assert (run_dir / "metrics.json").exists()
        assert (run_dir / "trace.json").exists()

        rc = main(["trace", str(run_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "event log" in out
        assert "round" in out

    def test_trace_accepts_events_file(self, tmp_path, capsys):
        algo = _cell(
            {"telemetry": "on"},
            {"tele_events_out": str(tmp_path / "ev.jsonl")},
        )
        algo.run()
        assert main(["trace", str(tmp_path / "ev.jsonl")]) == 0
        assert "records" in capsys.readouterr().out

    def test_trace_requires_target_and_rejects_junk(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["trace"])
        capsys.readouterr()
        assert main(["trace", str(tmp_path / "nope")]) == 1
        assert "no event log" in capsys.readouterr().err

    def test_progress_stream(self, caplog):
        algo = _cell(fl_options={"telemetry": "on:progress=1"})
        with caplog.at_level(logging.INFO, logger="repro.telemetry"):
            algo.run()
        lines = [
            r.getMessage() for r in caplog.records
            if r.name == "repro.telemetry"
        ]
        assert len(lines) == ROUNDS
        assert all("accuracy=" in line for line in lines)

    def test_on_record_hook(self):
        """An injected Telemetry (the live front-end path) survives run()."""
        algo = _cell()
        seen = []
        algo.telemetry = make_telemetry(telemetry="on")
        algo.telemetry.on_record = seen.append
        history = algo.run()
        assert seen == list(history.records)
