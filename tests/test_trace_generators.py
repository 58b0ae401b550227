"""Tests for trace generation, CSV persistence and simulator replay."""

import pytest

from repro.servers.catalogue import APP_SERV_F, DB_SERVER
from repro.simulation.appserver import AppServerSim
from repro.simulation.database import DatabaseServerSim
from repro.simulation.engine import Simulator
from repro.simulation.metrics import MetricsCollector
from repro.util.errors import ValidationError
from repro.util.rng import RngStreams
from repro.workload.trade import browse_class, buy_class
from repro.workloads import (
    RequestRecord,
    TraceReplaySource,
    generate_trace,
    load_trace_csv,
    save_trace_csv,
)


class TestGenerateTrace:
    def test_rate_approximately_honoured(self):
        trace = generate_trace(browse_class(), 100.0, 30.0, seed=1)
        assert len(trace) == pytest.approx(3000, rel=0.1)

    def test_arrivals_sorted_and_within_duration(self):
        trace = generate_trace(browse_class(), 50.0, 10.0, seed=1)
        times = [e.arrival_ms for e in trace]
        assert times == sorted(times)
        assert all(0.0 <= t < 10_000.0 for t in times)

    def test_operations_come_from_the_class(self):
        trace = generate_trace(browse_class(), 50.0, 10.0, seed=1)
        names = {e.operation for e in trace}
        assert "quote" in names
        assert "buy" not in names

    def test_scripted_class_follows_per_client_script(self):
        trace = generate_trace(buy_class(), 50.0, 30.0, seed=1, n_clients=5)
        first_by_client = {}
        for entry in trace:
            first_by_client.setdefault(entry.client_id, entry.operation)
        # Every client's first scripted request is register_login.
        assert set(first_by_client.values()) == {"register_login"}

    def test_deterministic_by_seed(self):
        a = generate_trace(browse_class(), 50.0, 5.0, seed=3)
        b = generate_trace(browse_class(), 50.0, 5.0, seed=3)
        assert a == b

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValidationError):
            RequestRecord(arrival_ms=-1.0, operation="quote", client_id="x")

    @pytest.mark.parametrize("n_clients", [2.5, True])
    def test_client_count_must_be_a_positive_int(self, n_clients):
        with pytest.raises(ValidationError, match="n_clients"):
            generate_trace(browse_class(), 50.0, 5.0, seed=1, n_clients=n_clients)


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        trace = generate_trace(browse_class(), 80.0, 5.0, seed=2)
        path = save_trace_csv(trace, tmp_path / "trace.csv")
        assert load_trace_csv(path) == trace

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            load_trace_csv(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n")
        with pytest.raises(ValidationError, match="header"):
            load_trace_csv(path)

    def test_unknown_operation_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("arrival_ms,operation,client_id\n1.0,teleport,c\n")
        with pytest.raises(KeyError):
            load_trace_csv(path)

    def test_unsorted_arrivals_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "arrival_ms,operation,client_id\n5.0,quote,c\n1.0,quote,c\n"
        )
        with pytest.raises(ValidationError, match="non-decreasing"):
            load_trace_csv(path)


class TestTraceReplay:
    def _replay(self, trace, run_until_ms):
        sim = Simulator()
        streams = RngStreams(5)
        db = DatabaseServerSim(sim, DB_SERVER)
        server = AppServerSim(sim, APP_SERV_F, db, streams.get("svc"))
        metrics = MetricsCollector()
        metrics.start_measuring(0.0)
        source = TraceReplaySource(sim, trace, server, metrics)
        source.start()
        sim.run_until(run_until_ms)
        return source, metrics

    def test_every_entry_injected(self):
        trace = generate_trace(browse_class(), 60.0, 10.0, seed=4)
        source, metrics = self._replay(trace, 20_000.0)
        assert source.injected == len(trace)
        assert metrics.for_class("trace").count == len(trace)

    def test_replay_throughput_matches_trace_rate(self):
        trace = generate_trace(browse_class(), 120.0, 30.0, seed=4)
        _, metrics = self._replay(trace, 40_000.0)
        metrics.stop_measuring(30_000.0)
        assert metrics.throughput_req_per_s("trace") == pytest.approx(120.0, rel=0.1)

    def test_replay_response_times_sane(self):
        trace = generate_trace(browse_class(), 60.0, 10.0, seed=4)
        _, metrics = self._replay(trace, 20_000.0)
        # Light load, no network: responses near the raw demand (~8ms).
        assert 5.0 < metrics.for_class("trace").mean < 25.0

    def test_saved_trace_replays_identically(self, tmp_path):
        trace = generate_trace(browse_class(), 60.0, 5.0, seed=4)
        reloaded = load_trace_csv(save_trace_csv(trace, tmp_path / "t.csv"))
        a, _ = self._replay(trace, 10_000.0)
        b, _ = self._replay(reloaded, 10_000.0)
        assert a.injected == b.injected
