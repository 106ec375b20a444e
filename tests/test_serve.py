"""Tests for the simulation service (repro.serve).

Covers the request schema, the three-tier resolution path (with the
single-flight coalescing contract the subsystem exists for), the HTTP
endpoints over a real loopback socket, the smoke check, and the CLI
startup error convention.
"""

import asyncio
import json
import socket

import pytest

from repro.cli import main
from repro.config import SystemConfig
from repro.errors import ServeError, StoreError
from repro.obs import CollectingSink, MetricsRegistry, Observer
from repro.serve import (
    CellRequest,
    ServerThread,
    ServiceClient,
    SimulationService,
    parse_cell_request,
    request_from_json,
    run_smoke,
)
from repro.store import ResultStore, cell_key

CELL = {"benchmark": "gzip", "selector": "net", "scale": 0.05, "seed": 1}


class TestProtocol:
    def test_minimal_request_gets_defaults(self):
        request = parse_cell_request({"benchmark": "gzip", "selector": "net"})
        assert request.scale == 1.0
        assert request.seed == 1
        assert request.config == SystemConfig()

    def test_request_key_matches_store_key(self):
        request = parse_cell_request(dict(CELL))
        expected = cell_key("gzip", "net", 0.05, 1, SystemConfig(),
                            code_version="v1")
        assert request.key("v1").digest == expected.digest

    def test_config_overrides_change_the_address(self):
        base = parse_cell_request(dict(CELL))
        tuned = parse_cell_request(
            {**CELL, "config": {"net_threshold": 40}}
        )
        assert tuned.config.net_threshold == 40
        assert tuned.key("v1").digest != base.key("v1").digest

    def test_non_object_body_rejected(self):
        with pytest.raises(ServeError, match="JSON object"):
            parse_cell_request([1, 2])

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ServeError, match="slector"):
            parse_cell_request(
                {"benchmark": "gzip", "slector": "net"}
            )

    def test_missing_required_field_rejected(self):
        with pytest.raises(ServeError, match="missing required"):
            parse_cell_request({"benchmark": "gzip"})

    def test_unknown_benchmark_and_selector_rejected(self):
        with pytest.raises(ServeError, match="unknown benchmark"):
            parse_cell_request({"benchmark": "spice", "selector": "net"})
        with pytest.raises(ServeError, match="unknown selector"):
            parse_cell_request({"benchmark": "gzip", "selector": "hot3000"})

    @pytest.mark.parametrize("scale", [0, -1, "big", True, None,
                                       float("inf"), float("-inf"),
                                       float("nan"), 10 ** 400])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(ServeError, match="scale"):
            parse_cell_request({**CELL, "scale": scale})

    @pytest.mark.parametrize("seed", [1.5, "one", True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ServeError, match="seed"):
            parse_cell_request({**CELL, "seed": seed})

    def test_unknown_config_field_rejected(self):
        with pytest.raises(ServeError, match="nett_threshold"):
            parse_cell_request({**CELL, "config": {"nett_threshold": 9}})

    def test_invalid_config_value_rejected(self):
        with pytest.raises(ServeError, match="invalid config override"):
            parse_cell_request({**CELL, "config": {"net_threshold": -5}})

    @pytest.mark.parametrize("field,value", [
        ("history_buffer_size", 2.5),
        ("history_buffer_size", 1e400),  # inf, as JSON decodes it too
        ("net_threshold", True),
        ("lei_allow_exit_cycles", 1),
        ("cache_capacity_bytes", 300.0),
        ("cache_eviction_policy", ["fifo"]),
    ])
    def test_override_of_the_wrong_type_rejected(self, field, value):
        with pytest.raises(ServeError, match=f"invalid config override: "
                                             f"{field} takes"):
            parse_cell_request({**CELL, "config": {field: value}})

    def test_overrides_of_the_declared_types_accepted(self):
        request = parse_cell_request({**CELL, "config": {
            "history_buffer_size": 100, "lei_allow_exit_cycles": False,
            "cache_capacity_bytes": None, "cache_eviction_policy": "fifo",
        }})
        assert request.config == SystemConfig(
            history_buffer_size=100, lei_allow_exit_cycles=False,
            cache_eviction_policy="fifo")

    def test_config_must_be_an_object(self):
        with pytest.raises(ServeError, match="config must be an object"):
            parse_cell_request({**CELL, "config": [1]})

    def test_body_must_be_valid_json(self):
        with pytest.raises(ServeError, match="not valid JSON"):
            request_from_json(b'{"torn')


def _request(**overrides) -> CellRequest:
    data = dict(CELL)
    data.update(overrides)
    return parse_cell_request(data)


def _run_service(tmp_path, coro_factory, **service_kwargs):
    """Run an async scenario against a started service; returns its result."""
    service_kwargs.setdefault("workers", 1)
    service_kwargs.setdefault("code_version", "v1")

    async def scenario():
        store = ResultStore(str(tmp_path / "store"))
        service = SimulationService(store, **service_kwargs)
        await service.start()
        try:
            return await coro_factory(service)
        finally:
            await service.close()

    return asyncio.run(scenario())


class TestSingleFlight:
    def test_concurrent_identical_requests_share_one_job(self, tmp_path):
        sink = CollectingSink()
        n = 6

        async def scenario(service):
            return await asyncio.gather(
                *(service.resolve(_request()) for _ in range(n))
            ), service.stats

        results, stats = _run_service(
            tmp_path, scenario, observer=Observer(sink=sink)
        )
        # Exactly one job launched for all N requests — the coalescing
        # contract, verified by the job-engine launch count.
        assert stats.jobs_launched == 1
        assert stats.batches == 1
        sources = sorted(source for _, source, _ in results)
        assert sources.count("computed") == 1
        assert sources.count("coalesced") == n - 1
        # Every waiter gets the same bit-identical report.
        reports = [report for report, _, _ in results]
        assert all(report == reports[0] for report in reports)
        digests = {digest for _, _, digest in results}
        assert len(digests) == 1
        assert len(sink.by_kind("serve_coalesced")) == n - 1

    def test_distinct_cells_batch_but_run_as_separate_jobs(self, tmp_path):
        requests = [_request(seed=seed) for seed in (1, 2, 3)]

        async def scenario(service):
            return await asyncio.gather(
                *(service.resolve(req) for req in requests)
            ), service.stats

        results, stats = _run_service(tmp_path, scenario)
        assert stats.jobs_launched == 3
        assert {source for _, source, _ in results} == {"computed"}
        assert len({digest for _, _, digest in results}) == 3

    def test_request_after_resolution_is_a_warm_store_hit(self, tmp_path):
        async def scenario(service):
            first = await service.resolve(_request())
            second = await service.resolve(_request())
            return first, second, service.stats

        first, second, stats = _run_service(tmp_path, scenario)
        assert first[1] == "computed"
        assert second[1] == "store"
        assert stats.jobs_launched == 1
        assert first[0] == second[0]

    def test_resolve_before_start_rejected(self, tmp_path):
        service = SimulationService(ResultStore(str(tmp_path / "store")))
        with pytest.raises(ServeError, match="not running"):
            asyncio.run(service.resolve(_request()))

    def test_double_start_rejected(self, tmp_path):
        async def scenario():
            service = SimulationService(ResultStore(str(tmp_path / "s")))
            await service.start()
            try:
                with pytest.raises(ServeError, match="already started"):
                    await service.start()
            finally:
                await service.close()

        asyncio.run(scenario())


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-store")
    observer = Observer(metrics=MetricsRegistry())
    with ServerThread(str(root), observer=observer, workers=1) as handle:
        with ServiceClient("127.0.0.1", handle.port) as client:
            yield handle, client


class TestHttpEndpoints:
    def test_simulate_cold_then_warm(self, server):
        handle, client = server
        cold, _ = client.simulate(**CELL)
        assert cold["status"] == "ok"
        assert cold["source"] == "computed"
        assert cold["cell"]["benchmark"] == "gzip"
        assert len(cold["digest"]) == 64
        warm, _ = client.simulate(**CELL)
        assert warm["source"] == "store"
        assert warm["report"] == cold["report"]
        assert warm["digest"] == cold["digest"]

    def test_cell_lookup_by_digest(self, server):
        handle, client = server
        body, _ = client.simulate(**CELL)
        status, payload = client.request("GET", f"/v1/cell/{body['digest']}")
        assert status == 200
        assert payload["digest"] == body["digest"]
        assert payload["key"]["benchmark"] == "gzip"
        assert payload["report"] == body["report"]

    def test_cell_lookup_unknown_digest_404(self, server):
        handle, client = server
        status, payload = client.request("GET", "/v1/cell/" + "0" * 64)
        assert status == 404
        assert payload["status"] == "error"

    def test_cell_lookup_bad_digest_400(self, server):
        handle, client = server
        status, payload = client.request("GET", "/v1/cell/not-a-digest")
        assert status == 400
        assert "sha256" in payload["error"]

    def test_healthz(self, server):
        handle, client = server
        status, payload = client.request("GET", "/healthz")
        assert status == 200
        assert payload == {"status": "ok", "inflight": 0}

    def test_stats_reports_resolution_paths(self, server):
        handle, client = server
        client.simulate(**CELL)
        status, payload = client.request("GET", "/v1/stats")
        assert status == 200
        service = payload["service"]
        assert service["requests"] >= 1
        assert service["warm_hits"] >= 1
        assert payload["store"]["puts"] >= 1

    def test_metrics_exposition(self, server):
        handle, client = server
        client.simulate(**CELL)
        text = client.metrics_text()
        assert "# TYPE repro_serve_requests_total counter" in text
        assert 'path="/v1/simulate"' in text
        assert "repro_serve_latency_seconds_bucket" in text
        assert 'source="store"' in text

    def test_metrics_path_cardinality_is_collapsed(self, server):
        handle, client = server
        body, _ = client.simulate(**CELL)
        client.request("GET", f"/v1/cell/{body['digest']}")
        text = client.metrics_text()
        assert 'path="/v1/cell/:digest"' in text
        assert body["digest"] not in text

    def test_invalid_cell_is_a_400(self, server):
        handle, client = server
        status, payload = client.request(
            "POST", "/v1/simulate", {"benchmark": "gzip"}
        )
        assert status == 400
        assert payload["status"] == "error"
        assert "selector" in payload["error"]

    def test_uncomputable_cell_is_a_400_and_launches_nothing(self, server):
        handle, client = server
        launched = client.stats()["service"]["jobs_launched"]
        body = b'{"benchmark": "gzip", "selector": "lei", "scale": 1e400}'
        with socket.create_connection(("127.0.0.1", handle.port)) as raw:
            raw.sendall(
                b"POST /v1/simulate HTTP/1.1\r\n"
                b"Host: x\r\nContent-Length: %d\r\n\r\n%s"
                % (len(body), body)
            )
            response = raw.recv(65536)
        assert b"400" in response.split(b"\r\n", 1)[0]
        assert b"positive finite number" in response
        status, payload = client.request(
            "POST", "/v1/simulate",
            {**CELL, "config": {"history_buffer_size": 2.5}})
        assert status == 400
        assert "history_buffer_size takes int" in payload["error"]
        assert client.stats()["service"]["jobs_launched"] == launched

    def test_unknown_route_is_a_404(self, server):
        handle, client = server
        status, payload = client.request("GET", "/v1/nope")
        assert status == 404

    def test_wrong_method_is_a_405(self, server):
        handle, client = server
        status, _ = client.request("GET", "/v1/simulate")
        assert status == 405
        status, _ = client.request("POST", "/healthz", {})
        assert status == 405

    def test_malformed_http_is_a_400(self, server):
        handle, client = server
        with socket.create_connection(("127.0.0.1", handle.port)) as raw:
            raw.sendall(b"NOT A REQUEST\r\n\r\n")
            response = raw.recv(4096)
        assert b"400" in response.split(b"\r\n", 1)[0]

    def test_bad_json_body_is_a_400(self, server):
        handle, client = server
        with socket.create_connection(("127.0.0.1", handle.port)) as raw:
            body = b'{"torn'
            raw.sendall(
                b"POST /v1/simulate HTTP/1.1\r\n"
                b"Host: x\r\nContent-Length: %d\r\n\r\n%s"
                % (len(body), body)
            )
            response = raw.recv(65536)
        assert b"400" in response.split(b"\r\n", 1)[0]
        assert b"not valid JSON" in response


class TestServerThreadStartup:
    def test_port_in_use_raises_in_caller(self, tmp_path):
        holder = socket.socket()
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        try:
            port = holder.getsockname()[1]
            with pytest.raises(OSError):
                ServerThread(str(tmp_path / "s"), port=port).start()
        finally:
            holder.close()

    def test_bad_store_root_raises_in_caller(self, tmp_path):
        file_path = tmp_path / "not-a-dir"
        file_path.write_text("x")
        with pytest.raises(StoreError, match="not a directory"):
            ServerThread(str(file_path)).start()


class TestSmoke:
    def test_smoke_contract_and_latency_artifact(self, tmp_path):
        out = tmp_path / "latency.json"
        record = run_smoke(latency_out=str(out), warm_requests=3)
        assert record["service"]["jobs_launched"] == 1
        assert record["warm_p50_ms"] < record["cold_ms"]
        written = json.loads(out.read_text())
        assert written["digest"] == record["digest"]
        assert written["warm_requests"] == 3


class TestServeCli:
    def test_smoke_flag_runs_and_reports(self, tmp_path, capsys):
        out = tmp_path / "lat.json"
        assert main(["serve", "--smoke", "--latency-out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "smoke ok" in printed
        assert "1 job launched" in printed
        assert out.exists()

    def test_bad_store_path_is_one_line_error(self, tmp_path, capsys):
        file_path = tmp_path / "store-file"
        file_path.write_text("x")
        assert main(["serve", "--store", str(file_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_port_in_use_is_one_line_error(self, tmp_path, capsys):
        holder = socket.socket()
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        try:
            port = holder.getsockname()[1]
            code = main([
                "serve", "--port", str(port),
                "--store", str(tmp_path / "store"),
            ])
        finally:
            holder.close()
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot bind")
        assert len(err.strip().splitlines()) == 1
