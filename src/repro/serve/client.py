"""A minimal blocking client for the grid server (stdlib ``http.client``).

Used by the CI smoke check and the tests; kept
deliberately tiny — real clients are expected to speak plain HTTP from
whatever stack they already have (the request schema is the contract,
not this class).  The underlying connection is keep-alive, so repeated
warm hits measure the service, not TCP setup.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Dict, Optional, Tuple

from repro.errors import ServeError


class ServiceClient:
    """Blocking JSON-over-HTTP client with one keep-alive connection."""

    def __init__(self, host: str, port: int, timeout: float = 120.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    # -- plumbing --------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> Tuple[int, dict]:
        """One request; returns ``(status, decoded JSON body)``.

        Retries once on a dropped keep-alive connection (the server may
        have closed an idle socket between requests).
        """
        payload = None
        headers = {}
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        for attempt in (1, 2):
            conn = self._connection()
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                break
            except (ConnectionError, http.client.HTTPException, OSError):
                self.close()
                if attempt == 2:
                    raise
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
        except ValueError:
            decoded = {"raw": raw.decode("utf-8", "replace")}
        if not isinstance(decoded, dict):
            decoded = {"raw": decoded}
        return response.status, decoded

    # -- endpoints -------------------------------------------------------
    def simulate(
        self,
        benchmark: str,
        selector: str,
        scale: float = 1.0,
        seed: int = 1,
        config: Optional[Dict[str, object]] = None,
    ) -> Tuple[dict, float]:
        """Submit one cell; returns ``(response body, latency seconds)``.

        Raises :class:`~repro.errors.ServeError` on a non-200 status.
        """
        body: Dict[str, object] = {
            "benchmark": benchmark, "selector": selector,
            "scale": scale, "seed": seed,
        }
        if config:
            body["config"] = config
        started = time.perf_counter()
        status, data = self.request("POST", "/v1/simulate", body)
        latency = time.perf_counter() - started
        if status != 200:
            raise ServeError(
                f"simulate returned {status}: {data.get('error', data)}"
            )
        return data, latency

    def stats(self) -> dict:
        status, data = self.request("GET", "/v1/stats")
        if status != 200:
            raise ServeError(f"stats returned {status}")
        return data

    def metrics_text(self) -> str:
        conn = self._connection()
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        return response.read().decode("utf-8")
