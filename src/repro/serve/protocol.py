"""Request/response schema of the simulation service.

A client declares one grid cell — exactly the tuple the
content-addressed store hashes — and the service resolves it::

    {"benchmark": "gzip", "selector": "net",
     "scale": 0.5, "seed": 1,
     "config": {"net_threshold": 40}}

``config`` carries *overrides* of :class:`~repro.config.SystemConfig`
fields; omitted fields keep the paper's published defaults, so two
clients that submit the same logical cell build the same
:class:`~repro.store.CellKey` and coalesce onto the same work.
Validation is strict — unknown fields anywhere are rejected rather
than silently ignored, because an ignored typo ("slector") would
compute the wrong cell while looking like a success.

The response wraps the cell's
:class:`~repro.metrics.summary.MetricReport` with its resolution
provenance::

    {"status": "ok", "source": "store" | "coalesced" | "computed",
     "digest": "...", "elapsed_ms": 1.93, "cell": {...}, "report": {...}}
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass, field
from typing import Dict, Optional, Union, get_args, get_origin, get_type_hints

from repro.config import SystemConfig
from repro.errors import ConfigError, ServeError
from repro.metrics.summary import MetricReport
from repro.selection.registry import SELECTOR_FACTORIES
from repro.store import CellKey, cell_key
from repro.workloads import benchmark_names

#: Resolution tiers, fastest first (see docs/service.md).
SOURCES = ("store", "coalesced", "computed")

#: Top-level request fields accepted by ``POST /v1/simulate``.
_REQUEST_FIELDS = ("benchmark", "selector", "scale", "seed", "config")

#: Each config field's declared type, read off ``SystemConfig`` itself.
_CONFIG_TYPES = get_type_hints(SystemConfig)


def _has_type(value: object, hint: object) -> bool:
    """True when ``value`` is of the declared type ``hint``.

    ``bool`` is an ``int`` subclass, but a flag is not a count: an
    integer field refuses ``True`` and a flag refuses ``1``.
    """
    if get_origin(hint) is Union:
        return any(_has_type(value, arm) for arm in get_args(hint))
    return isinstance(value, hint) and (
        hint is bool or not isinstance(value, bool))


@dataclass(frozen=True)
class CellRequest:
    """One declared grid cell, validated and ready to address."""

    benchmark: str
    selector: str
    scale: float = 1.0
    seed: int = 1
    config: SystemConfig = field(default_factory=SystemConfig)

    def key(self, code_version: Optional[str] = None) -> CellKey:
        """The cell's content address (single-flight dedup key)."""
        return cell_key(self.benchmark, self.selector, self.scale,
                        self.seed, self.config, code_version=code_version)

    def to_dict(self) -> Dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "selector": self.selector,
            "scale": self.scale,
            "seed": self.seed,
            "config": dataclasses.asdict(self.config),
        }


def parse_cell_request(data: object) -> CellRequest:
    """Validate a decoded request body into a :class:`CellRequest`.

    Raises :class:`~repro.errors.ServeError` with a client-presentable
    message on any schema violation.
    """
    if not isinstance(data, dict):
        raise ServeError(
            f"request body must be a JSON object, got "
            f"{type(data).__name__}"
        )
    unknown = sorted(set(data) - set(_REQUEST_FIELDS))
    if unknown:
        raise ServeError(
            f"unknown request field(s) {unknown}; accepted: "
            f"{list(_REQUEST_FIELDS)}"
        )
    try:
        benchmark = data["benchmark"]
        selector = data["selector"]
    except KeyError as exc:
        raise ServeError(f"request is missing required field {exc}") from None
    if benchmark not in benchmark_names():
        raise ServeError(
            f"unknown benchmark {benchmark!r}; known: "
            f"{list(benchmark_names())}"
        )
    if selector not in SELECTOR_FACTORIES:
        raise ServeError(
            f"unknown selector {selector!r}; known: "
            f"{sorted(SELECTOR_FACTORIES)}"
        )
    scale = data.get("scale", 1.0)
    # JSON's 1e400 decodes to inf and 10**400 has no float: no program
    # can be built at either.
    if not isinstance(scale, (int, float)) or isinstance(scale, bool) \
            or not 0 < scale <= sys.float_info.max:
        raise ServeError(
            f"scale must be a positive finite number, got {scale!r}")
    seed = data.get("seed", 1)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ServeError(f"seed must be an integer, got {seed!r}")
    overrides = data.get("config", {})
    if not isinstance(overrides, dict):
        raise ServeError(
            f"config must be an object of SystemConfig overrides, got "
            f"{type(overrides).__name__}"
        )
    bad_fields = sorted(set(overrides) - set(_CONFIG_TYPES))
    if bad_fields:
        raise ServeError(
            f"unknown config field(s) {bad_fields}; see "
            f"repro.config.SystemConfig"
        )
    for name, value in overrides.items():
        hint = _CONFIG_TYPES[name]
        if not _has_type(value, hint):
            expected = " or ".join(
                "null" if arm is type(None) else arm.__name__
                for arm in get_args(hint) or (hint,)
            )
            raise ServeError(
                f"invalid config override: {name} takes {expected}, "
                f"got {value!r}"
            )
    try:
        config = SystemConfig(**overrides)
    except ConfigError as exc:
        raise ServeError(f"invalid config override: {exc}") from None
    return CellRequest(benchmark=benchmark, selector=selector,
                       scale=float(scale), seed=seed, config=config)


def request_from_json(body: bytes) -> CellRequest:
    """Decode and validate an HTTP request body."""
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ServeError(f"request body is not valid JSON: {exc}") from None
    return parse_cell_request(data)


def response_payload(
    request: CellRequest,
    digest: str,
    report: MetricReport,
    source: str,
    elapsed_ms: float,
) -> Dict[str, object]:
    """The ``POST /v1/simulate`` success body."""
    from repro.analysis.serialize import report_to_dict

    return {
        "status": "ok",
        "source": source,
        "digest": digest,
        "elapsed_ms": round(elapsed_ms, 3),
        "cell": request.to_dict(),
        "report": report_to_dict(report),
    }


def error_payload(message: str) -> Dict[str, object]:
    """The error body every endpoint shares."""
    return {"status": "error", "error": message}
