"""The serving tier's request/response vocabulary.

One normalized *job spec* flows through the whole tier: the gateway
parses client JSON into it (:func:`parse_job_request`), hashes it into
the canonical content key every layer shares
(:func:`job_cache_key` — the same digest
:func:`repro.service.cache.canonical_job_key` gives the in-process
engine cache), ships it to a worker over a pipe, and the worker turns
the engine's answer into a JSON-serializable *result document*
(:func:`result_document`) that is simultaneously the HTTP response
body, the persistent-cache payload, and the coalesced answer every
waiter shares.

Worker pipe messages are plain dicts tagged with ``op``:

========== =============================================== ==========
op          fields                                          direction
========== =============================================== ==========
hello       worker, pid                                     w -> gw
factor      id, key, job (a spec dict), trace?              gw -> w
result      id, ok, result | error, cache, worker, trace?   w -> gw
health      id [request has no other fields]                both
shutdown    —                                               gw -> w
========== =============================================== ==========

The optional ``trace`` field carries distributed-tracing context.  On
``factor`` it is ``{"trace_id": <hex>, "parent": <gateway span id>}``;
the worker runs the whole request under a private tracer and echoes a
span *batch* back on ``result``: ``{"trace_id", "proc": "worker:N",
"anchor": [time.time(), perf_counter()], "remote_parent": <the parent
id from the request>, "spans": [span dicts]}``.  The gateway stitches
batches into one merged trace per request
(:func:`repro.obs.assemble_request_trace`); re-dispatching a ``factor``
message after a crash reuses it verbatim, so the retried attempt keeps
the original ``trace_id``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.service.cache import canonical_job_key
from repro.service.jobs import ALGORITHMS

__all__ = [
    "BadRequest",
    "parse_job_request",
    "job_cache_key",
    "result_document",
    "answers",
    "response_document",
    "estimate_kc_footprint",
    "SEARCHERS",
]

#: Rectangle searchers a request may name (mirrors the CLI choices).
SEARCHERS = ("pingpong", "exhaustive")

#: Hard ceiling on inline ``eqn`` payloads (bytes of text) — admission
#: control for request *size*, independent of queue depth.
MAX_EQN_BYTES = 4 * 1024 * 1024


class BadRequest(ValueError):
    """Client error: malformed or unsupported factor request."""


def _positive_int(doc: Dict[str, Any], field: str, default: int) -> int:
    value = doc.get(field, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise BadRequest(f"{field!r} must be a positive integer")
    return value


def parse_job_request(doc: Any) -> Dict[str, Any]:
    """Validate client JSON into the normalized job spec dict.

    Exactly one of ``circuit`` (a name or path the worker can resolve
    via :func:`repro.circuits.load_circuit`) or ``eqn`` (inline
    equation-format text) selects the network.  Everything else is
    optional with the CLI's defaults.
    """
    if not isinstance(doc, dict):
        raise BadRequest("request body must be a JSON object")
    circuit = doc.get("circuit")
    eqn = doc.get("eqn")
    if bool(circuit) == bool(eqn):
        raise BadRequest("provide exactly one of 'circuit' or 'eqn'")
    if circuit is not None and not isinstance(circuit, str):
        raise BadRequest("'circuit' must be a string")
    if eqn is not None:
        if not isinstance(eqn, str):
            raise BadRequest("'eqn' must be a string")
        if len(eqn) > MAX_EQN_BYTES:
            raise BadRequest(
                f"'eqn' exceeds the {MAX_EQN_BYTES // (1024 * 1024)} MiB limit"
            )
    algorithm = doc.get("algorithm", "sequential")
    klass = doc.get("class")
    if klass is not None:
        # 'class' is SLO sugar for the portfolio algorithms: latency
        # races for the first finisher, quality for the best literal
        # count.  It may restate — but not contradict — 'algorithm'.
        if klass not in ("latency", "quality"):
            raise BadRequest(
                f"unknown class {klass!r}; expected latency or quality"
            )
        if "algorithm" in doc and algorithm != f"portfolio:{klass}":
            raise BadRequest(
                f"'class': {klass!r} conflicts with explicit "
                f"algorithm {algorithm!r}"
            )
        algorithm = f"portfolio:{klass}"
    if algorithm not in ALGORITHMS:
        raise BadRequest(
            f"unknown algorithm {algorithm!r}; expected one of "
            f"{', '.join(ALGORITHMS)}"
        )
    searcher = doc.get("searcher", "pingpong")
    if searcher not in SEARCHERS:
        raise BadRequest(
            f"unknown searcher {searcher!r}; expected one of "
            f"{', '.join(SEARCHERS)}"
        )
    scale = doc.get("scale", 1.0)
    if not isinstance(scale, (int, float)) or isinstance(scale, bool) or scale <= 0:
        raise BadRequest("'scale' must be a positive number")
    node_budget = doc.get("node_budget")
    if node_budget is not None and (
        not isinstance(node_budget, int) or isinstance(node_budget, bool)
        or node_budget < 1
    ):
        raise BadRequest("'node_budget' must be a positive integer")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise BadRequest("'params' must be an object")
    tenant = doc.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise BadRequest("'tenant' must be a non-empty string")
    return {
        "circuit": circuit,
        "eqn": eqn,
        "algorithm": algorithm,
        "procs": _positive_int(doc, "procs", 4),
        "searcher": searcher,
        "scale": float(scale),
        "node_budget": node_budget,
        "params": params,
        "tenant": tenant,
        "wait": bool(doc.get("wait", True)),
        "include_network": bool(doc.get("include_network", False)),
    }


def job_cache_key(spec: Dict[str, Any], network) -> str:
    """The canonical content digest shared with the engine cache."""
    return canonical_job_key(
        network,
        spec["algorithm"],
        spec["procs"],
        params=spec["params"],
        searcher=spec["searcher"],
        node_budget=spec["node_budget"],
    )


def estimate_kc_footprint(network) -> int:
    """Rough per-job memory footprint: cube count x literal count.

    The dominant allocation of every factorization path is the
    kernel-cube matrix, whose row/column dimensions grow with the
    network's cubes and distinct literals — so their product is a cheap,
    monotone proxy the gateway's load-shed tier can budget against
    without resolving anything per-node.
    """
    cubes = sum(len(sop) for sop in network.nodes.values())
    lits = network.literal_count()
    return max(1, cubes) * max(1, lits)


def result_document(
    spec: Dict[str, Any], job_result, worker: Optional[int] = None
) -> Dict[str, Any]:
    """The JSON-serializable answer built from an engine JobResult.

    The optimized network is rendered as ``eqn`` only when the request
    set ``include_network``.  That flag is not part of the canonical
    key, so a document shared through the caches may or may not carry
    the network: :func:`answers` says whether it fits a request, and
    :func:`response_document` cuts each request's answer from it.
    """
    doc = {
        "circuit": job_result.circuit,
        "algorithm": job_result.algorithm,
        "procs": job_result.procs,
        "searcher": spec["searcher"],
        "status": str(job_result.status),
        "initial_lc": job_result.initial_lc,
        "final_lc": job_result.final_lc,
        "degraded": job_result.degraded,
        "attempts": job_result.attempts,
        "elapsed": job_result.elapsed,
    }
    if worker is not None:
        doc["worker"] = worker
    if spec.get("include_network"):
        network = getattr(job_result.payload, "network", None)
        if network is not None:
            from repro.network.eqn import write_eqn

            doc["eqn"] = write_eqn(network)
    return doc


def answers(doc: Dict[str, Any], spec: Dict[str, Any]) -> bool:
    """Whether a shared result document can answer the request *spec*.

    A document without ``eqn`` (computed for a request that did not ask
    for the network) cannot answer a request with ``include_network``.
    """
    return "eqn" in doc or not spec.get("include_network")


def response_document(doc: Dict[str, Any], spec: Dict[str, Any]) -> Dict[str, Any]:
    """The shared *doc* as answered to *spec*: ``eqn`` only if requested."""
    if "eqn" not in doc or spec.get("include_network"):
        return doc
    return {k: v for k, v in doc.items() if k != "eqn"}
