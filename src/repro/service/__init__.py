"""Service-grade facade over the disassociation pipelines.

The public surface of the service layer:

* :class:`AnonymizationService` -- a long-lived engine owning the warm
  state (warm engines, vocabulary) shared across requests,
  with synchronous (:meth:`~AnonymizationService.run`) and queued
  (:meth:`~AnonymizationService.submit` -> :class:`Job`) execution.
* :class:`ServiceConfig` -- the single validated configuration consolidating
  the engine, streaming and experiment parameter sets, with
  :meth:`~ServiceConfig.from_dict` / :meth:`~ServiceConfig.from_env`
  loaders.
* :class:`AnonymizationRequest` / :class:`PublicationResult` -- the uniform
  request and result model covering batch, streaming and file inputs.
* :class:`ServiceHTTPServer` (:mod:`repro.service.http`) -- the HTTP front
  door behind ``repro serve``: ``POST /anonymize`` (sync + async jobs),
  ``GET /jobs/<id>``, ``GET /stats``, ``GET /healthz``, with the bounded
  job queue mapped to 429/503 backpressure.
* :class:`~repro.service.metrics.ServiceMetrics` -- per-request latency
  and queue-wait histograms, phase timings, worker utilization and
  failure accounting (retries, deadline expiries) behind
  :meth:`AnonymizationService.stats`.
* :class:`RetryPolicy` -- bounded exponential-backoff retry of transient
  failures (injected faults), applied per request
  together with its deadline (``AnonymizationRequest.deadline`` /
  ``ServiceConfig.default_deadline``).

The CLI is a thin caller of this layer.
"""

from repro.service.config import ENV_PREFIX, RetryPolicy, ServiceConfig
from repro.service.http import ServiceHTTPServer, serve
from repro.service.metrics import LatencyHistogram, ServiceMetrics
from repro.service.request import MODES, AnonymizationRequest, PublicationResult
from repro.service.service import AnonymizationService, Job, anonymization_service

__all__ = [
    "ENV_PREFIX",
    "MODES",
    "AnonymizationRequest",
    "AnonymizationService",
    "Job",
    "LatencyHistogram",
    "PublicationResult",
    "RetryPolicy",
    "ServiceConfig",
    "ServiceHTTPServer",
    "ServiceMetrics",
    "anonymization_service",
    "serve",
]
