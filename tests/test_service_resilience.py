"""Service-hardening tests: deadlines, bounded retry, HTTP failure kinds.

The contract under test, per the operations runbook (docs/OPERATIONS.md):

* a request's **deadline** (per-request ``deadline`` or the service's
  ``default_deadline``) starts at enqueue, is enforced at dequeue and at
  every pipeline phase boundary, and surfaces as
  :class:`DeadlineExceededError` (HTTP ``504``, kind
  ``deadline_exceeded``), counted once in ``stats()["failures"]``;
* **transient failures** (injected transient faults) are retried under
  the config's :class:`RetryPolicy` with exponential backoff, but only
  for replayable sources; the last failure surfaces as
  :class:`RetriesExhaustedError` (HTTP ``503`` + ``Retry-After``, kind
  ``retries_exhausted``);
* every HTTP error body carries a machine-readable ``kind`` and oversized
  bodies answer ``413`` under a configurable cap.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro import faults
from repro.datasets.quest import generate_quest
from repro.exceptions import (
    DeadlineExceededError,
    FaultInjected,
    ParameterError,
    RetriesExhaustedError,
)
from repro.service import (
    AnonymizationService,
    RetryPolicy,
    ServiceConfig,
    ServiceHTTPServer,
)

CONFIG = ServiceConfig(k=3, m=2, max_cluster_size=10, retry="attempts=2,backoff=0")


@pytest.fixture()
def dataset():
    return generate_quest(
        num_transactions=150, domain_size=40, avg_transaction_size=5.0, seed=2
    )


@pytest.fixture()
def service():
    svc = AnonymizationService(CONFIG)
    yield svc
    svc.close()


def http(base: str, method: str, path: str, payload=None, raw=None, timeout=60):
    """One HTTP round-trip; returns ``(status, decoded-json, headers)``."""
    if raw is not None:
        data = raw
    else:
        data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        base + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.load(response), dict(response.headers)
    except urllib.error.HTTPError as error:
        return (
            error.code,
            json.loads(error.read().decode("utf-8")),
            dict(error.headers),
        )


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ParameterError):
            RetryPolicy(attempts=0)
        with pytest.raises(ParameterError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ParameterError):
            RetryPolicy(backoff=-1.0)

    def test_backoff_schedule(self):
        policy = RetryPolicy(attempts=5, backoff=0.1, multiplier=2.0, max_backoff=0.35)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.35)  # capped

    def test_round_trips(self):
        policy = RetryPolicy.from_text("attempts=3,backoff=0.5")
        assert policy.attempts == 3
        assert RetryPolicy.from_dict(policy.to_dict()) == policy
        assert ServiceConfig(retry="attempts=3,backoff=0.5").retry == policy


class TestDeadlines:
    def test_request_validation(self, service, dataset):
        with pytest.raises(ParameterError):
            service.run(dataset, deadline=0)

    def test_expired_at_dequeue(self, service, dataset):
        with pytest.raises(DeadlineExceededError):
            service.run(dataset, deadline=1e-9)
        assert service.stats()["failures"]["deadline_exceeded"] == 1

    def test_generous_deadline_passes(self, service, dataset):
        result = service.run(dataset, deadline=300.0)
        assert result.publication.clusters
        assert service.stats()["failures"]["deadline_exceeded"] == 0

    def test_default_deadline_from_config(self, dataset):
        with AnonymizationService(
            ServiceConfig(k=3, max_cluster_size=10, default_deadline=1e-9)
        ) as svc:
            with pytest.raises(DeadlineExceededError):
                svc.run(dataset)
            # a per-request deadline overrides the unworkable default
            assert svc.run(dataset, deadline=300.0).publication.clusters

    def test_queued_job_deadline(self, service, dataset):
        job = service.submit(dataset, deadline=1e-9)
        with pytest.raises(DeadlineExceededError):
            job.result(timeout=60)


class TestRetries:
    def test_transient_fault_is_retried_to_success(self, service, dataset):
        plan = faults.FaultPlan([faults.FaultSpec("service.execute", hit=1)])
        with faults.active(plan):
            result = service.run(dataset)
        assert result.publication.clusters
        failures = service.stats()["failures"]
        assert failures["retries"] == 1
        assert failures["retries_exhausted"] == 0

    def test_persistent_fault_exhausts_retries(self, service, dataset):
        plan = faults.FaultPlan(
            [faults.FaultSpec("service.execute", probability=1.0)]
        )
        with faults.active(plan):
            with pytest.raises(RetriesExhaustedError) as excinfo:
                service.run(dataset)
        assert excinfo.value.attempts == 2
        failures = service.stats()["failures"]
        assert failures["retries_exhausted"] == 1
        assert failures["retries"] == 1

    def test_non_transient_fault_is_not_retried(self, service, dataset):
        plan = faults.FaultPlan(
            [faults.FaultSpec("service.execute", hit=1, transient=False)]
        )
        with faults.active(plan):
            with pytest.raises(FaultInjected):
                service.run(dataset)
        assert service.stats()["failures"]["retries"] == 0

    def test_consumed_iterator_is_not_replayed(self, service, dataset):
        plan = faults.FaultPlan([faults.FaultSpec("service.execute", hit=1)])
        with faults.active(plan):
            with pytest.raises(FaultInjected):
                service.run(iter(list(dataset)), mode="stream")
        assert service.stats()["failures"]["retries"] == 0

    def test_retry_output_matches_clean_run(self, service, dataset):
        clean = service.run(dataset)
        plan = faults.FaultPlan([faults.FaultSpec("service.execute", hit=1)])
        with faults.active(plan):
            retried = service.run(dataset)
        assert json.dumps(retried.to_dict(), sort_keys=True) == json.dumps(
            clean.to_dict(), sort_keys=True
        )


class TestHTTPFailureContract:
    @pytest.fixture()
    def served(self):
        service = AnonymizationService(CONFIG)
        server = ServiceHTTPServer(
            service, port=0, max_body_bytes=4096
        ).start()
        yield server
        server.close()

    RECORDS = [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"]] * 4

    def test_deadline_maps_to_504(self, served):
        status, body, _ = http(
            served.url,
            "POST",
            "/anonymize",
            {"records": self.RECORDS, "deadline": 1e-9, "overrides": {"k": 2}},
        )
        assert status == 504
        assert body["kind"] == "deadline_exceeded"
        assert "deadline" in body["error"]

    def test_retries_exhausted_maps_to_503_with_retry_after(self, served):
        plan = faults.FaultPlan(
            [faults.FaultSpec("service.execute", probability=1.0)]
        )
        with faults.active(plan):
            status, body, headers = http(
                served.url,
                "POST",
                "/anonymize",
                {"records": self.RECORDS, "overrides": {"k": 2}},
            )
        assert status == 503
        assert body["kind"] == "retries_exhausted"
        assert headers.get("Retry-After") == "1"

    def test_failed_async_job_carries_kind(self, served):
        plan = faults.FaultPlan(
            [faults.FaultSpec("service.execute", probability=1.0)]
        )
        with faults.active(plan):
            status, body, _ = http(
                served.url,
                "POST",
                "/anonymize",
                {"records": self.RECORDS, "async": True, "overrides": {"k": 2}},
            )
            assert status == 202
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                status, job, _ = http(served.url, "GET", body["href"])
                if job["state"] in ("failed", "done"):
                    break
                time.sleep(0.02)
        assert job["state"] == "failed"
        assert job["kind"] == "retries_exhausted"

    def test_oversize_body_maps_to_413(self, served):
        status, body, _ = http(
            served.url, "POST", "/anonymize", raw=b"x" * 8192
        )
        assert status == 413
        assert body["kind"] == "too_large"

    def test_bad_request_kinds(self, served):
        status, body, _ = http(
            served.url, "POST", "/anonymize", {"records": self.RECORDS, "resume": True}
        )
        assert (status, body["kind"]) == (400, "bad_request")
        status, body, _ = http(served.url, "GET", "/nope")
        assert (status, body["kind"]) == (404, "not_found")
        status, body, _ = http(served.url, "GET", "/anonymize")
        assert (status, body["kind"]) == (405, "method_not_allowed")

    def test_stats_exposes_failure_counters(self, served):
        http(
            served.url,
            "POST",
            "/anonymize",
            {"records": self.RECORDS, "deadline": 1e-9, "overrides": {"k": 2}},
        )
        _, stats, _ = http(served.url, "GET", "/stats")
        assert stats["failures"]["deadline_exceeded"] == 1
        assert set(stats["failures"]) == {
            "retries",
            "deadline_exceeded",
            "retries_exhausted",
        }
