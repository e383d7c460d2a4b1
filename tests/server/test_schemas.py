"""Property tests of the versioned request/response wire schemas.

Every document type must round-trip ``from_dict(to_dict(x)) == x``
bit-identically (floats included — the cache and checkpoint digests
depend on it), reject unknown keys, and reject the wrong
``api_version``/``kind``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    API_VERSION,
    CheckRequest,
    FlowRequest,
    JobError,
    JobState,
    JobStatus,
    canonical_digest,
)
from repro.core import FlowOptions
from repro.errors import ReproError

finite = st.floats(
    min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False
)

options_strategy = st.builds(
    FlowOptions,
    period=finite,
    max_iterations=st.integers(1, 50),
    assignment=st.sampled_from(["flow", "ilp"]),
    skew_mode=st.sampled_from(["weighted", "minmax"]),
    slack_fraction=st.floats(0.0, 1.0, allow_nan=False),
    ring_grid_side=st.one_of(st.none(), st.integers(1, 16)),
    detailed_refinement=st.booleans(),
    trace=st.booleans(),
)

circuit_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=12
)

flow_requests = st.builds(
    FlowRequest,
    circuit=circuit_names,
    options=options_strategy,
    deadline_seconds=st.one_of(st.none(), finite),
)

check_requests = st.builds(
    CheckRequest,
    circuit=circuit_names,
    options=options_strategy,
    netlist_only=st.booleans(),
    deadline_seconds=st.one_of(st.none(), finite),
)

job_statuses = st.builds(
    JobStatus,
    job_id=st.from_regex(r"job-[0-9]{8}", fullmatch=True),
    kind=st.sampled_from(["flow", "check"]),
    state=st.sampled_from(list(JobState)),
    request_digest=st.from_regex(r"[0-9a-f]{64}", fullmatch=True),
    circuit=circuit_names,
    cached=st.booleans(),
    attempts=st.integers(0, 5),
    queued_seconds=st.floats(0, 1e4, allow_nan=False),
    run_seconds=st.floats(0, 1e4, allow_nan=False),
    num_events=st.integers(0, 100),
    error=st.one_of(
        st.none(),
        st.builds(
            JobError,
            kind=st.sampled_from(["crash", "timeout", "error"]),
            message=st.text(max_size=40),
            attempts=st.integers(1, 5),
        ),
    ),
)


class TestRoundTrips:
    @settings(max_examples=50)
    @given(flow_requests)
    def test_flow_request(self, request):
        doc = json.loads(json.dumps(request.to_dict()))
        assert FlowRequest.from_dict(doc) == request

    @settings(max_examples=50)
    @given(check_requests)
    def test_check_request(self, request):
        doc = json.loads(json.dumps(request.to_dict()))
        assert CheckRequest.from_dict(doc) == request

    @settings(max_examples=50)
    @given(job_statuses)
    def test_job_status(self, status):
        doc = json.loads(json.dumps(status.to_dict()))
        assert JobStatus.from_dict(doc) == status

    @settings(max_examples=50)
    @given(flow_requests)
    def test_digest_is_stable_and_normalized(self, request):
        assert request.digest() == request.digest()
        assert request.digest() == request.normalized().digest()
        # Execution knobs never change the cache identity.
        assert request.digest() == request.replace(
            deadline_seconds=123.0
        ).digest()

    def test_digest_differs_across_kinds(self):
        flow = FlowRequest(circuit="s27")
        check = CheckRequest(circuit="s27")
        assert flow.digest() != check.digest()

    def test_canonical_digest_is_key_order_independent(self):
        assert canonical_digest({"a": 1, "b": 2}) == canonical_digest(
            {"b": 2, "a": 1}
        )


class TestSchemaRejections:
    def test_unknown_key_rejected(self):
        doc = FlowRequest(circuit="s27").to_dict()
        doc["bogus"] = 1
        with pytest.raises(ReproError, match="unknown field"):
            FlowRequest.from_dict(doc)

    def test_wrong_api_version_rejected(self):
        # "v1" documents still carry the five FlowOptions fields v2 removed.
        for version in ("v0", "v1"):
            doc = FlowRequest(circuit="s27").to_dict()
            doc["api_version"] = version
            with pytest.raises(ReproError, match=API_VERSION):
                FlowRequest.from_dict(doc)

    def test_wrong_kind_rejected(self):
        doc = FlowRequest(circuit="s27").to_dict()
        doc["kind"] = "check"
        with pytest.raises(ReproError, match="kind"):
            FlowRequest.from_dict(doc)

    def test_status_wrong_version_rejected(self):
        doc = JobStatus(
            job_id="job-00000001",
            kind="flow",
            state=JobState.DONE,
            request_digest="0" * 64,
            circuit="s27",
        ).to_dict()
        doc["api_version"] = "v99"
        with pytest.raises(ReproError, match=API_VERSION):
            JobStatus.from_dict(doc)
