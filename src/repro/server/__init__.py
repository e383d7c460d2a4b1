"""repro.server — the flow as a long-lived HTTP/JSON service.

Zero new runtime dependencies: stdlib ``http.server`` transport over the
:class:`~repro.server.service.FlowService` core, which executes
:class:`~repro.api.FlowRequest` and :class:`~repro.api.CheckRequest`
jobs in waves, each on its own long-lived worker process
(:mod:`repro.server.pool`), and
serves identical requests from a sha256 digest-keyed
:class:`~repro.server.cache.ResultCache`.  The service runs flows and
checks only; it is the repo's one job scheduler, and the parallel table
suite (:func:`repro.experiments.run_parallel_suite`, behind ``repro
tables --parallel N``) submits its flows to it too.

Quickstart::

    repro serve --port 8765 --workers 4 &
    repro submit s9234 --wait --server http://127.0.0.1:8765

or in-process::

    from repro.api import FlowRequest
    from repro.server import FlowService, ServerOptions

    with FlowService(ServerOptions(workers=2)) as service:
        job = service.submit(FlowRequest(circuit="s9234"))
        job = service.wait(job.job_id)
        print(job.state, job.result_doc["result"]["improvements"])

See DESIGN.md §15 for the architecture (job lifecycle, cache keying,
load shedding).
"""

from .cache import ResultCache
from .client import ServerClient
from .http import ReproHTTPServer, make_server, serve
from .jobs import Job, JobStore
from .service import FlowService, ServerOptions
from .worker import execute_request_payload

__all__ = [
    "FlowService",
    "Job",
    "JobStore",
    "ReproHTTPServer",
    "ResultCache",
    "ServerClient",
    "ServerOptions",
    "execute_request_payload",
    "make_server",
    "serve",
]
