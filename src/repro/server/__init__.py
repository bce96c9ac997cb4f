"""The reputation server.

* :mod:`~repro.server.accounts` — registration, e-mail activation, login.
* :mod:`~repro.server.ratelimit` — token-bucket flood control.
* :mod:`~repro.server.votes` — vote/comment/remark ingestion rules.
* :mod:`~repro.server.pipeline` — the request pipeline: one function that
  decodes, authenticates, rate-limits, dispatches, encodes and records.
* :mod:`~repro.server.app` — the server application bound to the pipeline.
* :mod:`~repro.server.webview` — the web interface (HTML pages).
"""

from .accounts import AccountManager, AccountRecord
from .ratelimit import TokenBucket, RateLimiter
from .votes import VoteGate
from .pipeline import Pipeline, PipelineMetrics, RequestContext
from .app import ReputationServer, PRE_AUTH_MESSAGES
from .webview import WebView
from .http import HttpGateway, http_get

__all__ = [
    "AccountManager",
    "AccountRecord",
    "TokenBucket",
    "RateLimiter",
    "VoteGate",
    "ReputationServer",
    "PRE_AUTH_MESSAGES",
    "Pipeline",
    "PipelineMetrics",
    "RequestContext",
    "WebView",
    "HttpGateway",
    "http_get",
]
