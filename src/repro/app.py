"""WSGI entry point of the verification service.

The same :class:`~repro.service.core.ServiceCore` that backs the stdlib
``http.server`` transport (:mod:`repro.server`), exposed as a standard
WSGI callable so the service can run under any WSGI server — from the
stdlib's ``wsgiref`` (tests, single process) to a process-managing
server in production::

    # stdlib, single worker:
    python -m wsgiref.simple_server  # or programmatically:
    from wsgiref.simple_server import make_server
    from repro.app import create_app
    with make_server("127.0.0.1", 8080, create_app()) as httpd:
        httpd.serve_forever()

    # any WSGI server, module-level callable:
    #   <wsgi-server> repro.app:application

Configuration comes from the environment when the module-level
``application`` is used: ``AALWINES_STORE`` attaches the shared artifact
store (as everywhere else), and ``AALWINES_RATE_LIMIT=production``
enables the production rate-limit defaults. :func:`create_app` takes the
same knobs programmatically.

SSE streaming (``GET /jobs/<id>/stream``) maps naturally: the WSGI
iterable yields one Server-Sent-Events frame per chunk.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple
from urllib.parse import quote

from repro import obs
from repro.service.core import (
    ServiceCore,
    ServiceRequest,
    _BadRequest,
    error_response,
    read_body,
)
from repro.service.ratelimit import RateLimitConfig, RateLimiter

WsgiApp = Callable[[Dict[str, Any], Callable[..., Any]], Iterable[bytes]]


def create_app(
    core: Optional[ServiceCore] = None,
    store: Optional[str] = None,
    rate_limit: Optional[RateLimitConfig] = None,
    observe: bool = True,
) -> WsgiApp:
    """Build a WSGI application around a (possibly shared) service core.

    ``store`` attaches the shared artifact store (also exported to the
    environment for farm pool workers); ``rate_limit`` enables
    per-client budgets; both are ignored when an explicit ``core`` is
    passed, which carries its own.
    """
    if core is None:
        if store is not None:
            from repro.farm.store import configure_store

            configure_store(store)
        core = ServiceCore(
            limiter=RateLimiter(rate_limit) if rate_limit is not None else None
        )
    if observe:
        obs.enable()

    def application(
        environ: Dict[str, Any], start_response: Callable[..., Any]
    ) -> Iterable[bytes]:
        try:
            # WSGI servers may pass an absent Content-Length as "".
            body = read_body(
                environ.get("CONTENT_LENGTH") or None, environ.get("wsgi.input")
            )
        except _BadRequest as error:
            response = error_response(str(error), 400)
        else:
            request = ServiceRequest(
                method=environ.get("REQUEST_METHOD", "GET"),
                target=_target(environ),
                headers=_headers(environ),
                body=body,
                peer=environ.get("REMOTE_ADDR", ""),
            )
            response = core.handle(request)
        headers: List[Tuple[str, str]] = [
            ("Content-Type", response.content_type)
        ]
        headers.extend(response.headers)
        if response.stream is None:
            headers.append(("Content-Length", str(len(response.body))))
            start_response(f"{response.status} {response.reason}", headers)
            return [response.body]
        start_response(f"{response.status} {response.reason}", headers)
        return response.stream

    return application


def _target(environ: Dict[str, Any]) -> str:
    """The raw request target, reconstructed from WSGI's decoded path.

    WSGI hands us ``PATH_INFO`` already percent-decoded while the core
    unquotes exactly once, so the path is re-quoted here to round-trip
    names containing reserved characters.
    """
    path = quote(environ.get("PATH_INFO", "/"), safe="/")
    query = environ.get("QUERY_STRING", "")
    return f"{path}?{query}" if query else path


def _headers(environ: Dict[str, Any]) -> Dict[str, str]:
    """The request headers in their conventional ``Kebab-Case`` names."""
    headers: Dict[str, str] = {}
    for key, value in environ.items():
        if key.startswith("HTTP_"):
            headers[key[5:].replace("_", "-").title()] = value
    if "CONTENT_TYPE" in environ:
        headers["Content-Type"] = environ["CONTENT_TYPE"]
    if "CONTENT_LENGTH" in environ:
        headers["Content-Length"] = environ["CONTENT_LENGTH"]
    return headers


_DEFAULT_APP: Optional[WsgiApp] = None


def application(
    environ: Dict[str, Any], start_response: Callable[..., Any]
) -> Iterable[bytes]:
    """Module-level WSGI callable (``repro.app:application``), built
    lazily from the environment on the first request so importing this
    module has no side effects."""
    global _DEFAULT_APP
    if _DEFAULT_APP is None:
        rate_limit = None
        if os.environ.get("AALWINES_RATE_LIMIT") == "production":
            rate_limit = RateLimitConfig.production_defaults()
        _DEFAULT_APP = create_app(rate_limit=rate_limit)
    return _DEFAULT_APP(environ, start_response)
