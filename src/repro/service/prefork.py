"""Multi-worker pre-fork serving: N processes, one listening socket.

``/verify`` is CPU-bound, so one Python process cannot scale it across
cores; the production answer (``aalwines serve --workers N``) is the
classic pre-fork model, stdlib-only:

1. the parent creates, binds and ``listen()``-s the socket;
2. it forks N workers, each of which wraps the *inherited* socket in its
   own :class:`~repro.server.VerificationServer`
   (``ThreadingHTTPServer`` with ``bind_and_activate=False``) and calls
   ``accept()`` — the kernel load-balances connections across workers;
3. the parent supervises: a worker that dies is replaced, and SIGTERM /
   SIGINT / ``Ctrl-C`` tears the whole tree down.

Workers share compiled artifacts and see each other's job runs through
the shared artifact store (:mod:`repro.farm.store`) — without one, each
worker is an island (interactive endpoints still work, but ``GET
/jobs/<id>`` only resolves on the worker that accepted the POST), so
:func:`serve_forever` warns when ``workers > 1`` and no store is given.

``os.fork`` is POSIX-only; on other platforms run one worker per port
behind an external load balancer, or use the WSGI app
(:mod:`repro.app`) under a process-managing WSGI server.
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import threading
import time
from typing import Dict, Optional

from repro.service.ratelimit import RateLimitConfig

#: Listen backlog — covers a burst of concurrent clients per worker.
BACKLOG = 128


def make_listening_socket(host: str, port: int) -> socket.socket:
    """A bound, listening TCP socket ready to be shared by workers."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(BACKLOG)
    return sock


def _shutdown_async(server) -> None:
    """Stop a serving :class:`VerificationServer` from a signal handler.

    ``shutdown()`` blocks until ``serve_forever`` exits, and signal
    handlers run *on* the serving (main) thread — calling it directly
    would deadlock, so it runs on a helper thread instead.

    A worker that lost the race for the last connection sits in a
    blocking ``accept()`` on the shared socket. The signal interrupts
    it and PEP 475 retries the call once this handler returns; made
    non-blocking here, the retry raises BlockingIOError, which
    ``serve_forever`` takes for "no request", so the loop sees the
    shutdown flag. The socket stays blocking while serving, which
    leaves how the kernel spreads connections over the workers as it is.
    """
    server._httpd.socket.setblocking(False)
    threading.Thread(
        target=server._httpd.shutdown, daemon=True
    ).start()


def _run_worker(
    sock: socket.socket,
    host: str,
    store: Optional[str],
    rate_limit: Optional[RateLimitConfig],
    verbose: bool,
    observe: bool,
) -> None:
    """The body of one forked worker; never returns."""
    from repro.server import VerificationServer

    exit_code = 0
    try:
        server = VerificationServer(
            host,
            sock.getsockname()[1],
            verbose=verbose,
            observe=observe,
            store=store,
            rate_limit=rate_limit,
            listen_socket=sock,
        )
        signal.signal(signal.SIGTERM, lambda *_: _shutdown_async(server))
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    except Exception as error:
        print(f"aalwines worker {os.getpid()} failed: {error}", file=sys.stderr)
        exit_code = 1
    finally:
        # _exit, not exit: never unwind into the parent's stack (atexit
        # handlers, pytest internals, …) from a forked child.
        os._exit(exit_code)


def serve_forever(
    host: str = "127.0.0.1",
    port: int = 8080,
    workers: int = 1,
    store: Optional[str] = None,
    rate_limit: Optional[RateLimitConfig] = None,
    verbose: bool = False,
    observe: bool = True,
    ready_stream=None,
) -> None:
    """Run the service until interrupted (the ``aalwines serve`` loop).

    Prints one machine-readable ready line (``aalwines service ready on
    http://host:port/ workers=N``) to ``ready_stream`` (default stdout)
    once the socket is listening — the load benchmark and the CLI tests
    block on it.
    """
    if workers > 1 and not hasattr(os, "fork"):  # pragma: no cover
        raise RuntimeError(
            "multi-worker serving needs os.fork; run --workers 1 "
            "(or the WSGI app) on this platform"
        )
    if workers > 1 and store is None:
        print(
            "aalwines serve: warning: --workers > 1 without --store — "
            "workers will not share artifacts or see each other's jobs",
            file=sys.stderr,
        )
    sock = make_listening_socket(host, port)
    bound_host, bound_port = sock.getsockname()[:2]
    stream = ready_stream if ready_stream is not None else sys.stdout
    print(
        f"aalwines service ready on http://{bound_host}:{bound_port}/ "
        f"workers={max(1, workers)}",
        file=stream,
        flush=True,
    )

    if workers <= 1:
        from repro.server import VerificationServer

        server = VerificationServer(
            host,
            bound_port,
            verbose=verbose,
            observe=observe,
            store=store,
            rate_limit=rate_limit,
            listen_socket=sock,
        )
        signal.signal(signal.SIGTERM, lambda *_: _shutdown_async(server))
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            sock.close()
        return

    children: Dict[int, bool] = {}

    def spawn() -> None:
        pid = os.fork()
        if pid == 0:  # child
            _run_worker(sock, host, store, rate_limit, verbose, observe)
        children[pid] = True

    for _ in range(workers):
        spawn()

    stopping = False

    def _terminate(*_args: object) -> None:
        nonlocal stopping
        stopping = True
        for pid in list(children):
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)
    try:
        # Supervision loop: replace workers that die, drain on shutdown.
        while children:
            try:
                pid, _status = os.wait()
            except ChildProcessError:
                break
            except InterruptedError:
                continue
            children.pop(pid, None)
            if not stopping:
                print(
                    f"aalwines serve: worker {pid} exited; respawning",
                    file=sys.stderr,
                )
                time.sleep(0.1)  # damp a crash loop
                spawn()
    except KeyboardInterrupt:
        _terminate()
        while children:
            try:
                pid, _status = os.wait()
                children.pop(pid, None)
            except ChildProcessError:
                break
    finally:
        sock.close()
