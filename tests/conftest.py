"""Fixtures shared across test packages."""

from http.server import ThreadingHTTPServer

import pytest


@pytest.fixture
def connections(monkeypatch):
    """Every connection an in-process HTTP server (a ``ThreadingHTTPServer``,
    the service's included) accepts while the test runs, in order."""
    accepted = []
    original = ThreadingHTTPServer.process_request

    def counting(self, request, client_address):
        accepted.append(request)
        return original(self, request, client_address)

    monkeypatch.setattr(ThreadingHTTPServer, "process_request", counting)
    return accepted
