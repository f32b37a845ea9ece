"""Dynamic content generation (paper Section 5.6).

Flash serves dynamic documents by forwarding the request to an auxiliary
CGI-bin application process over a pipe; the application may be persistent
(like FastCGI) so the cost of creating it is amortized over many requests,
and because it runs outside the server it can block on disk or compute for
arbitrarily long without affecting the server.

:class:`repro.cgi.runner.CGIRunner` reproduces that structure with
persistent worker threads, one per registered application.
"""

from repro.cgi.runner import CGIProgram, CGIRequestData, CGIRunner

__all__ = ["CGIRunner", "CGIProgram", "CGIRequestData"]
