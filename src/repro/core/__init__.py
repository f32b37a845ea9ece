"""The Flash web server: an implementation of the AMPED architecture.

The core package contains the pieces that Section 5 of the paper describes:

* :mod:`repro.core.config` — server configuration, including the cache
  limits used by the evaluation and switches that disable individual
  optimizations for the Figure 11 breakdown experiment;
* :mod:`repro.core.pipeline` — the architecture-independent request
  processing pipeline (Figure 1's steps) shared by all four server builds;
* :mod:`repro.core.session` — the socket-free connection lifecycle
  (parsing, deadlines, keep-alive) every build shares;
* :mod:`repro.core.connection` — its adapter onto the event loop, used by
  the event-driven (SPED and AMPED) builds;
* :mod:`repro.core.helpers` — the helper thread pool that makes the
  architecture *asymmetric*: potentially blocking disk operations are
  shipped to helpers and their completion is observed through the same
  ``select`` loop as network events;
* :mod:`repro.core.event_loop` — the ``selectors``-based event loop;
* :mod:`repro.core.server` — :class:`repro.core.server.FlashServer`, the
  AMPED server that ties the above together.
"""

from repro.core.config import ServerConfig
from repro.core.server import FlashServer

__all__ = ["ServerConfig", "FlashServer"]
