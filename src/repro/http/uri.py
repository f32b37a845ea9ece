"""URI normalization and pathname translation.

Pathname translation is the "Find file" step in the paper's Figure 1: the
requested URL (e.g. ``/~bob/``) is mapped to an actual file on disk (e.g.
``/home/users/bob/public_html/index.html``).  In Flash this step is expensive
enough to warrant both a dedicated cache (Section 5.2) and helper processes
(the translation may require directory lookups that touch the disk), so the
functional translation logic lives here where both the cache and the helpers
can share it.
"""

from __future__ import annotations

import os
import posixpath
from stat import S_ISDIR, S_ISREG
from urllib.parse import unquote

from repro.http.errors import BadRequestError, ForbiddenError, NotFoundError

#: File served when a request names a directory, mirroring the paper's
#: ``/~bob`` -> ``.../public_html/index.html`` example.
INDEX_FILE = "index.html"


def split_query(uri: str) -> tuple[str, str]:
    """Split ``uri`` into (path, query-string).

    >>> split_query("/cgi-bin/search?q=flash")
    ('/cgi-bin/search', 'q=flash')
    >>> split_query("/index.html")
    ('/index.html', '')
    """
    if "?" in uri:
        path, query = uri.split("?", 1)
        return path, query
    return uri, ""


def normalize_uri(uri: str) -> str:
    """Decode and canonicalize the path component of a request URI.

    Percent-escapes are decoded, repeated slashes collapsed and ``.``/``..``
    segments resolved.  A request whose normalized form escapes the document
    root (i.e. still begins with ``..``) raises :class:`ForbiddenError`; this
    is the standard defence against ``GET /../../etc/passwd``.

    >>> normalize_uri("/a/b/../c//d.html")
    '/a/c/d.html'
    >>> normalize_uri("/%7Ebob/")
    '/~bob/'
    """
    if not uri.startswith("/"):
        raise BadRequestError(f"request URI must be absolute path: {uri!r}")
    decoded = unquote(uri)
    if "\x00" in decoded:
        raise BadRequestError("NUL byte in request URI")
    # Reject any path that would climb above the document root at any point.
    # posixpath.normpath silently clamps "/../x" to "/x", which would turn a
    # traversal attempt into a legitimate-looking path, so the depth check
    # must happen on the raw segments.
    depth = 0
    for segment in decoded.split("/"):
        if segment == "..":
            depth -= 1
        elif segment not in ("", "."):
            depth += 1
        if depth < 0:
            raise ForbiddenError("request URI escapes document root")
    had_trailing_slash = decoded.endswith("/")
    normalized = posixpath.normpath(decoded)
    if had_trailing_slash and not normalized.endswith("/"):
        normalized += "/"
    return normalized


def resolve_path(
    uri: str,
    document_root: str,
    *,
    index_file: str = INDEX_FILE,
    user_dirs: dict[str, str] | None = None,
) -> tuple[str, os.stat_result]:
    """Translate a normalized request URI into ``(path, stat_result)``.

    This performs the potentially blocking "Find file" step: the returned
    path is checked for existence and readability, directory requests are
    resolved to their index file, and home-directory URIs (``/~user/...``)
    are mapped through ``user_dirs`` exactly as the paper's
    ``/~bob`` -> ``/home/users/bob/public_html/index.html`` example.  One
    ``stat`` (a second only for a directory's index file) answers
    existence and type, and is returned because every caller wants the
    size and mtime it holds.

    Parameters
    ----------
    uri:
        The request path (no query string), already normalized by
        :func:`normalize_uri`.
    document_root:
        Directory that anchors ordinary requests.
    index_file:
        File appended when the URI names a directory.
    user_dirs:
        Optional mapping from user name to that user's ``public_html``
        directory, used for ``/~user`` URIs.

    Raises
    ------
    NotFoundError
        If the translated path does not exist.
    ForbiddenError
        If the path exists but is not a readable regular file, or the URI
        attempts to escape its base directory (the document root, or the
        user's directory for a ``/~user`` URI).
    """
    path = normalize_uri(uri)
    base = document_root
    if user_dirs and path.startswith("/~"):
        user, _, path = path[2:].partition("/")
        base = user_dirs.get(user)
        if base is None:
            raise NotFoundError(f"no such user directory: ~{user}")
    base = os.path.normpath(base)
    candidate = os.path.normpath(os.path.join(base, path.lstrip("/")))
    if not (candidate == base or candidate.startswith(base + os.sep)):
        raise ForbiddenError("translated path escapes its base directory")

    try:
        stat = os.stat(candidate)
        if S_ISDIR(stat.st_mode):
            candidate = os.path.join(candidate, index_file)
            stat = os.stat(candidate)
    except OSError:
        # Whatever keeps stat from reaching the file (missing, a file used
        # as a directory, an unsearchable parent) reads as "not there".
        raise NotFoundError(f"file not found: {uri}") from None
    if not S_ISREG(stat.st_mode):
        raise ForbiddenError(f"not a regular file: {uri}")
    if not os.access(candidate, os.R_OK):
        raise ForbiddenError(f"permission denied: {uri}")
    return candidate, stat


def translate_path(
    uri: str,
    document_root: str,
    *,
    index_file: str = INDEX_FILE,
    user_dirs: dict[str, str] | None = None,
) -> str:
    """The path half of :func:`resolve_path` (same checks, same errors)."""
    return resolve_path(
        uri, document_root, index_file=index_file, user_dirs=user_dirs
    )[0]
