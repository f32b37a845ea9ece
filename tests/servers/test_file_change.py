"""A changed file is served fresh on every architecture.

Every cache tier trusts a file's ``stat`` for ``hot_cache_revalidate``
seconds and no longer: once that interval has passed since the file was
rewritten with a new size and mtime, the hot target, a target the hot
cache never admits (a query string) and a conditional request carrying the
old entity-tag all see the new file.  The rule is shared code, so SPED,
AMPED, MT and MP answer alike.
"""

import os
import time

import pytest

from repro.client.simple import fetch
from repro.core.config import ServerConfig
from repro.servers import create_server

OLD = b"8 bytes!"
NEW = b"a much longer body: 24 B"


@pytest.fixture
def docroot(tmp_path):
    (tmp_path / "f.html").write_bytes(OLD)
    return str(tmp_path)


@pytest.mark.parametrize("interval", [0.0, 0.25])
@pytest.mark.parametrize("architecture", ["sped", "amped", "mt", "mp"])
def test_changed_file_reaches_every_tier(docroot, architecture, interval):
    config = ServerConfig(
        document_root=docroot,
        port=0,
        num_helpers=2,
        num_workers=2,
        hot_cache_revalidate=interval,
    )
    server = create_server(architecture, config)
    server.start()
    try:
        address = server.address
        # Prime the pathname, header, descriptor and hot tiers.
        for target in ("/f.html", "/f.html", "/f.html?x=1", "/f.html"):
            primed = fetch(*address, target)
            assert primed.body == OLD
        old_tag = primed.headers["etag"]

        path = os.path.join(docroot, "f.html")
        with open(path, "wb") as handle:
            handle.write(NEW)
        mtime_ns = os.stat(path).st_mtime_ns + 5_000_000_000
        os.utime(path, ns=(mtime_ns, mtime_ns))
        time.sleep(interval * 1.5)

        answers = [
            fetch(*address, "/f.html"),
            fetch(*address, "/f.html?x=1"),
            fetch(*address, "/f.html", headers={"If-None-Match": old_tag}),
        ]
    finally:
        server.stop()
    for answer in answers:
        assert answer.status == 200
        assert answer.headers["content-length"] == str(len(NEW))
        assert answer.headers["etag"] != old_tag
        assert answer.body == NEW
