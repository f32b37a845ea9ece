"""A loopback stub that answers every request head with a fixed tiny 200.

It does no parsing, no lookup and no file I/O, so the rate the generator
reaches against it is the generator's own ceiling (``loadgen.echo_rps``).
Same pipe protocol as the launcher: prints ``{"port": N}``, exits when
stdin closes.
"""

from __future__ import annotations

import json
import selectors
import socket
import sys

BODY = b"ok"
RESPONSE = (
    b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\nETag: \"stub\"\r\n\r\n" % len(BODY)
) + BODY


def main() -> int:
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(16)
    selector = selectors.DefaultSelector()
    selector.register(listener, selectors.EVENT_READ)
    selector.register(sys.stdin, selectors.EVENT_READ)
    sys.stdout.write(json.dumps({"port": listener.getsockname()[1]}) + "\n")
    sys.stdout.flush()
    clients = []
    try:
        while True:
            for key, _ in selector.select():
                if key.fileobj is sys.stdin:
                    if not sys.stdin.buffer.raw.read(4096):
                        return 0
                elif key.fileobj is listener:
                    client, _ = listener.accept()
                    client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    clients.append(client)
                    selector.register(client, selectors.EVENT_READ)
                else:
                    client = key.fileobj
                    data = client.recv(65536)
                    if data:
                        # One request is outstanding per connection, so each
                        # read holds exactly one head.
                        client.sendall(RESPONSE)
                    else:
                        selector.unregister(client)
                        clients.remove(client)
                        client.close()
    finally:
        for client in clients:
            client.close()
        listener.close()
        selector.close()


if __name__ == "__main__":
    sys.exit(main())
