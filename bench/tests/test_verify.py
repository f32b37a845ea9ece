"""The verifier accepts what is right and says why it rejects what is not."""

import zlib

from bench import verify, workloads
from bench.workloads import GET, HEAD, INM, RANGE

BODY = bytes(range(256)) * 16  # 4096 bytes
SPEC = workloads.FileSpec(
    index=0, target=b"/f00000.bin", size=len(BODY), crc=zlib.crc32(BODY),
    crc_range=zlib.crc32(BODY[:1024]),
)
TABLE = workloads.request_table([SPEC], [GET, INM, RANGE, HEAD], {0: b'"tag"'})


def response(status: bytes, body: bytes, length=None, *extra: bytes) -> bytes:
    lines = [b"HTTP/1.1 " + status, b"Date: today",
             b"Content-Length: %d" % (len(body) if length is None else length),
             b'ETag: "tag"', *extra]
    return b"\r\n".join(lines) + b"\r\n\r\n" + body


def test_correct_responses_of_every_shape_verify():
    assert verify.verify_response(TABLE[(0, GET)], response(b"200 OK", BODY)) is None
    assert verify.verify_response(TABLE[(0, INM)], response(b"304 Not Modified", b"")) is None
    assert verify.verify_response(
        TABLE[(0, RANGE)],
        response(b"206 Partial Content", BODY[:1024], None, b"Content-Range: bytes 0-1023/4096"),
    ) is None
    assert verify.verify_response(TABLE[(0, HEAD)], response(b"200 OK", b"", 4096)) is None


def test_truncated_body_is_rejected():
    reason = verify.verify_response(TABLE[(0, GET)], response(b"200 OK", BODY[:-1], 4096))
    assert reason is not None and "4095" in reason


def test_flipped_byte_is_rejected():
    flipped = bytearray(BODY)
    flipped[2000] ^= 0x01
    reason = verify.verify_response(TABLE[(0, GET)], response(b"200 OK", bytes(flipped)))
    assert reason == "body checksum mismatch"


def test_wrong_content_range_is_rejected():
    reason = verify.verify_response(
        TABLE[(0, RANGE)],
        response(b"206 Partial Content", BODY[:1024], None, b"Content-Range: bytes 1-1024/4096"),
    )
    assert reason is not None and "Content-Range" in reason


def test_a_200_where_a_304_was_due_is_rejected():
    reason = verify.verify_response(TABLE[(0, INM)], response(b"200 OK", BODY))
    assert reason == "status 200, due 304"


def test_wrong_content_length_header_is_rejected_even_on_a_head():
    reason = verify.verify_response(TABLE[(0, HEAD)], response(b"200 OK", b"", 4095))
    assert reason is not None and "Content-Length" in reason


def test_sampled_checksum_and_lenient_mode():
    head = verify.parse_head(response(b"200 OK", BODY), 10_000)
    # Timed phases: no CRC taken for this (large, unsampled) response.
    assert verify.check(TABLE[(0, GET)], head, len(BODY), None, strict=False) is None
    assert verify.check(TABLE[(0, GET)], head, len(BODY), 123, strict=False) is not None


def test_parse_head_waits_for_the_blank_line_and_refuses_garbage():
    partial = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n"
    assert verify.parse_head(partial, len(partial)) is None
    assert verify.verify_response(TABLE[(0, GET)], b"SSH-2.0-x\r\n\r\n") is not None
    endless = b"HTTP/1.1 200 OK\r\n" + b"X: y\r\n" * 2000
    assert verify.verify_response(TABLE[(0, GET)], endless) is not None
