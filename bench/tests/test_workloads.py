"""Inputs are a function of the seed; the protocol rotation is exact."""

import collections
import os
import zlib

from bench import workloads
from bench.workloads import CLOSE, GET, HEAD, INM, RANGE


def test_rotation_holds_exactly_the_declared_mix():
    assert len(workloads.ROTATION) == 20
    assert collections.Counter(workloads.ROTATION) == {GET: 8, INM: 5, RANGE: 3, HEAD: 2, CLOSE: 2}


def test_every_twenty_consecutive_requests_hold_the_rotation():
    mix = workloads.BY_NAME["protocol_mix"]
    order = workloads.sequence(mix, seed=3)
    assert len(order) % 20 == 0
    for start in (0, 20, 4080, len(order) - 20):
        shapes = tuple(shape for _, shape in order[start:start + 20])
        assert shapes == workloads.ROTATION
    # The file draws cycle underneath the rotation without disturbing it.
    draws = workloads.file_draws(mix, seed=3)
    assert [index for index, _ in order[:len(draws)]] == draws


def test_equal_seeds_give_equal_inputs_and_different_seeds_differ():
    for workload in workloads.WORKLOADS:
        assert workloads.sequence(workload, 5) == workloads.sequence(workload, 5)
        first = workloads.poisson_schedule(workload.open_rate, 2.0, 5, workload.name)
        assert first == workloads.poisson_schedule(workload.open_rate, 2.0, 5, workload.name)
        assert first != workloads.poisson_schedule(workload.open_rate, 2.0, 6, workload.name)
        if workload.draw != "round_robin":
            assert workloads.sequence(workload, 5) != workloads.sequence(workload, 6)


def test_poisson_schedule_has_the_rate_and_stays_inside_the_phase():
    offsets = workloads.poisson_schedule(2000, 5.0, 1, "hot_small")
    assert offsets == sorted(offsets)
    assert 0.0 < offsets[0] and offsets[-1] < 5.0
    assert abs(len(offsets) - 10000) < 400  # four standard deviations


def test_zipf_draws_favour_low_ranks_and_cover_the_declared_count():
    small = workloads.BY_NAME["hot_small"]
    draws = workloads.file_draws(small, 1)
    assert len(draws) == small.draws == 4096
    counts = collections.Counter(draws)
    assert counts[0] > counts[10] > counts[63]
    assert set(draws) <= set(range(small.file_count))


def test_docroot_is_seeded_and_its_checksums_are_of_the_bytes_on_disk(tmp_path):
    tiny = workloads.Workload("tiny", file_count=3, file_size=4096, open_rate=1,
                              draw="uniform", draws=8)
    first = workloads.generate_docroot(tiny, 9, str(tmp_path / "a"))
    again = workloads.generate_docroot(tiny, 9, str(tmp_path / "b"))
    other = workloads.generate_docroot(tiny, 10, str(tmp_path / "c"))
    assert [spec.crc for spec in first] == [spec.crc for spec in again]
    assert [spec.crc for spec in first] != [spec.crc for spec in other]
    for spec in first:
        with open(os.path.join(tmp_path, "a", workloads.file_name(spec.index)), "rb") as handle:
            data = handle.read()
        assert len(data) == spec.size == 4096
        assert zlib.crc32(data) == spec.crc
        assert zlib.crc32(data[:workloads.RANGE_BYTES]) == spec.crc_range


def test_request_shapes_say_what_a_correct_response_looks_like():
    spec = workloads.FileSpec(index=0, target=b"/f00000.bin", size=4096, crc=11, crc_range=22)
    table = workloads.request_table([spec], workloads.ROTATION, {0: b'"tag"'})
    assert set(shape for _, shape in table) == {GET, INM, RANGE, HEAD, CLOSE}
    inm, ranged, head, close = (table[(0, shape)] for shape in (INM, RANGE, HEAD, CLOSE))
    assert (inm.status, inm.body_len, inm.content_length) == (304, 0, 0)
    assert b'If-None-Match: "tag"\r\n' in inm.raw
    assert (ranged.status, ranged.body_len, ranged.crc) == (206, 1024, 22)
    assert ranged.content_range == b"bytes 0-1023/4096"
    assert head.raw.startswith(b"HEAD ") and head.body_len == 0 and head.content_length == 4096
    assert close.close and b"Connection: close\r\n" in close.raw
    assert all(request.raw.endswith(b"\r\n\r\n") for request in table.values())
