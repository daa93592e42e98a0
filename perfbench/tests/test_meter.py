import os

import meter


def test_wrapped_calls_record_one_latency_each_and_collect_resets(tmp_path):
    m = meter.Meter(tmp_path / "m")
    double = m.wrap(lambda v: 2 * v)
    assert [double(v) for v in range(5)] == [0, 2, 4, 6, 8]
    latencies, speeds = m.collect()
    assert len(latencies) == 5 and all(v >= 0 for v in latencies)
    assert len(speeds) == 1 and speeds[0] > 0  # the first call probed the host
    assert m.collect() == (meter.array("d"), [])
    m.close()
    assert not (tmp_path / "m").exists()


def test_samples_of_a_forked_worker_come_back_with_its_own_speed(tmp_path):
    m = meter.Meter(tmp_path / "m")
    work = m.wrap(sum)
    work([1, 2])
    pid = os.fork()
    if pid == 0:
        try:
            for _ in range(3):
                work([3, 4])
        finally:
            os._exit(0)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    latencies, speeds = m.collect()
    assert len(latencies) == 4
    assert len(speeds) == 2  # this process and the worker each probed once
    assert not list((tmp_path / "m").iterdir())

