import sys
import threading

from gadkit import _blas


def test_single_threaded_holds_one_thread_and_restores_on_error(blas_threads):
    try:
        with _blas.single_threaded():
            assert _blas.threads() == 1
            raise KeyError("inside")
    except KeyError:
        pass
    assert _blas.threads() == blas_threads


def test_nested_blocks_restore_only_when_the_outermost_exits(blas_threads):
    with _blas.single_threaded():
        with _blas.single_threaded():
            assert _blas.threads() == 1
        assert _blas.threads() == 1
    assert _blas.threads() == blas_threads


def test_overlapping_blocks_on_many_threads_restore_once(blas_threads):
    # more threads than cores, switching often: a lost depth update would
    # restore the count while another block is still inside
    seen = []
    lock = threading.Lock()

    def worker():
        for _ in range(200):
            with _blas.single_threaded():
                count = _blas.threads()
            with lock:
                seen.append(count)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert seen == [1] * 1200
    assert _blas.threads() == blas_threads
