"""Equivalence and fault tests for the shared-memory parallel layer.

The contract under test (DESIGN.md, "Shared-memory parallel mining"):
``mine(..., workers=N)`` must return *byte-identical* patterns — same
itemsets, same counts, same exactness flags, same insertion order — as
the serial miner, for every algorithm and any N.  ``build_partitioned``
must produce a bit-identical index.  A worker crash must surface as a
typed :class:`ParallelExecutionError`, never a hang.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.bbs import BBS
from repro.core.mining import ALGORITHMS, mine, mine_containing
from repro.core.parallel import (
    _split_chunks,
    _validate_workers,
    build_partitioned,
    mine_parallel,
)
from repro.errors import ConfigurationError, ParallelExecutionError
from tests.conftest import make_random_database

MIN_SUPPORT = 0.05


def _wait_until_exited(pid: int, timeout: float = 10.0) -> None:
    """Wait for a signalled child to exit (a zombie or reaped).

    SIGKILL lands asynchronously, and tearing down a worker forked from
    a large test process takes a while; a mine started before then can
    finish on the surviving worker without ever seeing the death.
    """
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                if fh.read().rsplit(")", 1)[1].split()[0] in ("Z", "X"):
                    return
        except OSError:
            return  # already reaped
        time.sleep(0.005)
    raise AssertionError(f"worker {pid} still running {timeout}s after SIGKILL")


def pattern_items(result):
    """The full observable pattern surface: order, counts, exactness."""
    return [
        (itemset, pattern.count, pattern.exact)
        for itemset, pattern in result.patterns.items()
    ]


@pytest.fixture(scope="module")
def db():
    return make_random_database(seed=11, n_transactions=180, n_items=30)


@pytest.fixture(scope="module")
def bbs(db):
    return BBS.from_database(db, m=128)


@pytest.fixture(scope="module")
def serial_results(db, bbs):
    return {
        algorithm: mine(db, bbs, MIN_SUPPORT, algorithm)
        for algorithm in ALGORITHMS
    }


class TestMineEquivalence:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("workers", [2, 4])
    def test_patterns_identical_to_serial(
        self, db, bbs, serial_results, algorithm, workers
    ):
        serial = serial_results[algorithm]
        parallel = mine(db, bbs, MIN_SUPPORT, algorithm, workers=workers)
        assert pattern_items(parallel) == pattern_items(serial)

    def test_auto_matches_serial_auto(self, db, bbs):
        serial = mine(db, bbs, MIN_SUPPORT, "auto")
        parallel = mine(db, bbs, MIN_SUPPORT, "auto", workers=2)
        assert parallel.algorithm == serial.algorithm
        assert pattern_items(parallel) == pattern_items(serial)

    def test_seeded_mine_containing_matches_serial(self, db, bbs):
        serial = mine_containing(db, bbs, [7], MIN_SUPPORT)
        assert serial.patterns, "seed must be frequent for a meaningful test"
        parallel = mine_containing(db, bbs, [7], MIN_SUPPORT, workers=2)
        assert pattern_items(parallel) == pattern_items(serial)

    def test_workers_one_is_exact_serial_path(self, db, bbs, serial_results):
        result = mine(db, bbs, MIN_SUPPORT, "dfp", workers=1)
        assert pattern_items(result) == pattern_items(serial_results["dfp"])
        assert not hasattr(result, "parallel_info")

    def test_more_workers_than_subtrees(self, db, bbs, serial_results):
        parallel = mine(db, bbs, MIN_SUPPORT, "dfp", workers=64)
        assert pattern_items(parallel) == pattern_items(serial_results["dfp"])

    def test_max_size_respected(self, db, bbs):
        serial = mine(db, bbs, MIN_SUPPORT, "dfp", max_size=2)
        parallel = mine(db, bbs, MIN_SUPPORT, "dfp", max_size=2, workers=2)
        assert pattern_items(parallel) == pattern_items(serial)

    def test_filter_stats_match_serial(self, db, bbs, serial_results):
        parallel = mine(db, bbs, MIN_SUPPORT, "dfp", workers=2)
        assert vars(parallel.filter_stats) == vars(
            serial_results["dfp"].filter_stats
        )
        assert vars(parallel.refine_stats) == vars(
            serial_results["dfp"].refine_stats
        )

    def test_parallel_info_recorded(self, db, bbs):
        result = mine(db, bbs, MIN_SUPPORT, "dfp", workers=2)
        info = result.parallel_info
        assert info["workers"] == 2
        assert info["algorithm"] == "dfp"
        assert info["subtrees"] == len(info["subtree_seconds"]) > 0

    def test_repeated_runs_deterministic(self, db, bbs):
        first = mine(db, bbs, MIN_SUPPORT, "dfs", workers=2)
        second = mine(db, bbs, MIN_SUPPORT, "dfs", workers=2)
        assert pattern_items(first) == pattern_items(second)
        assert vars(first.filter_stats) == vars(second.filter_stats)
        assert vars(first.refine_stats) == vars(second.refine_stats)

    def test_empty_result_when_threshold_too_high(self, db, bbs):
        result = mine(db, bbs, len(db), "dfp", workers=2)
        assert pattern_items(result) == pattern_items(
            mine(db, bbs, len(db), "dfp")
        )


class TestSpawnStartMethod:
    def test_spawn_workers_match_serial(self, db, bbs, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_START_METHOD", "spawn")
        serial = mine(db, bbs, MIN_SUPPORT, "dfp")
        parallel = mine(db, bbs, MIN_SUPPORT, "dfp", workers=2)
        assert parallel.parallel_info["start_method"] == "spawn"
        assert pattern_items(parallel) == pattern_items(serial)


class TestWorkerCrash:
    def test_crash_surfaces_typed_error(self, db, bbs, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_CRASH_OFFSET", "0")
        with pytest.raises(ParallelExecutionError):
            mine(db, bbs, MIN_SUPPORT, "dfp", workers=2)

    def test_crash_during_partitioned_build(self, db, monkeypatch):
        # The crash hook only fires in subtree tasks; a partition build
        # that dies for any other reason must also surface typed.
        import repro.core.parallel as parallel_module

        def boom(transactions, family_desc):
            raise OSError("disk on fire")

        monkeypatch.setattr(parallel_module, "_build_partition", boom)
        with pytest.raises(ParallelExecutionError):
            build_partitioned(db, 128, workers=2)

    def test_failed_partitioned_build_lets_the_process_exit(self):
        """The case above, in a subprocess that must exit.

        After such a failure the executor's manager thread could wait
        forever on a work item whose future had already finished, and
        the interpreter's exit hook joins that thread.  Twenty failed
        builds per run make the race all but certain to show.
        """
        import signal
        import subprocess
        import sys
        import textwrap
        from pathlib import Path

        script = textwrap.dedent(
            """
            import repro.core.parallel as parallel
            from repro.errors import ParallelExecutionError
            from tests.conftest import make_random_database

            def main():
                def boom(transactions, family_desc):
                    raise OSError("disk on fire")

                parallel._build_partition = boom
                db = make_random_database(
                    seed=11, n_transactions=180, n_items=30
                )
                for _ in range(20):
                    try:
                        parallel.build_partitioned(db, 128, workers=2)
                    except ParallelExecutionError:
                        continue
                    raise SystemExit("the failed build did not raise")

            main()
            """
        )
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root), env.get("PYTHONPATH", "")]
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            cwd=root,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            _, stderr = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            # Its own process group: the pool workers die with it.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("the process still ran 60 s after its failed builds")
        assert proc.returncode == 0, stderr.decode()[-2000:]


class TestWorkersValidation:
    @pytest.mark.parametrize("bad", [0, -1, 1.5, "2", True, None])
    def test_rejects_non_positive_and_non_int(self, db, bbs, bad):
        with pytest.raises(ConfigurationError):
            mine_parallel(db, bbs, MIN_SUPPORT, "dfp", workers=bad)

    def test_validate_workers_passes_ints(self):
        assert _validate_workers(1) == 1
        assert _validate_workers(8) == 8

    def test_unknown_algorithm_rejected(self, db, bbs):
        with pytest.raises(ConfigurationError):
            mine_parallel(db, bbs, MIN_SUPPORT, "apriori", workers=2)


class TestBuildPartitioned:
    def test_bit_identical_to_serial_build(self, db):
        serial = BBS.from_database(db, m=128)
        for kwargs in ({"workers": 2}, {"workers": 2, "partitions": 3},
                       {"workers": 1, "partitions": 4}):
            parallel = build_partitioned(db, 128, **kwargs)
            assert np.array_equal(
                parallel._slices[:, : parallel.n_words],
                serial._slices[:, : serial.n_words],
            )
            assert parallel.n_transactions == serial.n_transactions
            assert parallel.item_counts.as_dict() == serial.item_counts.as_dict()
            assert (
                parallel.mean_signature_density == serial.mean_signature_density
            )

    def test_counts_match_after_parallel_build(self, db):
        parallel = build_partitioned(db, 128, workers=2)
        serial = BBS.from_database(db, m=128)
        for item in range(10):
            assert parallel.count_itemset([item]) == serial.count_itemset([item])

    def test_workers_one_no_partitions_is_serial_path(self, db):
        built = build_partitioned(db, 128)
        serial = BBS.from_database(db, m=128)
        assert np.array_equal(
            built._slices[:, : built.n_words],
            serial._slices[:, : serial.n_words],
        )

    def test_empty_database(self):
        from repro.data.database import TransactionDatabase

        built = build_partitioned(TransactionDatabase([]), 64, workers=2)
        assert built.n_transactions == 0

    def test_bad_partitions_rejected(self, db):
        with pytest.raises(ConfigurationError):
            build_partitioned(db, 128, workers=2, partitions=0)

    def test_mismatched_family_width_rejected(self, db):
        from repro.core.hashing import MD5HashFamily

        with pytest.raises(ConfigurationError):
            build_partitioned(db, 128, hash_family=MD5HashFamily(64, 4))

    def test_mining_on_partitioned_index_matches(self, db):
        built = build_partitioned(db, 128, workers=2, partitions=3)
        serial = mine(db, BBS.from_database(db, m=128), MIN_SUPPORT, "dfp")
        result = mine(db, built, MIN_SUPPORT, "dfp")
        assert pattern_items(result) == pattern_items(serial)


class TestSplitChunks:
    def test_covers_sequence_in_order(self):
        chunks = _split_chunks(list(range(10)), 3)
        assert [len(c) for c in chunks] == [4, 3, 3]
        assert [x for chunk in chunks for x in chunk] == list(range(10))

    def test_more_chunks_than_items(self):
        chunks = _split_chunks([1, 2], 5)
        assert chunks == [[1], [2]]

    def test_single_chunk(self):
        assert _split_chunks([1, 2, 3], 1) == [[1, 2, 3]]


class TestPersistentPool:
    """PR-7 pool lifecycle: sessions persist, crashes clean up fully."""

    @pytest.fixture()
    def fresh_pair(self):
        from repro.core import parallel

        db = make_random_database(seed=23, n_transactions=150, n_items=26)
        bbs = BBS.from_database(db, m=128)
        yield db, bbs
        parallel.shutdown_pools()

    def test_consecutive_mines_reuse_worker_pids(self, fresh_pair):
        db, bbs = fresh_pair
        first = mine(db, bbs, MIN_SUPPORT, "dfp", workers=2)
        second = mine(db, bbs, MIN_SUPPORT, "dfp", workers=2)
        assert first.parallel_info["worker_pids"], "no workers recorded"
        assert (
            first.parallel_info["worker_pids"]
            == second.parallel_info["worker_pids"]
        )
        assert first.parallel_info["pool_reused"] is False
        assert second.parallel_info["pool_reused"] is True
        assert pattern_items(first) == pattern_items(second)

    def test_config_change_reuses_pool_without_respawn(self, fresh_pair):
        db, bbs = fresh_pair
        first = mine(db, bbs, MIN_SUPPORT, "dfp", workers=2)
        # Different algorithm and threshold: workers reconfigure lazily,
        # the processes themselves survive.
        second = mine(db, bbs, 0.1, "sfs", workers=2)
        assert second.parallel_info["pool_reused"] is True
        assert (
            first.parallel_info["worker_pids"]
            == second.parallel_info["worker_pids"]
        )
        assert pattern_items(second) == pattern_items(
            mine(db, bbs, 0.1, "sfs")
        )

    def test_batches_cover_all_subtrees(self, fresh_pair):
        db, bbs = fresh_pair
        result = mine(db, bbs, MIN_SUPPORT, "dfp", workers=2)
        info = result.parallel_info
        assert 0 < info["batches"] <= info["subtrees"]
        assert len(info["batch_seconds"]) == info["batches"]
        assert len(info["subtree_seconds"]) == info["subtrees"]

    def test_killed_worker_raises_typed_and_unlinks_shm(self, fresh_pair):
        import os
        import signal

        from repro.core import parallel

        db, bbs = fresh_pair
        first = mine(db, bbs, MIN_SUPPORT, "dfp", workers=2)
        sessions = parallel.active_sessions()
        assert len(sessions) == 1
        session = sessions[0]
        shm_path = f"/dev/shm/{session.shm_name}"
        assert os.path.exists(shm_path)
        victim = first.parallel_info["worker_pids"][0]
        os.kill(victim, signal.SIGKILL)
        _wait_until_exited(victim)
        with pytest.raises(ParallelExecutionError):
            mine(db, bbs, MIN_SUPPORT, "dfp", workers=2)
        # The broken session tore down completely: no shm leak, no
        # zombie session, and the next mine starts a clean pool.
        assert not os.path.exists(shm_path)
        assert parallel.active_sessions() == []
        recovered = mine(db, bbs, MIN_SUPPORT, "dfp", workers=2)
        assert pattern_items(recovered) == pattern_items(first)

    def test_shutdown_pools_releases_everything(self, fresh_pair):
        import os

        from repro.core import parallel
        from repro.core.pool import live_pools

        db, bbs = fresh_pair
        mine(db, bbs, MIN_SUPPORT, "dfp", workers=2)
        shm_paths = [
            f"/dev/shm/{s.shm_name}" for s in parallel.active_sessions()
        ]
        assert shm_paths
        parallel.shutdown_pools()
        assert parallel.active_sessions() == []
        assert live_pools() == []
        for path in shm_paths:
            assert not os.path.exists(path)

    def test_crash_env_does_not_leak_shm(self, fresh_pair, monkeypatch):
        import os

        from repro.core import parallel

        db, bbs = fresh_pair
        before = set(os.listdir("/dev/shm"))
        monkeypatch.setenv("REPRO_PARALLEL_CRASH_OFFSET", "0")
        with pytest.raises(ParallelExecutionError):
            mine(db, bbs, MIN_SUPPORT, "dfp", workers=2)
        assert parallel.active_sessions() == []
        leaked = set(os.listdir("/dev/shm")) - before
        assert not leaked, f"shared memory leaked: {sorted(leaked)}"


# ---------------------------------------------------------------------------
# Shared-memory export lifecycle
# ---------------------------------------------------------------------------


class TestExportLifecycle:
    def test_export_failure_releases_segment(self, bbs, monkeypatch):
        """A raise after ``create=True`` must not orphan the segment.

        The kernel keeps a shared-memory block alive until it is
        unlinked; ``_export_shared_index`` owns the segment between
        creation and handing ``(shm, meta)`` to the caller, so a
        failing copy or descriptor build inside that window has to
        close+unlink before propagating.
        """
        from multiprocessing import shared_memory

        from repro.core import parallel

        names: list[str] = []
        real_cls = shared_memory.SharedMemory

        def recording(*args, **kwargs):
            shm = real_cls(*args, **kwargs)
            names.append(shm.name)
            return shm

        monkeypatch.setattr(shared_memory, "SharedMemory", recording)

        def boom(family):
            raise RuntimeError("descriptor build failed")

        monkeypatch.setattr(parallel, "_check_family_roundtrip", boom)
        with pytest.raises(RuntimeError, match="descriptor build failed"):
            parallel._export_shared_index(bbs)
        assert len(names) == 1
        # The segment is gone: attaching by name must fail.
        with pytest.raises(FileNotFoundError):
            real_cls(name=names[0])

    def test_successful_export_hands_ownership_to_the_caller(self, bbs):
        from multiprocessing import shared_memory

        from repro.core import parallel

        shm, meta = parallel._export_shared_index(bbs)
        try:
            attached = shared_memory.SharedMemory(name=meta["name"])
            attached.close()
        finally:
            shm.close()
            shm.unlink()
