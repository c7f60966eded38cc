"""Shared pieces of the benchmark: paths, child processes, inputs, references.

Nothing here is timed.  The reference structures (:class:`Tidsets`,
:func:`eclat`, :class:`RefBBS`) recompute answers without the program's
index, cache or serving code, so the checks after each timed phase do
not trust what they check.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
CACHE = WORK / "cache"


def require_program() -> None:
    """Exit non-zero, printing no result, when the program is not here."""
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source under {SRC}; run from a full "
              f"checkout of the repository", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment of every program process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # The native kernel's compiled library is cached under
    # $XDG_CACHE_HOME; keep it inside the checkout.
    env["XDG_CACHE_HOME"] = str(CACHE / "xdg")
    env.pop("REPRO_KERNEL", None)  # every process gets an explicit --kernel
    return env


def resolve_kernel() -> str:
    """Compile (once per checkout) and pick the kernel backend.

    Runs in a child so the benchmark process itself never loads a
    different backend than the processes it measures.
    """
    env = child_env()
    env["REPRO_KERNEL"] = "auto"
    out = subprocess.run(
        [sys.executable, "-c",
         "from repro.core import bitvec; print(bitvec.active_kernel_backend())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    if out.returncode != 0:
        raise RuntimeError(f"cannot import the program: {out.stderr.strip()}")
    return out.stdout.strip().splitlines()[-1]


# -- child processes ---------------------------------------------------------


class Procs:
    """Every process the benchmark starts; stops them all, always.

    ``stop_all`` terminates, waits, then kills what is left.  ``alive``
    is the teardown guard: the PIDs of any child still running, found
    both from the handles kept here and from ``/proc``, where a child
    whose handle was lost still shows this process as its parent.
    """

    def __init__(self):
        self.procs: list[tuple[str, subprocess.Popen]] = []

    def start(self, name: str, argv: list[str], log: Path) -> subprocess.Popen:
        with open(log, "wb") as fh:
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=child_env(), stdout=fh,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            )
        self.procs.append((name, proc))
        return proc

    def stop(self, proc: subprocess.Popen, timeout: float = 15.0) -> int:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=timeout)
        self.procs = [(n, p) for n, p in self.procs if p is not proc]
        return proc.returncode

    def stop_all(self) -> None:
        for _, proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 10.0
        for _, proc in self.procs:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10.0)
        self.procs = []

    def alive(self) -> list[int]:
        pids = {proc.pid for _, proc in self.procs if proc.poll() is None}
        return sorted(pids | set(_children()))

    def reap_strays(self) -> None:
        """Stop children the handles missed (a signal between fork and
        bookkeeping): SIGTERM, up to 5 s to exit, then SIGKILL."""
        strays = _children()
        for pid in strays:
            _signal_pid(pid, signal.SIGTERM)
        deadline = time.monotonic() + 5.0
        while strays and time.monotonic() < deadline:
            strays = [pid for pid in strays if not _reaped(pid)]
            time.sleep(0.05)
        for pid in strays:
            _signal_pid(pid, signal.SIGKILL)
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


def _children() -> list[int]:
    """Live (non-zombie) children of this process, from ``/proc``."""
    me = str(os.getpid())
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # pid (comm) state ppid ...; comm may hold spaces.
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and fields[1] == me and fields[0] != "Z":
            out.append(int(entry.name))
    return out


def _signal_pid(pid: int, signum: int) -> None:
    try:
        os.kill(pid, signum)
    except ProcessLookupError:
        pass


def _reaped(pid: int) -> bool:
    try:
        return os.waitpid(pid, os.WNOHANG)[0] == pid
    except ChildProcessError:
        return True


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time a live process has used so far."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[-1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def wait_for_line(log: Path, proc: subprocess.Popen, marker: str,
                  timeout: float = 60.0) -> str:
    """The first line of ``log`` containing ``marker``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if log.exists():
            for line in log.read_text(errors="replace").splitlines():
                if marker in line:
                    return line
        if proc.poll() is not None:
            break
        time.sleep(0.005)
    raise RuntimeError(
        f"process {proc.pid} did not print {marker!r}: "
        f"{log.read_text(errors='replace')[-2000:] if log.exists() else ''}"
    )


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def copy_files(names: list[Path], dest: Path) -> None:
    dest.mkdir(parents=True, exist_ok=True)
    for src in names:
        shutil.copyfile(src, dest / src.name)


# -- inputs --------------------------------------------------------------------


def quest_base(n_transactions: int, n_items: int, n_patterns: int,
               avg_size: float = 10.0, pattern_size: float = 4.0,
               spec_seed: int = 7) -> list[tuple]:
    """An IBM Quest database from the program's generator, cached per spec.

    The spec seed is fixed; each run's ``--seed`` then relabels items
    and reorders transactions (:func:`relabel`).  Mining cost on Quest
    data depends strongly on which potential itemsets the spec seed
    draws (the frequent-pattern count ranged 1.8K-3.7K over six spec
    seeds at one setting), which would swamp any change to the program;
    a relabeling keeps that structure and still changes every signature
    collision, bit layout and probe the program sees.
    """
    from repro.data.ibm import QuestSpec, generate_transactions

    spec = QuestSpec(
        n_transactions=n_transactions, n_items=n_items,
        avg_transaction_size=avg_size, avg_pattern_size=pattern_size,
        n_patterns=n_patterns, seed=spec_seed,
    )
    path = CACHE / f"quest-{spec.name}-L{n_patterns}-s{spec_seed}.json"
    if path.exists():
        return [tuple(t) for t in json.loads(path.read_text())]
    rows = [list(map(int, t)) for t in generate_transactions(spec)]
    CACHE.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(rows))
    os.replace(tmp, path)
    return [tuple(t) for t in rows]


def relabel(transactions: list[tuple], n_items: int,
            rng: random.Random) -> tuple[list[tuple], list[int]]:
    """Seeded item relabeling plus transaction shuffle; returns (tx, perm)."""
    perm = list(range(n_items))
    rng.shuffle(perm)
    out = [tuple(sorted(perm[i] for i in t)) for t in transactions]
    rng.shuffle(out)
    return out, perm


def write_txfile(path: Path, transactions, tids=None) -> None:
    """Write a transaction file in the program's binary format."""
    from repro.storage.txfile import TransactionFileWriter

    with TransactionFileWriter(path) as writer:
        for i, tx in enumerate(transactions):
            writer.append(tx, tid=None if tids is None else tids[i])


def sample_itemsets(transactions: list[tuple], rng: random.Random,
                    count: int, sizes=(2, 3)) -> list[tuple]:
    """``count`` distinct itemsets, each a random subset of a transaction."""
    seen: set[tuple] = set()
    out: list[tuple] = []
    while len(out) < count:
        tx = transactions[rng.randrange(len(transactions))]
        size = rng.choice(sizes)
        if len(tx) < size:
            continue
        itemset = tuple(sorted(rng.sample(tx, size)))
        if itemset not in seen:
            seen.add(itemset)
            out.append(itemset)
    return out


# -- references ------------------------------------------------------------------


class Tidsets:
    """Exact supports from per-item transaction bitsets (Python ints)."""

    def __init__(self, transactions):
        positions: dict[int, list[int]] = {}
        for t, tx in enumerate(transactions):
            for item in tx:
                positions.setdefault(item, []).append(t)
        n = len(transactions)
        self.n = n
        self.bits: dict[int, int] = {}
        for item, rows in positions.items():
            flags = np.zeros(n, dtype=bool)
            flags[rows] = True
            self.bits[item] = int.from_bytes(
                np.packbits(flags, bitorder="little").tobytes(), "little"
            )

    def count(self, itemset) -> int:
        acc = -1
        for item in itemset:
            bits = self.bits.get(item)
            if bits is None:
                return 0
            acc &= bits
        return acc.bit_count() if acc != -1 else self.n


def eclat(transactions, min_support: int) -> dict[frozenset, int]:
    """Every itemset with support >= ``min_support`` (vertical DFS)."""
    tids = Tidsets(transactions)
    frequent = sorted(
        (item, bits) for item, bits in tids.bits.items()
        if bits.bit_count() >= min_support
    )
    out: dict[frozenset, int] = {}

    def walk(prefix: tuple, acc: int, exts: list) -> None:
        for offset, (item, bits) in enumerate(exts):
            joined = acc & bits
            support = joined.bit_count()
            if support < min_support:
                continue
            itemset = prefix + (item,)
            out[frozenset(itemset)] = support
            walk(itemset, joined, exts[offset + 1:])

    walk((), -1, frequent)
    return out


class RefBBS:
    """Bit-slices rebuilt here from the program's signature positions.

    Shares only the hash family (which defines a signature) with the
    program; slice storage, AND and popcount are this module's own, so
    an estimate that disagrees points at the index or serving path.
    """

    def __init__(self, transactions, m: int, k: int):
        from repro.core.hashing import MD5HashFamily

        self.family = MD5HashFamily(m, k)
        n = len(transactions)
        self.n = n
        words = (n + 63) // 64
        self.slices = np.zeros((m, words), dtype=np.uint64)
        rows, cols, masks = [], [], []
        for t, tx in enumerate(transactions):
            pos = self.family.itemset_positions(set(tx))
            rows.append(pos)
            cols.append(np.full(pos.size, t // 64, dtype=np.int64))
            masks.append(np.full(pos.size, 1 << (t % 64), dtype=np.uint64))
        np.bitwise_or.at(
            self.slices,
            (np.concatenate(rows), np.concatenate(cols)),
            np.concatenate(masks),
        )

    def estimate(self, itemset) -> int:
        pos = self.family.itemset_positions(set(itemset))
        acc = np.bitwise_and.reduce(self.slices[pos], axis=0)
        return int(np.unpackbits(acc.view(np.uint8)).sum())

    def covers(self, tx, itemset) -> bool:
        """Whether ``tx``'s signature sets every bit of ``itemset``'s."""
        have = set(self.family.itemset_positions(set(tx)).tolist())
        return have.issuperset(self.family.itemset_positions(set(itemset)).tolist())


# -- statistics -------------------------------------------------------------------


def pct(values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) by nearest rank."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q * len(ordered))))
    return ordered[rank - 1]


def tail_summary(values: list[float]) -> str:
    """Median, plus p99 when at least ten samples lie beyond it."""
    if not values:
        return "n=0"
    text = f"p50={statistics.median(values) * 1e3:.3f}ms"
    if len(values) >= 1000:
        text += f" p99={pct(values, 0.99) * 1e3:.3f}ms"
    elif len(values) >= 40:
        text += f" p90={pct(values, 0.90) * 1e3:.3f}ms"
    return text + f" n={len(values)}"
