"""The F table's file in the package's __pycache__: `_ftable` reads it back
bit for bit in a later process, and builds and rewrites it whenever it is
damaged, of another key or missing; a write that fails changes nothing."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wiltonmoments import special_fn as sf

ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
# a fresh process's table against the cache directory argv[1]: the SHA-256 of
# _sf, f and xs, err_bound, whether f is a view of _sf, and its builds
PROBE = """if True:
    import hashlib, sys
    from pathlib import Path
    import numpy as np
    from wiltonmoments import special_fn as sf
    sf._CACHE_DIR = Path(sys.argv[1])
    builds = []
    build = sf._FTable._build
    def counting(self):
        builds.append(1)
        return build(self)
    sf._FTable._build = counting
    tab = sf._ftable()
    digests = [hashlib.sha256(a.tobytes()).hexdigest() for a in (tab._sf, tab.f, tab.xs)]
    print(*digests, repr(tab.err_bound), np.shares_memory(tab.f, tab._sf), len(builds))
"""


def bits(tab) -> list[str]:
    digests = [hashlib.sha256(a.tobytes()).hexdigest() for a in (tab._sf, tab.f, tab.xs)]
    return [*digests, repr(tab.err_bound), str(np.shares_memory(tab.f, tab._sf))]


@pytest.fixture(scope="module")
def reference():
    return sf._FTable()


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setattr(sf, "_CACHE_DIR", tmp_path / "cache")
    return tmp_path / "cache"


@pytest.fixture
def builds(monkeypatch):
    count = []
    build = sf._FTable._build

    def counting(self):
        count.append(1)
        return build(self)

    monkeypatch.setattr(sf._FTable, "_build", counting)
    return count


def table_path(cache: Path) -> Path:
    return cache / f"ftable-{sf._table_key().hex()}.npy"


def fresh_table():
    # _ftable's load-or-build, without the process's cached table
    return sf._ftable.__wrapped__()


def test_warm_fresh_process_loads_without_building(reference, cache, builds):
    tab = fresh_table()
    assert len(builds) == 1 and bits(tab) == bits(reference)
    assert sorted(cache.iterdir()) == [table_path(cache)]
    proc = subprocess.run([sys.executable, "-c", PROBE, str(cache)], env=ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [*bits(reference), "0"]


def _truncated(path, good, key):
    path.write_bytes(good[:-100])


def _empty(path, good, key):
    path.write_bytes(b"")


def _flipped(at):
    def flip(path, good, key):
        data = bytearray(good)
        data[at] ^= 0x10
        path.write_bytes(bytes(data))

    return flip


def _wrong_dtype(path, good, key):
    # the same bytes and shape as 16-byte voids: only the dtype is wrong
    np.save(path, np.load(path).view("V16"))


def _wrong_shape(path, good, key):
    # one node short, with a valid digest under the key: the dtype is right
    body = np.append(np.load(path)[:-4], np.load(path)[-2])
    np.save(path, np.append(body, np.frombuffer(sf._table_digest(body, key), dtype=np.complex128)))


def _other_key(path, good, key):
    # a whole table written under another key, under this key's name
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sf, "_table_key", lambda: bytes(16))
        fresh_table()
    path.with_name(f"ftable-{bytes(16).hex()}.npy").replace(path)


@pytest.mark.parametrize(
    "damage",
    [
        _truncated,
        _empty,
        _flipped(200),  # a table byte
        _flipped(-30),  # err_bound's
        _flipped(-1),  # the digest's
        _wrong_dtype,
        _wrong_shape,
        _other_key,
    ],
    ids=["truncated", "empty", "table_byte", "err_bound_byte", "digest_byte", "dtype", "shape", "other_key"],
)
def test_damaged_file_is_rebuilt_and_rewritten(damage, reference, cache, builds):
    key = sf._table_key()
    cache.mkdir()
    path = table_path(cache)
    sf._write_table(reference, path, key)
    good = path.read_bytes()
    assert sf._read_table(path, key) is not None
    damage(path, good, key)
    assert path.read_bytes() != good
    assert sf._read_table(path, key) is None
    n = len(builds)
    tab = fresh_table()
    assert len(builds) == n + 1 and bits(tab) == bits(reference)
    assert path.read_bytes() == good
    assert sorted(cache.iterdir()) == [path]
    assert bits(fresh_table()) == bits(reference) and len(builds) == n + 1


def test_tables_of_other_keys_are_removed(reference, cache, builds):
    cache.mkdir()
    others = [cache / f"ftable-{bytes([i] * 16).hex()}.npy" for i in (1, 2)]
    # the temporary files of writers killed before their os.replace
    others += [cache / f"ftable-{bytes([3] * 16).hex()}.npy.12345.tmp", cache / f"{table_path(cache).name}.1.tmp"]
    for other in others:
        other.write_bytes(b"an older table")
    (cache / "notes.txt").write_text("not a table")
    assert bits(fresh_table()) == bits(reference) and len(builds) == 1
    assert sorted(cache.iterdir()) == sorted([table_path(cache), cache / "notes.txt"])


def test_unwritable_cache_builds_and_leaves_nothing(reference, tmp_path, monkeypatch, builds):
    # tests may run as root, whom chmod does not stop: a regular file where
    # the cache's parent directory should be stops mkdir instead
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    monkeypatch.setattr(sf, "_CACHE_DIR", blocker / "cache")
    assert bits(fresh_table()) == bits(reference) and len(builds) == 1
    assert sorted(tmp_path.iterdir()) == [blocker]
    assert blocker.read_text() == "not a directory"


def test_failed_replace_removes_its_temporary_file(reference, cache, builds):
    # a directory at the table's path: the read and os.replace fail, after
    # the temporary file is written
    path = table_path(cache)
    path.mkdir(parents=True)
    assert bits(fresh_table()) == bits(reference) and len(builds) == 1
    assert sorted(cache.iterdir()) == [path] and not any(path.iterdir())


def test_concurrent_first_processes_share_one_file(reference, cache):
    procs = [
        subprocess.Popen([sys.executable, "-c", PROBE, str(cache)], env=ENV, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
        for _ in range(4)
    ]
    outs = [proc.communicate() for proc in procs]
    assert all(proc.returncode == 0 for proc in procs), [err for _, err in outs]
    assert all(out.split()[:-1] == bits(reference) for out, _ in outs)
    assert sorted(cache.iterdir()) == [table_path(cache)]
