"""The content-addressed result cache.

The properties that make the cache safe to trust: keys are stable across
processes and interning order, stale schemas stop being addressed, and
disk corruption degrades to recomputation.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.service import cache as cache_mod
from repro.service.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    canonical_program_text,
    open_cache,
    program_digest,
    query_digest,
)
from repro.syntax import parse_program
from repro.version import package_version

ROOT = Path(__file__).resolve().parent.parent
LIST_SQ = (ROOT / "examples" / "list.sq").read_text()

MAX_SQ = """\
leq :: a:Int -> b:Int -> {Bool | nu <==> a <= b}

max :: x:Int -> y:Int -> {Int | nu >= x && nu >= y && (nu == x || nu == y)}
max = ??
"""


class TestDigests:
    def test_digest_ignores_whitespace_and_comments(self):
        noisy = "-- a comment\n\n" + MAX_SQ.replace(" :: ", "  ::  ")
        assert program_digest(parse_program(noisy)) == program_digest(parse_program(MAX_SQ))

    def test_digest_stable_across_interning_order(self):
        """Parsing other programs first (so shared subformulas intern in a
        different order) must not perturb the key."""
        before = program_digest(parse_program(MAX_SQ))
        parse_program(LIST_SQ)  # intern a pile of unrelated formulas
        assert program_digest(parse_program(MAX_SQ)) == before

    def test_digest_stable_across_processes(self, tmp_path):
        """The key survives a new interpreter with a different hash seed —
        nothing in it may depend on Python's per-process string hashing."""
        script = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from repro.service.cache import program_digest\n"
            "from repro.syntax import parse_program\n"
            "print(program_digest(parse_program(sys.stdin.read())), end='')\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONHASHSEED="12345")
        digest = subprocess.run(
            [sys.executable, "-c", script, src],
            input=MAX_SQ,
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout
        assert digest == program_digest(parse_program(MAX_SQ))

    def test_signature_order_is_significant(self):
        """`check` binds earlier signatures only, so reordering signatures
        changes meaning and must change the key."""
        reordered = (
            "max :: x:Int -> y:Int -> {Int | nu >= x && nu >= y && (nu == x || nu == y)}\n"
            "max = ??\n"
            "leq :: a:Int -> b:Int -> {Bool | nu <==> a <= b}\n"
        )
        assert program_digest(parse_program(reordered)) != program_digest(parse_program(MAX_SQ))

    def test_verb_and_options_separate_keys(self):
        program = parse_program(MAX_SQ)
        check = query_digest("check", program, {})
        synth = query_digest("synth", program, {"depth": 4})
        deeper = query_digest("synth", program, {"depth": 5})
        assert len({check, synth, deeper}) == 3

    def test_schema_version_salts_the_key(self, monkeypatch):
        program = parse_program(MAX_SQ)
        before = query_digest("check", program, {})
        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA_VERSION", CACHE_SCHEMA_VERSION + 1)
        assert query_digest("check", program, {}) != before

    def test_digests_resolve_the_version_once(self):
        """Every key is salted with the package version, which is resolved
        once per process — from a checkout, as ``pyproject.toml`` says."""
        package_version.cache_clear()
        program = parse_program(MAX_SQ)
        keys = {query_digest("synth", program, {"depth": n}) for n in (1, 2, 3)}
        assert len(keys) == 3
        assert package_version.cache_info().misses == 1
        pyproject = (ROOT / "pyproject.toml").read_text().splitlines()
        assert f'version = "{package_version()}"' in pyproject

    def test_canonical_text_covers_every_declaration(self):
        text = canonical_program_text(parse_program(LIST_SQ))
        for needle in ("data List", "measure len", "stutter = ", "length = ??"):
            assert needle in text


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("ab" * 32) is None
        cache.put("ab" * 32, {"items": [1, 2]})
        assert cache.get("ab" * 32) == {"items": [1, 2]}
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "puts": 1,
            "evictions": 0,
            "corrupt": 0,
            "entries": 1,
        }

    def test_eviction_bounds_entries(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        for index in range(4):
            cache.put(f"{index:02d}" * 32, {"index": index})
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 2

    def test_puts_below_the_limit_never_list_the_directory(self, tmp_path, monkeypatch):
        ResultCache(tmp_path).put("aa" * 32, {"index": -1})
        cache = ResultCache(tmp_path, max_entries=22)
        listings = []
        real_glob = Path.glob

        def counting_glob(self, pattern):
            listings.append(pattern)
            return real_glob(self, pattern)

        monkeypatch.setattr(Path, "glob", counting_glob)
        for index in range(20):
            cache.put(f"{index:02d}" * 32, {"index": index})
        cache.put("00" * 32, {"index": 0})  # overwriting adds no entry
        assert listings == []
        # The count opened at one entry and reached 21: one more fits,
        # and the put after it lists the directory to evict.
        cache.put("ff" * 32, {"index": 21})
        assert listings == []
        cache.put("fe" * 32, {"index": 22})
        assert len(listings) == 1 and cache.evictions == 1
        monkeypatch.undo()
        assert cache.stats()["entries"] == 22

    def test_concurrent_puts_count_every_entry(self, tmp_path):
        # Below the limit only the running count can trigger an eviction,
        # so a lost update would let the directory outgrow max_entries.
        cache = ResultCache(tmp_path, max_entries=200)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(cache.put, f"{index:02x}" * 32, {"index": index})
                    for index in range(200)
                ]
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert cache._entries == 200
        cache.put("ff" * 32, {"index": 200})
        stats = cache.stats()
        assert stats["entries"] == 200 and stats["evictions"] == 1

    def test_corrupted_entry_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = "cd" * 32
        cache.put(digest, {"ok": True})
        cache._path(digest).write_text("{not json")
        assert cache.get(digest) is None, "corrupt entry must read as a miss"
        assert not cache._path(digest).exists(), "corrupt entry must be dropped"
        cache.put(digest, {"ok": True})
        assert cache.get(digest) == {"ok": True}
        stats = cache.stats()
        assert stats["corrupt"] == 1 and stats["misses"] == 1 and stats["hits"] == 1

    def test_stale_schema_entry_is_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = "ef" * 32
        path = cache._path(digest)
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({"schema": CACHE_SCHEMA_VERSION + 9, "digest": digest, "payload": {}})
        )
        assert cache.get(digest) is None
        assert cache.stats()["corrupt"] == 1

    def test_open_cache_disabled_returns_nothing(self, tmp_path):
        assert open_cache(str(tmp_path), enabled=False) is None
        cache = open_cache(str(tmp_path))
        assert isinstance(cache, ResultCache) and cache.root == tmp_path
