"""Traced launcher: run ``repro.cli.main`` with every layer boundary timed.

Usage (``perfbench/run.py`` spawns it in place of ``python -m repro``)::

    python perfbench/launcher.py SPANS_FILE OP_ID -- check FILE
    python perfbench/launcher.py SPANS_FILE - -- serve --port 0 ...

It times ``import repro.cli``, wraps the public functions each layer
metric names (methods on their classes; functions in their defining
module and in every ``repro.*`` module that imported them by name), runs
``repro.cli.main`` and, when main returns, writes the spans and counters
it kept in memory to ``SPANS_FILE`` as JSON.  A span is ``[name, start,
end, parent, op]``; ``op`` is ``OP_ID`` for a CLI child and, in the
server, the ``X-Bench-Op`` header of the request being handled (the
server itself ignores the header).  Nothing under ``src/`` is modified.
"""

import sys
import time

# Only sys and time are loaded before this point, so the import below
# pays for everything ``python -m repro`` itself would load.
_IMPORT_START = time.perf_counter()
import repro.cli  # noqa: E402

_IMPORT_END = time.perf_counter()

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import threading  # noqa: E402
import weakref  # noqa: E402


class Recorder:
    """Spans and per-op counters, kept in memory until exit."""

    def __init__(self, default_op):
        self.spans = []
        self.counters = {}
        self.default_op = default_op
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.op = self.default_op
            local.depth = {}
        return local

    @property
    def op(self):
        return self._state().op

    def set_op(self, op):
        self._state().op = op

    def begin(self, name):
        local = self._state()
        parent = local.stack[-1] if local.stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, local.op])
        local.stack.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        self._state().stack.pop()

    def enter(self, group):
        """Nesting depth of ``group`` on this thread, before this call."""
        depth = self._state().depth
        level = depth.get(group, 0)
        depth[group] = level + 1
        return level

    def leave(self, group):
        self._state().depth[group] -= 1

    def count(self, name, amount=1, op=None):
        key = (self.op if op is None else op, name)
        self.counters[key] = self.counters.get(key, 0) + amount


RECORDER = Recorder(None)


def _spanned(name, fn, group=None):
    """Wrap ``fn`` in a span; with ``group``, only outermost calls count."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if group is not None:
            if RECORDER.enter(group):
                try:
                    return fn(*args, **kwargs)
                finally:
                    RECORDER.leave(group)
            RECORDER.count(group + "_calls")
        index = RECORDER.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            RECORDER.end(index)
            if group is not None:
                RECORDER.leave(group)

    return wrapper


def _stepped(name, fn):
    """Wrap a generator function so that each step is its own span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        try:
            while True:
                index = RECORDER.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    RECORDER.end(index)
                yield item
        finally:
            inner.close()

    return wrapper


def _patch_function(module_name, attr, name, group=None):
    """Replace a function everywhere ``repro.*`` bound it by name."""
    original = getattr(sys.modules[module_name], attr)
    wrapped = _spanned(name, original, group)
    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("repro") and getattr(module, attr, None) is original:
            setattr(module, attr, wrapped)


def _patch_methods(cls, names, span, group=None):
    for attr in names:
        setattr(cls, attr, _spanned(span, getattr(cls, attr), group))


def _public_methods(cls, skip=()):
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value) and name not in skip
    ]


def _instrument():
    from repro.horn.musfix import MusFixSolver
    from repro.horn.solver import HornSolver
    from repro.service.cache import ResultCache
    from repro.service.server import ReproServer, ServiceHandler
    from repro.service.worker import WarmStack
    from repro.smt.lia import Simplex
    from repro.smt.sat import SatSolver
    from repro.smt.solver import IncrementalSolver
    from repro.smt.theory import IncrementalTheory, TheoryChecker
    from repro.synth.enumerator import ETermEnumerator
    from repro.synth.synthesizer import Synthesizer
    from repro.typecheck.session import TypecheckSession

    # -- service ---------------------------------------------------------
    do_post = ServiceHandler.do_POST

    @functools.wraps(do_post)
    def handle(self):
        op = self.headers.get("X-Bench-Op")
        TRACKER.settle(None)
        RECORDER.set_op(op)
        index = RECORDER.begin("service.handler")
        try:
            return do_post(self)
        finally:
            RECORDER.end(index)
            RECORDER.set_op(None)
            TRACKER.settle(op)

    ServiceHandler.do_POST = handle
    _patch_function("repro.service.cache", "query_digest", "service.digest")

    cache_get = ResultCache.get

    @functools.wraps(cache_get)
    def get(self, digest):
        index = RECORDER.begin("service.cache_get")
        try:
            payload = cache_get(self, digest)
        finally:
            RECORDER.end(index)
        RECORDER.count("cache_lookups")
        RECORDER.count("cache_hits", payload is not None)
        return payload

    ResultCache.get = get
    _patch_methods(ResultCache, ["put"], "service.cache_put")

    flush = WarmStack.flush_lemmas

    @functools.wraps(flush)
    def flush_lemmas(self):
        index = RECORDER.begin("service.flush_lemmas")
        try:
            pool = flush(self)
        finally:
            RECORDER.end(index)
        if self.lemma_store is not None:
            RECORDER.counters[(None, "lemma_pool")] = pool
        return pool

    WarmStack.flush_lemmas = flush_lemmas
    reset = WarmStack.reset

    @functools.wraps(reset)
    def counted_reset(self, timeout=False):
        RECORDER.count("stack_resets")
        return reset(self, timeout)

    WarmStack.reset = counted_reset

    serve_forever = ReproServer.serve_forever

    def ready(self, *args, **kwargs):
        RECORDER.counters[(None, "ready_at")] = time.perf_counter()
        return serve_forever(self, *args, **kwargs)

    ReproServer.serve_forever = ready

    # -- syntax, typecheck, synth ----------------------------------------
    _patch_function("repro.syntax.parser", "parse_program", "syntax.parse")
    _patch_methods(
        TypecheckSession,
        _public_methods(TypecheckSession, skip=("trial", "try_check", "try_infer")),
        "typecheck",
    )
    for attr in ("try_check", "try_infer"):
        traced = _spanned("typecheck", getattr(TypecheckSession, attr))
        setattr(TypecheckSession, attr, _counted("typecheck_trials", traced))

    synthesize = Synthesizer.synthesize

    @functools.wraps(synthesize)
    def synthesize_traced(self):
        index = RECORDER.begin("synth")
        try:
            result = synthesize(self)
        finally:
            RECORDER.end(index)
        for key, value in result.statistics.as_dict().items():
            RECORDER.count("synth_" + key, value)
        return result

    Synthesizer.synthesize = synthesize_traced
    ETermEnumerator.candidates = _stepped("synth.enumerate", ETermEnumerator.candidates)
    _patch_function("repro.synth.conditions", "abduce_condition", "synth.abduce")

    # -- horn ------------------------------------------------------------
    _patch_methods(HornSolver, ["solve", "search_candidates"], "horn", group="horn_solve")
    _patch_methods(MusFixSolver, _public_methods(MusFixSolver), "horn")
    TRACKER.track(HornSolver, "horn.")

    # -- smt -------------------------------------------------------------
    _patch_methods(IncrementalSolver, ["assert_"], "smt.encode")
    _patch_methods(SatSolver, ["solve"], "smt.search")
    _patch_methods(IncrementalTheory, ["assert_literal", "check", "propagate"], "smt.theory")
    _patch_methods(Simplex, ["assert_constraint", "check"], "smt.simplex")
    _patch_methods(TheoryChecker, ["is_consistent"], "smt.shrink")
    TRACKER.track(IncrementalSolver, "smt.")

    # -- logic: outermost rewrites only, never the recursive transform ----
    for module_name, attr in (
        ("repro.logic.simplify", "simplify"),
        ("repro.logic.simplify", "negation_normal_form"),
        ("repro.logic.substitution", "substitute"),
        ("repro.logic.substitution", "rename"),
        ("repro.logic.substitution", "apply_assignment"),
        ("repro.logic.substitution", "instantiate_value_var"),
    ):
        _patch_function(module_name, attr, "logic.rewrite", group="logic_rewrite")


def _counted(counter, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        RECORDER.count(counter)
        return fn(*args, **kwargs)

    return wrapper


class StatisticsTracker:
    """Per-op deltas of the public ``statistics`` of every solver object.

    Each tracked entry keeps a weak reference to its owner, the owner's
    statistics object and the values last attributed.  :meth:`settle`
    attributes what changed since the last call to one op, then forgets
    entries whose owner is gone (their final values are now counted).
    """

    def __init__(self):
        self.entries = []

    def track(self, cls, prefix):
        init = cls.__init__

        @functools.wraps(init)
        def wrapper(owner, *args, **kwargs):
            init(owner, *args, **kwargs)
            self.entries.append([weakref.ref(owner), prefix, owner.statistics, {}])

        cls.__init__ = wrapper

    def settle(self, op):
        alive = []
        for entry in self.entries:
            owner, prefix, stats, last = entry
            now = dict(vars(stats))
            if op is not None:
                for field, value in now.items():
                    delta = value - last.get(field, 0)
                    if delta:
                        RECORDER.count(prefix + field, delta, op=op)
            entry[3] = now
            if owner() is not None:
                alive.append(entry)
        self.entries = alive


TRACKER = StatisticsTracker()


def main(argv):
    spans_file, op_id, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: launcher.py SPANS_FILE OP_ID -- REPRO_ARGS...")
    RECORDER.default_op = None if op_id == "-" else op_id
    wrap_start = time.perf_counter()
    _instrument()
    main_start = time.perf_counter()
    code = repro.cli.main(cli_args)
    main_end = time.perf_counter()
    TRACKER.settle(RECORDER.default_op)
    report = {
        "import": [_IMPORT_START, _IMPORT_END],
        "instrument": [wrap_start, main_start],
        "main": [main_start, main_end],
        "spans": RECORDER.spans,
        "counters": [[op, name, value] for (op, name), value in RECORDER.counters.items()],
    }
    dump_start = time.perf_counter()
    with open(spans_file, "w") as handle:
        json.dump(report, handle)
        handle.write("\n")
        json.dump({"dump_s": time.perf_counter() - dump_start}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
