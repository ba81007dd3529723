"""The query path frees what it builds by reference counting alone.

Each definition or goal computes on a session and solvers of its own
(see :mod:`repro.service.worker`).  Nothing on that path may build a
reference cycle: one cycle keeps a request's sessions, SAT cores,
theories, clauses and formula nodes alive as garbage until the cyclic
collector's next full pass, so memory climbs with traffic instead of
returning per request.  With the cyclic collector off and
``gc.DEBUG_SAVEALL`` set, a ``gc.collect()`` after the queries must find
nothing.
"""

import collections
import gc
import json
import threading
from contextlib import contextmanager
from http.client import HTTPConnection
from pathlib import Path

from repro import limits
from repro.service import api
from repro.service.cache import open_cache
from repro.service.server import ReproServer
from repro.syntax import parse_program

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

REJECTED_SQ = """\
inc :: a:Int -> {Int | nu == a + 1}

plus2 :: a:Int -> {Int | nu == a + 2}
plus2 = \\a . inc a
"""


@contextmanager
def cyclic_garbage():
    """Run the block with the cyclic collector off.  The yielded counter
    then holds, by type name, every object only that collector frees."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.garbage.clear()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    found = collections.Counter()
    try:
        yield found
        gc.collect()
        found.update(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def post(port, route, source):
    conn = HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", route, json.dumps({"program": source}).encode())
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def run_queries(port, index):
    """Every kind of query the service answers; ``index`` makes the POST
    a program the server has not seen."""
    for path in sorted(EXAMPLES.glob("*.sq")):
        program = parse_program(path.read_text())
        assert api.compute_check(program)["failures"] == 0
        assert api.compute_synth(program)["failures"] == 0
    assert api.compute_check(parse_program(REJECTED_SQ))["failures"] == 1
    goals = parse_program((EXAMPLES / "list.sq").read_text())
    assert api.compute_synth(goals, timeout_ms=1)["timeout"]
    # A pivot limit trips in the simplex, deep inside a SAT core's search.
    with limits.budget_scope(limits.Budget(max_pivots=0)):
        tripped = api.compute_synth(goals)
    assert {item["limit"] for item in tripped["items"]} == {"tableau_pivots"}
    source = (EXAMPLES / "max.sq").read_text().replace("max", f"max_r{index}")
    status, answer = post(port, "/synth", source)
    assert status == 200 and not answer["cached"]


def test_queries_leave_nothing_for_the_cyclic_collector(tmp_path):
    server = ReproServer("127.0.0.1", 0, open_cache(str(tmp_path / "cache")))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        run_queries(server.server_port, 0)  # warm-up: lazy imports, module caches
        with cyclic_garbage() as found:
            run_queries(server.server_port, 1)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert not found, f"the query path left cyclic garbage: {found.most_common(10)}"
