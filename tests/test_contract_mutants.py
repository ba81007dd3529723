"""The CLI and server contract under single-edit mutants of the examples.

``docs/cli.md``: exit 0 answers yes, exit 1 answers no, exit 2 is a usage
or input error (or a budget that ran out first), and an input error is
reported on one ``error:`` line.  ``docs/service.md``: the server answers
200 or 400, or 503 with ``"timeout": true`` when a budget ran out, never
500, and a 400 is not a worker reset.

Each mutant deletes, duplicates, swaps or replaces one token of an
``examples/*.sq`` file (seeded, so the set is fixed).  Every mutant goes
through an in-process ``repro.cli.main`` ``check`` and ``synth``,
``/check`` and ``/synth`` on an in-process :class:`ReproServer` and one
``batch --no-cache`` sweep, all without a cache, and the three fronts
must agree on every ``check`` answer.
"""

import io
import json
import random
import re
import threading
from contextlib import redirect_stderr
from http.client import HTTPConnection
from pathlib import Path

import pytest

from repro import cli
from repro.service.batch import run_batch
from repro.service.server import ReproServer

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: Mutants per example file, and the seed that picks them.
MUTANTS_PER_FILE = 12
SEED = 3

#: ``synth`` options: a shallow search under a budget keeps every mutant
#: cheap, and a goal the budget cuts short is a timeout, not a hang.
DEPTH, TIMEOUT_MS = 1, 1000

_TOKEN = re.compile(r"--[^\n]*|[A-Za-z_][A-Za-z0-9_']*|\d+|\S")


def mutate(text, rng):
    """``text`` with one token deleted, duplicated, swapped with the next
    one or replaced by another token of the same kind from the same text
    (a name, a number or a symbol, so more of the mutants still parse)."""
    spans = [m.span() for m in _TOKEN.finditer(text) if not m.group().startswith("--")]
    index = rng.randrange(len(spans) - 1)
    (start, end), (next_start, next_end) = spans[index], spans[index + 1]
    token, following = text[start:end], text[next_start:next_end]
    edit = rng.choice(("delete", "duplicate", "swap", "replace"))
    if edit == "delete":
        return text[:start] + text[end:]
    if edit == "duplicate":
        return text[:end] + " " + token + text[end:]
    if edit == "swap":
        return text[:start] + following + text[end:next_start] + token + text[next_end:]
    kind = _kind(token)
    other = rng.choice([text[a:b] for a, b in spans if _kind(text[a:b]) == kind])
    return text[:start] + other + text[end:]


def _kind(token):
    if token[0].isalpha() or token[0] == "_":
        return "name"
    return "number" if token.isdigit() else "symbol"


def mutants():
    """Mutant file name -> source, ``MUTANTS_PER_FILE`` per example."""
    rng = random.Random(SEED)
    made = {}
    for path in sorted(EXAMPLES.glob("*.sq")):
        text = path.read_text()
        for index in range(MUTANTS_PER_FILE):
            made[f"{path.stem}_{index}.sq"] = mutate(text, rng)
    return made


def run_cli(argv):
    """``(exit code, stdout, stderr)`` of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stderr(err):
        code = cli.main(argv, out=out)
    return code, out.getvalue(), err.getvalue()


def call(server, method, path, body=None):
    """``(status, JSON answer)`` of one request to the server."""
    conn = HTTPConnection("127.0.0.1", server.server_port)
    try:
        conn.request(method, path, None if body is None else json.dumps(body).encode())
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def rendered_check(payload, path):
    """The CLI's ``check`` answer for a payload another front computed."""
    out = io.StringIO()
    code = cli._render_check(payload, path, out)
    return code, out.getvalue()


def assert_cli_contract(code, stdout, stderr):
    assert code in (0, 1, 2), (code, stdout, stderr)
    if code == 2 and "budget exhausted" not in stdout:
        lines = stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), stderr


def assert_http_contract(status, answer):
    assert status in (200, 400, 503), (status, answer)
    if status == 503:
        assert answer["timeout"] is True, answer


MUTANTS = mutants()


@pytest.fixture(scope="module")
def batch(tmp_path_factory):
    """One ``batch --no-cache`` sweep over every mutant: its report."""
    root = tmp_path_factory.mktemp("mutants")
    for name, text in MUTANTS.items():
        (root / name).write_text(text)
    report = run_batch(str(root), cache=None, depth=DEPTH, file_timeout_ms=TIMEOUT_MS)
    report["root"] = root
    return report


@pytest.fixture(scope="module")
def server():
    srv = ReproServer("127.0.0.1", 0, None)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_most_mutants_differ_from_their_original():
    originals = {path.read_text() for path in EXAMPLES.glob("*.sq")}
    assert len(MUTANTS) == MUTANTS_PER_FILE * len(originals)
    assert len(set(MUTANTS.values()) - originals) > len(MUTANTS) // 2


def test_the_batch_sweep_counts_no_reset(batch):
    assert len(batch["files"]) == len(MUTANTS)
    assert batch["resets"] == 0 and batch["timeout_resets"] == 0
    # Most single edits do not parse; enough do that the fronts' answers
    # are compared, not only their error paths.
    assert sum("error" not in record for record in batch["files"]) >= 5


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_every_front_keeps_the_contract_and_agrees_on_check(name, batch, server):
    path = batch["root"] / name
    code, stdout, stderr = run_cli(["check", str(path), "--no-cache"])
    assert_cli_contract(code, stdout, stderr)
    options = ["--depth", str(DEPTH), "--timeout-ms", str(TIMEOUT_MS), "--no-cache"]
    assert_cli_contract(*run_cli(["synth", str(path), *options]))

    status, answer = call(server, "POST", "/check", {"program": MUTANTS[name]})
    assert_http_contract(status, answer)
    body = {"program": MUTANTS[name], "depth": DEPTH, "timeout_ms": TIMEOUT_MS}
    assert_http_contract(*call(server, "POST", "/synth", body))
    assert call(server, "GET", "/stats")[1]["worker"]["resets"] == 0

    record = next(r for r in batch["files"] if Path(r["file"]).name == name)
    if code == 2:
        # Not answered: a parse error or a definition too deep to check.
        assert status == 400, answer
        assert "error" in record, record
        return
    assert status == 200, answer
    assert rendered_check(answer["result"], str(path)) == (code, stdout)
    if "check" in record:
        assert rendered_check(record["check"], str(path)) == (code, stdout)
    else:
        # No definitions: the sweep checks nothing, and nothing is refuted.
        assert code == 0, stdout
