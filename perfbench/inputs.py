"""Seeded request generator and the hand-written known answers.

Every request the benchmark sends is a renamed copy of one corpus input
(``examples/*.sq`` plus the rejected ``stutter`` file built here).  The
renaming appends a suffix derived from the seed and the request's index
to every user identifier, keeping the ``List``/``Nil``/``Cons``/``len``
prelude names, the ``nu`` value variable and the ``a`` type variable.  A
renamed program is a new cache key for the service (its canonical text
differs), yet asks the solver exactly the same question: the benchmark's
own test pins that every variant has its own digest and the original's
synthesis statistics.

The known answers below are written by hand, not computed by the program
under test: the status of each checked definition, the ``solved`` /
``verified`` verdict of each goal, the CLI exit code, and the program
text each goal is expected to synthesize.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*'*")
_COMMENT = re.compile(r"--[^\n]*")

#: Identifiers no request renames: keywords of the ``.sq`` grammar, the
#: list prelude, the value variable and the one type variable.
KEEP = frozenset(
    {"if", "then", "else", "let", "in", "match", "with", "fix", "data", "measure", "where"}
    | {"List", "Nil", "Cons", "len", "nu", "Int", "Bool", "a"}
)

#: ``stutter`` with one ``Cons`` dropped: it returns a list one element
#: per input element too short, so ``check`` rejects it and exits 1.
_STUTTER_OK = "Cons y (Cons y (stutter ys))"
_STUTTER_BAD = "Cons y (stutter ys)"


@dataclass(frozen=True)
class Kind:
    """One request kind: a corpus input, the verb run on it, its answer.

    ``statuses`` is the expected ``check`` status of every item, in file
    order; ``program`` is the expected synthesized text (``synth``).  Both
    use the original, unrenamed identifiers.
    """

    name: str
    source: str
    verb: str
    goal: Optional[str] = None
    depth: Optional[int] = None
    exit_code: int = 0
    statuses: Tuple[Tuple[str, str], ...] = ()
    program: Optional[str] = None


_LIST_OK = (("stutter", "ok"), ("length", "goal"), ("append", "goal"))
_LIST_BAD = (("stutter", "rejected"), ("length", "goal"), ("append", "goal"))

_MAX = r"max = \x . \y . if leq y x then x else y"
_SIGN = r"sign = \x . if lt 0 x then one else if lt x 0 then negOne else x"

#: Every kind the workloads draw from.  ``depth`` is the one
#: ``scripts/bench_synth.py`` uses and goes into service requests; the
#: CLI runs every file at its defaults (depth 4, all goals).
KINDS: Dict[str, Kind] = {
    kind.name: kind
    for kind in (
        Kind("check-ok", "list.sq", "check", statuses=_LIST_OK),
        Kind("check-rejected", "list-rejected.sq", "check", exit_code=1, statuses=_LIST_BAD),
        Kind("synth-max", "max.sq", "synth", "max", 3, program=_MAX),
        Kind("synth-sign", "sign.sq", "synth", "sign", 3, program=_SIGN),
        Kind(
            "synth-length",
            "list.sq",
            "synth",
            "length",
            3,
            program=(
                r"length = fix length . \xs . match xs with Nil -> 0"
                r" | Cons x xs' -> inc (length xs')"
            ),
        ),
        Kind(
            "synth-append",
            "list.sq",
            "synth",
            "append",
            4,
            program=(
                r"append = fix append . \xs . \ys . match xs with Nil -> ys"
                r" | Cons x xs' -> Cons x (append xs' ys)"
            ),
        ),
        Kind(
            "synth-stutter",
            "stutter.sq",
            "synth",
            "stutter",
            4,
            program=(
                r"stutter = fix stutter . \xs . match xs with Nil -> Nil"
                r" | Cons x xs' -> Cons x (Cons x (stutter xs'))"
            ),
        ),
        Kind(
            "synth-replicate",
            "replicate.sq",
            "synth",
            "replicate",
            4,
            program=(
                r"replicate = fix replicate . \n . \x . if leq n 0 then Nil"
                r" else Cons x (replicate (dec n) x)"
            ),
        ),
    )
}


def load_sources(examples: Path) -> Dict[str, str]:
    """The corpus texts by file name, plus the rejected ``stutter`` file."""
    sources = {path.name: path.read_text() for path in sorted(examples.glob("*.sq"))}
    listing = sources["list.sq"]
    if listing.count(_STUTTER_OK) != 1:
        raise ValueError("examples/list.sq no longer has the stutter body this benchmark edits")
    sources["list-rejected.sq"] = listing.replace(_STUTTER_OK, _STUTTER_BAD)
    return sources


def suffix(seed: int, index: int) -> str:
    """The renaming suffix of request ``index`` under ``seed``."""
    return f"_s{seed}n{index}"


def rename(text: str, tag: str) -> str:
    """Append ``tag`` to every user identifier in ``text``.

    Trailing primes stay at the end (``xs'`` becomes ``xs_s1n2'``), which
    is where the synthesizer's own fresh names put them.
    """

    def one(match: "re.Match[str]") -> str:
        word = match.group()
        base = word.rstrip("'")
        if base in KEEP:
            return word
        return base + tag + word[len(base) :]

    return _IDENT.sub(one, text)


@dataclass(frozen=True)
class Request:
    """One generated operation: the renamed program and its answer."""

    kind: Kind
    tag: str
    text: str

    def expected_statuses(self) -> List[Tuple[str, str]]:
        return [(rename(name, self.tag), status) for name, status in self.kind.statuses]

    def expected_program(self) -> Optional[str]:
        return rename(self.kind.program, self.tag) if self.kind.program else None

    def body(self) -> dict:
        """The service request body (``/check`` or ``/synth``)."""
        body: dict = {"program": self.text}
        if self.kind.verb == "synth":
            body["only"] = rename(self.kind.goal, self.tag)
            body["depth"] = self.kind.depth
        return body


def make_request(sources: Dict[str, str], kind: Kind, seed: int, index: int) -> Request:
    tag = suffix(seed, index)
    text = _COMMENT.sub("", sources[kind.source])
    return Request(kind, tag, rename(text, tag))


def schedule(weights: Sequence[Tuple[str, int]], seed: int) -> Iterator[Kind]:
    """Endless shuffled rounds, each holding every kind ``weight`` times.

    Rounds keep each kind's share exact at every round boundary, so a run
    cut short by its deadline still sees the intended mix.
    """
    rng = random.Random(seed)
    round_ = [KINDS[name] for name, weight in weights for _ in range(weight)]
    while True:
        rng.shuffle(round_)
        yield from list(round_)
