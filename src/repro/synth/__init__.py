"""Round-trip program synthesis (Secs. 4–5 of the paper).

The sixth layer of the reproduction: goal-directed I-term generation
(lambdas, match, fix, conditionals) over an E-term enumerator that prunes
candidates with early local liquid checks on the shared incremental SMT
backend, plus condition abduction for branch guards.  The
:class:`Synthesizer` drives the loop; ``python -m repro synth`` exposes it
over ``.sq`` files.
"""

from .conditions import AbducedCondition, abduce_condition
from .enumerator import ETermEnumerator
from .synthesizer import (
    SynthesisGoal,
    SynthesisResult,
    Synthesizer,
    describe_goal,
    synthesize,
)

__all__ = [
    "AbducedCondition",
    "ETermEnumerator",
    "SynthesisGoal",
    "SynthesisResult",
    "Synthesizer",
    "abduce_condition",
    "describe_goal",
    "synthesize",
]
