"""The pass manager: a declarative spine for the NIR pipeline.

The paper's retargeting argument (§5.3.1) rests on the pipeline being a
*structure* — an ordered sequence of reusable transformations — rather
than a hand-wired function.  This package makes that structure explicit:

* :mod:`.passes`   — the :class:`Pass` record (name, scope, enabled
  predicate, config projection, report slot) and its run context;
* :mod:`.registry` — an ordered :class:`PassRegistry`; registration
  order *is* the default pipeline;
* :mod:`.manager`  — the :class:`PassManager` driver: runs enabled
  passes, times each one, measures IR-size deltas, invokes the NIR
  verifier between passes, and captures ``--dump-after`` snapshots;
* :mod:`.trace`    — :class:`PipelineTrace` / :class:`PassTiming`, the
  observability payload that flows into ``--stats-json`` and the
  service metrics op.

The package is deliberately transform-agnostic: it knows NIR and the
verifier hook, but the concrete passes live in
:mod:`repro.transform.passes` and register themselves here.  Adding a
pass is one ``register`` call; reordering or ablating the pipeline is a
list of names.
"""

from .manager import PassManager, state_hash, unwrap_body, wrap_body
from .passes import Memos, Pass, PassContext
from .registry import PassRegistry, UnknownPassError
from .trace import PassTiming, PipelineTrace

__all__ = [
    "Memos",
    "Pass",
    "PassContext",
    "PassManager",
    "PassRegistry",
    "PassTiming",
    "PipelineTrace",
    "UnknownPassError",
    "state_hash",
    "unwrap_body",
    "wrap_body",
]
