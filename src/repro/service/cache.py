"""The two names ``bench/compile_corpus.py`` imports, and nothing else.

The store is :class:`~repro.service.store.ArtifactStore`; this module
stays until the benchmark imports it directly (as ``ckernel.retune``
and ``trace.artifacts["phases"]`` stay for the same reader).
"""

from .store import ArtifactStore, cache_key

__all__ = ["CompileCache", "cache_key"]


class CompileCache(ArtifactStore):
    """An :class:`ArtifactStore` that answers to ``.store``."""

    @property
    def store(self) -> ArtifactStore:
        return self
