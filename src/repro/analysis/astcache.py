"""Content-addressed cache of parsed ASTs.

Parsing is the dominant cost of a whole-tree analysis run, and the CI job
runs the tree twice (the lint pass and the graph export).  This cache keys a
pickled ``ast.Module`` by the SHA-256 of the source text (plus the Python
version and a cache schema version), so the second pass reuses the first
pass's parse work byte-for-byte.  A stale or corrupt entry can never poison
a run: any load failure silently falls back to a fresh ``ast.parse``.
"""

from __future__ import annotations

import ast
import hashlib
import os
import pickle
import sys
import tempfile
from typing import Optional

#: Bump when the cached payload format (or what we store in it) changes.
CACHE_VERSION = 1


def cache_key(source: str) -> str:
    """Stable key for one source text under this interpreter."""
    tag = f"{CACHE_VERSION}|{sys.version_info[0]}.{sys.version_info[1]}|"
    digest = hashlib.sha256()
    digest.update(tag.encode("utf-8"))
    digest.update(source.encode("utf-8"))
    return digest.hexdigest()


class AstCache:
    """A directory of pickled parse trees, keyed by source content."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.hits = 0
        self.misses = 0
        os.makedirs(directory, exist_ok=True)

    def _entry_path(self, key: str, tag: str = "ast") -> str:
        return os.path.join(self.directory, f"{key}.{tag}.pkl")

    def load(self, source: str) -> Optional[ast.Module]:
        try:
            with open(self._entry_path(cache_key(source)), "rb") as handle:
                tree = pickle.load(handle)
        except (OSError, pickle.PickleError, EOFError, AttributeError,
                ImportError, IndexError):
            return None
        if not isinstance(tree, ast.Module):
            return None
        self.hits += 1
        return tree

    def store(self, source: str, tree: ast.Module) -> None:
        """Persist one parse; failures are ignored (cache is best-effort)."""
        self._write(self._entry_path(cache_key(source)), tree)

    def _write(self, path: str, payload: object) -> None:
        try:
            fd, tmp_path = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(
                        payload, handle, protocol=pickle.HIGHEST_PROTOCOL
                    )
                os.replace(tmp_path, path)
            except BaseException:
                os.unlink(tmp_path)
                raise
        except (OSError, pickle.PickleError, RecursionError):
            pass

    def load_aux(self, source: str, tag: str) -> Optional[object]:
        """Load a derived artifact keyed by the same source content.

        ``tag`` namespaces the artifact (e.g. the per-function summaries
        use ``summary1``), so a format bump invalidates by renaming, never by
        clashing.  Any failure returns None — aux entries are as
        best-effort as the parse trees.
        """
        try:
            with open(
                self._entry_path(cache_key(source), tag), "rb"
            ) as handle:
                return pickle.load(handle)
        except (OSError, pickle.PickleError, EOFError, AttributeError,
                ImportError, IndexError):
            return None

    def store_aux(self, source: str, tag: str, payload: object) -> None:
        """Persist a derived artifact next to the source's parse tree."""
        self._write(self._entry_path(cache_key(source), tag), payload)

    def parse(self, source: str, filename: str = "<unknown>") -> ast.Module:
        """Parse ``source``, reusing a cached tree when one matches.

        Raises ``SyntaxError`` exactly like ``ast.parse`` — syntax failures
        are never cached.
        """
        tree = self.load(source)
        if tree is not None:
            return tree
        tree = ast.parse(source, filename=filename)
        self.misses += 1
        self.store(source, tree)
        return tree
