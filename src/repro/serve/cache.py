"""Content-addressed memo store for derived products.

A cache entry is one ``.npz`` file named by the SHA-256 of its *request
fingerprint*: the product name, every query parameter, and the content
checksums of each input chunk the compute would read.  Two consequences:

* a warm hit returns **bitwise-identical** arrays to the cold compute
  (``np.save``/``np.load`` round-trip float arrays exactly; the tests
  assert it), and
* the key changes whenever the inputs change — overwrite a snapshot and
  the stale entry is simply never addressed again, so there is no
  invalidation protocol to get wrong.

Writes are atomic (:func:`repro.io.atomic.atomic_write`), so a killed
query can never leave a truncated entry that a later hit would trust.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from ..io.atomic import atomic_write

__all__ = ["ProductCache"]


class ProductCache:
    """A directory of ``<sha256>.npz`` memoized product arrays."""

    def __init__(self, cache_dir: str | Path) -> None:
        self.cache_dir = Path(cache_dir)
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(payload: dict) -> str:
        """Deterministic key: SHA-256 of the canonical-JSON fingerprint."""
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def path(self, key: str) -> Path:
        """Where an entry for ``key`` lives (whether or not it exists)."""
        return self.cache_dir / f"{key}.npz"

    def get(self, key: str) -> dict[str, np.ndarray] | None:
        """Load an entry's arrays, or ``None`` on a miss."""
        path = self.path(key)
        if not path.exists():
            self.misses += 1
            return None
        with np.load(path) as data:
            out = {name: data[name] for name in data.files}
        self.hits += 1
        return out

    def put(self, key: str, arrays: dict[str, np.ndarray]) -> Path:
        """Store one entry atomically; returns its path."""
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self.path(key)
        atomic_write(path, lambda fh: np.savez(fh, **arrays))
        return path

    def stats(self) -> dict:
        """Hit/miss counters plus the entry count on disk."""
        entries = (
            len(list(self.cache_dir.glob("*.npz")))
            if self.cache_dir.is_dir() else 0
        )
        return {"hits": self.hits, "misses": self.misses, "entries": entries}
