"""The module-wide memos of the exact engine, for inspection and reset.

Every such memo is a cached function (``functools.cache``) in the module
globals of ``forest_core``, ``hopf``, ``bseries_hopf`` or ``lbseries``.
``stats()`` reads their ``cache_info()``, and ``clear()`` empties them,
so a cold pass can be measured in one process. The intern tables of
trees, forests and Bell words are constructors, not memos, and are never
touched: a tree built after its table was emptied would equal nothing
built before. The memos owned by one object (``Coeff._cache``, the
powers of a ``convolution_series`` map) die with it and are not listed.
The stage weights of Runge-Kutta tableaus are a cached function of the
tableau and the tree, so ``clear()`` reaches those of the builtin
tableaus too.

Nothing in ``bflow`` imports this module; importing it loads all four
layers.
"""

from __future__ import annotations

from . import bseries_hopf, forest_core, hopf, lbseries

_MODULES = (forest_core, hopf, bseries_hopf, lbseries)


def _cached_functions() -> dict:
    """Each cached function by module and global name. A module imports
    only from those before it, so a function another module imports is
    listed once, under its own module."""
    found: dict = {}
    seen: set = set()
    for module in _MODULES:
        for name, f in vars(module).items():
            if hasattr(f, "cache_clear") and id(f) not in seen:
                seen.add(id(f))
                found[f"{module.__name__}.{name}"] = f
    return found


def stats() -> dict[str, dict[str, int]]:
    """Entries, hits and misses of every cached function, by name."""
    out = {}
    for name, f in _cached_functions().items():
        info = f.cache_info()
        out[name] = {"entries": info.currsize, "hits": info.hits, "misses": info.misses}
    return out


def clear() -> None:
    """Empty every cached function. The intern tables stay as they are."""
    for f in _cached_functions().values():
        f.cache_clear()
