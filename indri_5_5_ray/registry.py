"""Extension registry — the pluggable-surface analogue of the reference's
factory points (SURVEY.md §2.12).

The reference chooses stemmers by name in ``StemmerFactory``
(ref:src/StemmerFactory.cpp:40-80) and chains transformations in
``Repository::_buildChain`` (ref:src/Repository.cpp:137-177).  Here the
stemmer and tokenizer seams are plain dicts: a user registers a callable
under a name, and ``IndexConfig.stemmer`` / ``IndexConfig.tokenizer``
resolve through the registry before falling back to the built-ins.
Scorers are not pluggable: ``pipelines.run.make_engine`` maps a query kind
to a built-in engine.

Registered callables must be importable at the worker (defined in an
installed module, not a notebook lambda) because Ray ships them by
reference; the registries themselves are process-local and consulted at
actor/worker construction time, so registration must happen before the
pipeline runs (e.g. at module import in the user's driver script — the same
contract the reference's static factories impose at link time).

>>> from indri_5_5_ray import registry
>>> registry.register_stemmer("identity", lambda term: term)
>>> cfg = IndexConfig(stemmer="identity")
"""

from __future__ import annotations

from collections.abc import Callable

# name → stem function (term str → stemmed str | None to drop)
_STEMMERS: dict[str, Callable[[str], str | None]] = {}
# name → tokenize function (bytes → list[bytes] raw token slots)
_TOKENIZERS: dict[str, Callable[[bytes], list[bytes]]] = {}


def register_stemmer(name: str, fn: Callable[[str], str | None]) -> None:
    """Register a custom stemmer usable as ``IndexConfig(stemmer=name)``.

    The function receives the normalized term and returns the indexed form
    (or None to drop the term to a termID-0 slot)."""
    if name in ("krovetz", "porter", "none", None):
        raise ValueError(f"cannot shadow built-in stemmer {name!r}")
    if isinstance(name, str) and name.startswith("arabic_"):
        # TermProcessor routes every arabic_* config value to the built-in
        # Larkey family before consulting the registry
        raise ValueError(f"cannot shadow reserved stemmer prefix 'arabic_' "
                         f"({name!r})")
    _STEMMERS[name] = fn


def get_stemmer(name: str) -> Callable[[str], str | None] | None:
    return _STEMMERS.get(name)


def register_tokenizer(name: str, fn: Callable[[bytes], list[bytes]]) -> None:
    """Register a tokenizer mode usable as ``IndexConfig(tokenizer=name)``.

    The function receives document bytes and returns the final token slots
    (pre-normalization; empty/None-producing slots still count in dl)."""
    if name in ("word", "char"):
        raise ValueError(f"cannot shadow built-in tokenizer {name!r}")
    _TOKENIZERS[name] = fn


def get_tokenizer(name: str) -> Callable[[bytes], list[bytes]] | None:
    return _TOKENIZERS.get(name)


def snapshot() -> dict:
    """Capture all registrations for shipping to Ray workers.

    Worker processes import a FRESH registry module, so driver-side
    registrations don't exist there; pipelines capture a snapshot in the
    task/actor closure and :func:`restore` it before building stateful
    workers (the callables ride along via cloudpickle)."""
    return {"stemmers": dict(_STEMMERS), "tokenizers": dict(_TOKENIZERS)}


def restore(snap: dict | None) -> None:
    """Merge a :func:`snapshot` into this process's registry (idempotent)."""
    if not snap:
        return
    _STEMMERS.update(snap.get("stemmers", {}))
    _TOKENIZERS.update(snap.get("tokenizers", {}))
