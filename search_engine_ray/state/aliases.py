"""Index aliases — the Elasticsearch alias API (the blue-green swap
primitive: rebuild into a fresh out_dir, then atomically repoint the
serving name; readers never observe a half-built index). The reference
has no alias layer (one fixed MySQL schema); this is the lifecycle
piece that makes rebuild-and-swap a one-call operation on top of the
existing build/snapshot machinery.

The registry is ONE json file (``aliases.json`` under a registry dir),
written tmp + ``os.replace`` — the same atomic-rename discipline as the
partition manifests, so a concurrent reader sees either the old map or
the new map, never a torn write. Alias resolution is a dict lookup; the
registry is config-sized (names, not data).
"""

from __future__ import annotations

import json
import os

from .layout import build_manifest_path


def _path(registry: str) -> str:
    return os.path.join(registry, "aliases.json")


def _load(registry: str) -> dict[str, str]:
    try:
        with open(_path(registry)) as f:
            return dict(json.load(f))
    except FileNotFoundError:
        return {}


def _store(registry: str, aliases: dict[str, str]) -> None:
    os.makedirs(registry, exist_ok=True)
    tmp = _path(registry) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(aliases, f, indent=1, sort_keys=True)
    os.replace(tmp, _path(registry))  # atomic on POSIX


def alias_set(registry: str, alias: str, out_dir: str) -> dict:
    """Point ``alias`` at ``out_dir`` (create or atomic swap). The
    target must look like an index (its manifest must exist) — a swap
    to a half-built dir is exactly the failure aliases exist to
    prevent."""
    if not alias or "/" in alias:
        return {"result": False, "error": "bad_alias"}
    if not os.path.exists(build_manifest_path(out_dir)):
        return {"result": False, "error": "no_index"}
    aliases = _load(registry)
    prev = aliases.get(alias)
    aliases[alias] = os.path.abspath(out_dir)
    _store(registry, aliases)
    return {"result": True, "alias": alias,
            "out_dir": aliases[alias], "previous": prev, "error": None}


def alias_delete(registry: str, alias: str) -> dict:
    aliases = _load(registry)
    if alias not in aliases:
        return {"result": False, "error": "unknown_alias"}
    prev = aliases.pop(alias)
    _store(registry, aliases)
    return {"result": True, "alias": alias, "previous": prev, "error": None}


def alias_resolve(registry: str, alias: str) -> str | None:
    return _load(registry).get(alias)


def alias_list(registry: str) -> dict[str, str]:
    return dict(sorted(_load(registry).items()))
