"""Dataclass fields built on first read (see DESIGN.md, "Why fields
are built on read")."""

from __future__ import annotations

from collections.abc import Callable
from typing import Any, ClassVar

__all__ = ["OnRead"]


class OnRead:
    """Mixin for a dataclass some of whose fields may be built on read.

    ``_builders`` maps each such field to a function of the instance
    returning its value; a builder reads the inputs the instance was
    made with as ``self._on_read`` and may also set sibling fields.  An
    instance made by :meth:`on_read` lacks those fields until the first
    read of each builds it, once; the inputs go with the last build.
    ``==`` and ``repr`` read, and so build, every field; pickle and
    copy see built fields only.
    """

    _builders: ClassVar[dict[str, Callable[[Any], Any]]] = {}

    @classmethod
    def on_read(cls, inputs: Any, **fields):
        """An instance with every other field given in ``fields`` and
        the fields of ``_builders`` built on read from ``inputs``."""
        out = cls.__new__(cls)
        out.__dict__.update(fields, _on_read=inputs)
        return out

    def read_later(self, inputs: Any) -> None:
        """Drop the fields of ``_builders`` from ``self`` and build each
        on its next read from ``inputs``, as :meth:`on_read` would."""
        d = self.__dict__
        for name in self._builders:
            d.pop(name, None)
        d["_on_read"] = inputs

    def _unbuilt(self, name: str) -> bool:
        """True while field ``name`` waits for its first read."""
        d = self.__dict__
        return "_on_read" in d and name not in d

    def __getattr__(self, name: str):
        build = self._builders.get(name)
        if build is not None and self._unbuilt(name):
            d = self.__dict__
            value = d[name] = build(self)
            if all(f in d for f in self._builders):
                del d["_on_read"]
            return value
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def __getstate__(self) -> dict:
        for name in self._builders:
            getattr(self, name)
        return self.__dict__
