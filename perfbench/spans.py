"""Spans recorded from outside the program.

A :class:`Tracer` replaces public functions and methods of ``repro``
modules with wrappers that record one span per call: name, start, end and
the span that was open when the call began (its parent). Everything stays
in memory until :meth:`Tracer.dump` writes it out. Nothing under ``src/``
is edited: the wrappers are module and class attributes set here and put
back by :meth:`Tracer.uninstall`.

A function imported by name into another module (``from repro.sim.engine
import simulate``) is bound there too, so :meth:`Tracer.install` rebinds
every ``repro.*`` module attribute that holds the original object.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    #: facts observed at the boundary (e.g. rows returned, None result)
    tags: dict[str, Any] = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


#: A hook sees (args, kwargs, result) of one call and returns span tags.
Hook = Callable[[tuple, dict, Any], dict]


def resolve(target: str) -> tuple[object, str, Callable]:
    """``"pkg.mod:func"`` or ``"pkg.mod:Class.method"`` → (owner, attr, fn)."""
    mod_name, _, qual = target.partition(":")
    owner: object = importlib.import_module(mod_name)
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Single-threaded span recorder (the traced code runs on one thread;
    Spark tasks run in other processes and are seen only as the driver
    call that waits for them)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, hook: Hook | None) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = Span(name, clock(), parent=stack[-1] if stack else -1)
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                span.tags = hook(args, kwargs, out)
            return out

        return wrapper

    def install(self, targets: dict[str, tuple[str, Hook | None]]) -> None:
        """Wrap each target; ``targets`` maps ``"mod:qualname"`` to
        (span name, hook)."""
        for target, (name, hook) in targets.items():
            owner, attr, fn = resolve(target)
            wrapped = self.wrap(name, fn, hook)
            self._set(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            for mod_name, mod in list(sys.modules.items()):
                if (
                    mod_name.startswith("repro")
                    and mod is not owner
                    and getattr(mod, attr, None) is fn
                ):
                    self._set(mod, attr, wrapped)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.
        Calls on one thread nest, so children never overlap each other."""
        out = [s.dur for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.dur
        return out

    def ancestors(self, idx: int) -> list[str]:
        names = []
        p = self.spans[idx].parent
        while p >= 0:
            names.append(self.spans[p].name)
            p = self.spans[p].parent
        return names

    def dump(self, path: str, extra: dict) -> None:
        """Write every span and the run's summary as one JSON document."""
        with open(path, "w") as f:
            json.dump(
                {
                    **extra,
                    "spans": [
                        {
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            **({"tags": s.tags} if s.tags else {}),
                        }
                        for s in self.spans
                    ],
                },
                f,
            )
