"""A lazily computed attribute that takes no lock."""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["lazy_attribute"]


class lazy_attribute:
    """``functools.cached_property`` without its lock.

    Before Python 3.12, ``cached_property`` holds one ``RLock`` per
    descriptor, shared by every instance, so rank threads that derive
    attributes of their *own* objects still wait for each other.  This
    descriptor computes the value on first read and stores it in the
    instance ``__dict__`` (which a frozen dataclass allows); later reads
    find it there and never reach the descriptor.  Two threads racing on
    one instance may both compute it; the results are equal and one is kept.
    """

    def __init__(self, func: Callable[[Any], Any]):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance: Any, owner: type | None = None) -> Any:
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value
