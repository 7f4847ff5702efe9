"""One reader for JSON inputs: the config, the profiles file and snapshots.

A parser takes a JSON value and returns what it reads or raises
:class:`FieldError`, whose path is built only on failure: each container
adds its step as the error passes through it.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Iterable, Iterator

_FLOAT_MAX = sys.float_info.max
ABSENT = object()  # the value of a key or item that one side of a :func:`difference` lacks


class FieldError(ValueError):
    """A value does not fit its row; ``steps`` hold its path, innermost first."""

    def __init__(self, message: str, *steps: str) -> None:
        super().__init__(message)
        self.steps = list(steps)


def read(parse: Callable, value, error: type[Exception], where: str = ""):
    """``parse(value)``, raising ``error`` named by the bad field's path below ``where``."""
    try:
        return parse(value)
    except FieldError as exc:
        path = (where + "".join(reversed(exc.steps))).removeprefix(".")
        raise error(f"{path or 'top level'}: {exc.args[0]}") from exc


def number(kind: type, low: float = -math.inf, high: float = math.inf, low_open: bool = False):
    """Parser for a finite JSON number in ``[low, high]`` (``(low, high]``
    with ``low_open``): an integer if ``kind`` is int, any number if float.
    Booleans are not numbers.  The value is returned as it is.

    Its ``every(values)``, checked in C, is True only if every value would pass.
    """
    types = (int,) if kind is int else (int, float)
    expected = "an integer" if kind is int else "a finite number"
    bounds = f"must be {'>' if low_open else '>='} {low}"
    if high < math.inf:
        bounds = f"must be in {'(' if low_open else '['}{low}, {high}]"
    bounded = low > -math.inf or high < math.inf
    fast_types = frozenset((kind,))  # float lists that mix in integers take the slow path

    def in_bounds(value) -> bool:
        return (low < value if low_open else low <= value) and value <= high

    def parse(value):
        if type(value) not in types or not (kind is int or abs(value) <= _FLOAT_MAX):
            raise FieldError(f"expected {expected}, got {value!r}")
        if bounded and not in_bounds(value):
            raise FieldError(bounds)
        return value

    def every(values) -> bool:
        return (
            fast_types.issuperset(map(type, values))
            and (kind is int or math.isfinite(sum(values)))  # an infinity or NaN spreads to the sum
            and not (bounded and values and not (in_bounds(min(values)) and max(values) <= high))
        )

    parse.every = every
    return parse


def valid(test: Callable, message: str):
    """Parser that keeps a value passing ``test`` and rejects anything else."""

    def parse(value):
        if not test(value):
            raise FieldError(message)
        return value

    return parse


STRING = valid(lambda value: isinstance(value, str), "expected a string")


def optional(parse: Callable):
    return lambda value: None if value is None else parse(value)


def choice(options: tuple):
    return valid(lambda value: value in options, f"expected one of {list(options)}")


def items(parse: Callable):
    """Parser for a JSON list of values that ``parse`` reads, named ``[i]``."""
    return _collection(parse, list, enumerate, "[{}]")


def entries(parse: Callable):
    """Parser for a JSON object of any keys whose values ``parse`` reads, named ``['key']``."""
    return _collection(parse, dict, dict.items, "[{!r}]")


def _collection(parse: Callable, kind: type, pairs: Callable, step: str):
    every = getattr(parse, "every", None)

    def parse_all(value):
        if not isinstance(value, kind):
            raise FieldError("expected a list" if kind is list else "expected an object")
        if every is not None and every(value.values() if kind is dict else value):
            return value
        parsed = {}
        try:
            for key, item in pairs(value):
                parsed[key] = parse(item)
        except FieldError as exc:
            exc.steps.append(step.format(key))
            raise
        return parsed if kind is dict else list(parsed.values())

    return parse_all


def table(rows: Iterable[tuple[str, str, Callable]], build: Callable | None = None, required=()):
    """Parser for a JSON object of ``rows`` (path, attribute, parser); a dotted
    path is a field of a section object, whose values join its parent's.

    ``required`` names the rows that must be present, or is True for all; a
    key no row names is an error.  The values, keyed by attribute, are
    returned or passed to ``build``, whose ValueError rejects the object.
    """
    groups: dict[str, list] = {}
    for path, attr, parse in rows:
        key, _, inner = path.partition(".")
        groups.setdefault(key, []).append((inner, attr, parse))
    # (key, attribute, parser); a section has no attribute of its own.
    fields = [(key, None, table(group)) if group[0][0] else (key, *group[0][1:])
              for key, group in groups.items()]
    keys = frozenset(groups)
    needed = [key for key in groups if required is True or key in required]

    def parse_table(value):
        if not isinstance(value, dict):
            raise FieldError("expected an object")
        if not keys.issuperset(value):
            raise FieldError("unknown field", f".{next(key for key in value if key not in keys)}")
        present = fields
        if len(value) < len(fields):
            for key in needed:
                if key not in value:
                    raise FieldError("missing", "." + key)
            present = [field for field in fields if field[0] in value]
        values = {}
        try:
            for key, attr, parse in present:
                if attr is None:
                    values.update(parse(value[key]))
                else:
                    values[attr] = parse(value[key])
        except FieldError as exc:
            exc.steps.append("." + key)
            raise
        if build is None:
            return values
        try:
            return build(**values)
        except ValueError as exc:
            raise FieldError(str(exc)) from exc

    return parse_table


def difference(a, b, where: str, sides: tuple[str, str]) -> str | None:
    """The first difference between JSON values ``a`` and ``b``, named by its path below ``where`` in this
    reader's style, then `` (and N more)`` if N more differ; None if ``a == b``.  Objects are walked by key,
    ``a``'s keys first, and lists by index.  A key, item or value that one side lacks (:data:`ABSENT`) is named
    as missing from that side of ``sides``; a container is named by its kind, never printed."""
    if a == b:
        return None
    found = _differences(a, b, where, sides)
    first, more = next(found), sum(1 for _ in found)
    return f"{first} (and {more} more)" if more else first


def _differences(a, b, path: str, sides: tuple[str, str]) -> Iterator[str]:
    if a is ABSENT or b is ABSENT:
        yield f"{path}: missing from the {sides[b is ABSENT]}"
    elif isinstance(a, (dict, list)) and type(a) is type(b):
        if isinstance(a, list):
            a, b = dict(enumerate(a)), dict(enumerate(b))
        for key in [*a, *(key for key in b if key not in a)]:
            if (x := a.get(key, ABSENT)) != (y := b.get(key, ABSENT)):
                step = f".{key}" if isinstance(key, str) and key.isidentifier() else f"[{key!r}]"
                yield from _differences(x, y, path + step, sides)
    else:
        shown = ["an object" if isinstance(v, dict) else "a list" if isinstance(v, list) else repr(v) for v in (a, b)]
        yield f"{path}: {shown[0]} vs {shown[1]}"
