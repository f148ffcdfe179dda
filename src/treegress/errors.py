"""Exception hierarchy shared across the package.

Input-shaped problems (bad trees, bad prior text, bad files) derive from
InputError; failures that can only surface while running (sampler giving up,
state blow-up) derive from RuntimeFailure.  The CLI maps the former to exit
code 2 and the latter to exit code 3.
"""

import json


class TreegressError(Exception):
    pass


class InputError(TreegressError):
    pass


class RuntimeFailure(TreegressError):
    pass


# -- JSON inputs ----------------------------------------------------------------

def json_object(source, kind: str, keys: dict, required=(), loads=json.loads) -> dict:
    """The JSON object in ``source``: a JSON text, which ``loads`` decodes, or a
    document already decoded.  ``keys`` maps each key it may have to ``None``, any
    value, or to ``(type, *item_types)``: the JSON type of its value and, if any are
    named, of a list's items or an object's values.  ``float`` admits an int, as JSON
    does.  Text that does not decode (nested too deep included), a value that is not an
    object, an unknown key, a missing key of ``required`` and a value of another type
    each raise InputError naming ``kind``."""
    try:
        doc = loads(source) if isinstance(source, str) else source
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{kind}: cannot decode JSON ({exc})") from None
    if type(doc) is not dict:
        raise InputError(f"{kind}: not one JSON object but a {type(doc).__name__}")
    unknown = doc.keys() - keys
    if unknown:
        raise InputError(f"{kind}: unknown keys {sorted(unknown)}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise InputError(f"{kind}: missing keys {missing}")
    for key, value in doc.items():
        json_type, *item_types = keys[key] or (None,)
        items = value.values() if type(value) is dict else value
        if json_type and not (_is(value, json_type) and (not item_types or all(
                any(_is(v, t) for t in item_types) for v in items))):
            of = f" of {' or '.join(t.__name__ for t in item_types)}" if item_types else ""
            raise InputError(f"{kind}: key '{key}' must be of type {json_type.__name__}{of}")
    return doc


def _is(value, json_type) -> bool:
    return type(value) is json_type or (json_type is float and type(value) is int)


# -- tree construction --------------------------------------------------------

class ArityMismatch(InputError):
    def __init__(self, symbol, expected, got):
        super().__init__(f"symbol '{symbol}' has rank {expected} but {got} children")


class UnknownSymbol(InputError):
    pass


# -- prior text ----------------------------------------------------------------

class PrteSyntaxError(InputError):
    def __init__(self, message, line, col):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, column {col})")


class WeightSumError(InputError):
    pass


class UnboundVariable(InputError):
    pass


class NonTerminatingIter(InputError):
    pass


# -- automata / sampling --------------------------------------------------------

class AlphabetMismatch(InputError):
    pass


class StateBudgetExceeded(RuntimeFailure):
    pass


class DepthBudgetExhausted(RuntimeFailure):
    pass


class ImpossibleContext(RuntimeFailure):
    pass


# -- numerics -------------------------------------------------------------------

class SizeMismatch(InputError):
    pass


class LengthMismatch(InputError):
    pass
