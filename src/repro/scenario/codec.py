"""One typed codec for every spec document: JSON ↔ frozen dataclasses.

A spec class subclasses :class:`Spec` and is a ``frozen, slots`` dataclass;
its field annotations *are* its JSON schema.  Decoding is strict by type:
a ``bool`` field takes only ``true``/``false``, a ``str`` field only a
string, an ``int`` or ``float`` field only a number (never a boolean; a
JSON integer in a ``float`` field becomes a float), ``X | None`` also takes
``null``, ``tuple[T, ...]`` a list of ``T``, ``tuple[A, B]`` a list of
exactly those items and a nested spec class an object.  Unknown keys are
rejected and every error names its JSON path
(``functions[1].workload.poisson: expected true/false, got 0``).  Range
checks are not the codec's: each class's ``__post_init__`` owns them.

Encoding writes a field only when it differs from its default, except the
fields a class always writes (:meth:`Spec._emits`).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing as _t


class ScenarioError(ValueError):
    """A scenario spec is malformed (unknown field, bad value, bad reference)."""


_SCALARS = {bool: "true/false", int: "an integer", float: "a number", str: "a string"}
_UNIONS = (_t.Union, types.UnionType)

Decoder = _t.Callable[[_t.Any, str], _t.Any]
S = _t.TypeVar("S", bound="Spec")


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _describe(tp: _t.Any) -> str:
    """What a JSON value of annotation ``tp`` looks like, for error messages."""
    if tp in _SCALARS:
        return _SCALARS[tp]
    if tp is type(None):
        return "null"
    origin, args = _t.get_origin(tp), _t.get_args(tp)
    if origin is _t.Annotated:
        return args[1]
    if origin in _UNIONS:
        return " or ".join(_describe(arm) for arm in args)
    if origin is tuple:
        return "a list" if args[1:] == (Ellipsis,) else f"a list of {len(args)} items"
    return "an object"


def _json_types(tp: _t.Any) -> tuple[type, ...]:
    """The JSON value types a union arm of annotation ``tp`` claims."""
    if tp is float:
        return (int, float)
    if tp in _SCALARS or tp is type(None):
        return (tp,)
    return (list,) if _t.get_origin(tp) is tuple else (dict, tp)


@functools.cache
def _decoder(tp: _t.Any) -> Decoder:
    """The strict ``(value, path) -> decoded`` function of one annotation."""
    expected = _describe(tp)
    origin, args = _t.get_origin(tp), _t.get_args(tp)
    if origin is _t.Annotated:
        tp, origin, args = args[0], _t.get_origin(args[0]), _t.get_args(args[0])

    def mismatch(value: _t.Any, path: str) -> _t.NoReturn:
        raise ScenarioError(f"{path}: expected {expected}, got {value!r}")

    if tp is _t.Any:
        return lambda value, path: value
    if tp is float:

        def decode(value, path):
            if type(value) is float:
                return value
            if type(value) is int:
                return float(value)
            mismatch(value, path)

    elif tp in _SCALARS:

        def decode(value, path):
            if type(value) is not tp:
                mismatch(value, path)
            return value

    elif origin in _UNIONS:
        arms = [(_json_types(arm), _decoder(arm)) for arm in args]

        def decode(value, path):
            for claims, arm in arms:
                if type(value) in claims:
                    return arm(value, path)
            mismatch(value, path)

    elif origin is tuple:
        variadic = args[1:] == (Ellipsis,)
        items = [_decoder(arm) for arm in (args[:1] if variadic else args)]
        # Long flat lists (per-bin counts) skip the per-item call when clean.
        flat = args[0] if variadic and args[0] in (bool, int, str) else None

        def decode(value, path):
            if type(value) is not list or not (variadic or len(value) == len(items)):
                mismatch(value, path)
            if flat is not None and all(type(v) is flat for v in value):
                return tuple(value)
            if variadic:
                item = items[0]
                return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(value))
            return tuple(item(v, f"{path}[{i}]") for i, (item, v) in enumerate(zip(items, value)))

    else:  # a spec class; an already-built one passes through

        def decode(value, path):
            return value if type(value) is tp else tp.from_dict(value, path)

    return decode


def _encode(value: _t.Any) -> _t.Any:
    if isinstance(value, Spec):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def _encoder(tp: _t.Any) -> _t.Callable[[_t.Any], _t.Any]:
    """``list`` for a tuple of scalars (the long per-bin lists), else the walk."""
    args = _t.get_args(tp)
    if _t.get_origin(tp) is tuple and all(a in _SCALARS or a is Ellipsis for a in args):
        return list
    return _encode


class _Field(_t.NamedTuple):
    name: str
    key: str
    decode: Decoder
    encode: _t.Callable[[_t.Any], _t.Any]
    default: _t.Any


class _Schema(_t.NamedTuple):
    by_name: dict[str, _Field]
    by_key: dict[str, _Field]
    #: the fields not in the class's ``_always``, in declaration order
    optional: tuple[str, ...]


@functools.cache
def _schema(cls: type) -> _Schema:
    hints = _t.get_type_hints(cls, include_extras=True)
    fields = [
        _Field(
            f.name,
            cls._keys.get(f.name, f.name),
            _decoder(hints[f.name]),
            _encoder(hints[f.name]),
            f.default,
        )
        for f in dataclasses.fields(cls)
    ]
    return _Schema(
        {f.name: f for f in fields},
        {f.key: f for f in fields},
        tuple(f.name for f in fields if f.name not in cls._always),
    )


def field_decoder(cls: type, name: str) -> Decoder:
    """The decoder of one field of spec class ``cls``."""
    return _schema(cls).by_name[name].decode


def _unknown(keys: _t.Iterable[str], where: str) -> ScenarioError:
    return ScenarioError(f"{where}: unknown field(s) {', '.join(repr(k) for k in sorted(keys))}")


class Spec:
    """Base of every spec dataclass: one ``to_dict``/``from_dict`` for all.

    Class attributes a subclass may set: ``_format`` (the format tag a
    top-level document carries), ``_keys`` (field → JSON key, where they
    differ) and ``_always`` (fields written even at their default).
    """

    __slots__ = ()
    _format = ""
    _keys: dict[str, str] = {}
    _always: tuple[str, ...] = ()

    def _emits(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """(fields always written, fields written when not at their default).

        Together they are also the keys :meth:`from_dict` accepts.
        """
        return self._always, _schema(type(self)).optional

    def to_dict(self) -> dict:
        payload: dict[str, _t.Any] = {"format": self._format} if self._format else {}
        fields = _schema(type(self)).by_name
        always, when_set = self._emits()
        for name in always:
            field = fields[name]
            payload[field.key] = field.encode(getattr(self, name))
        for name in when_set:
            field = fields[name]
            value = getattr(self, name)
            if value != field.default:
                payload[field.key] = field.encode(value)
        return payload

    @classmethod
    def from_dict(cls, payload: _t.Any, path: str = "") -> _t.Self:
        return decode_spec(cls, payload, path)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())


def decode_spec(cls: type[S], payload: _t.Any, path: str = "") -> S:
    """Decode ``payload`` (found at JSON ``path``) into spec class ``cls``."""
    where = path or cls.__name__.lower()
    if type(payload) is not dict:
        raise ScenarioError(f"{where}: expected an object, got {type(payload).__name__}")
    schema = _schema(cls)
    unknown = payload.keys() - schema.by_key.keys()
    if cls._format:
        fmt = payload.get("format")
        if fmt != cls._format:
            raise ScenarioError(f"{where}: unsupported format {fmt!r} (want {cls._format!r})")
        unknown.discard("format")
    if unknown:
        raise _unknown(unknown, where)
    kwargs = {}
    for key, field in schema.by_key.items():
        if key in payload:
            kwargs[field.name] = field.decode(payload[key], _at(path, key))
        elif field.default is dataclasses.MISSING:
            raise ScenarioError(f"{_at(path, key)}: required field is missing")
    spec = cls(**kwargs)
    always, when_set = spec._emits()
    unknown = kwargs.keys() - {*always, *when_set}
    if unknown:
        raise _unknown((schema.by_name[name].key for name in unknown), where)
    return spec
