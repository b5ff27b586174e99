"""Flat key=value configuration files and their coercion into dataclasses.

One assignment per line, `#` starts a comment, blank lines ignored. Keys
are namespaced by prefix (arch.*, train.*). fields_from_mapping parses each
value from the annotated type of the field it sets: int, float or str; a
tuple, items joined by "," (by ";" when the items are tuples themselves);
a dataclass, fields joined by ":". A fixed-length tuple or a dataclass
with the wrong number of items is a ValueError naming the key.
fields_to_mapping formats the other way.
"""

import dataclasses
import typing


def parse_config_text(text: str, source="<config>") -> dict:
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ValueError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        if key.strip() in mapping:
            raise ValueError(f"{source}:{lineno}: duplicate key {key.strip()!r}")
        mapping[key.strip()] = value.strip()
    return mapping


def load_config(path) -> dict:
    with open(path) as f:
        return parse_config_text(f.read(), source=str(path))


def parse_assignments(items) -> dict:
    """key=value override flags, later ones winning."""
    mapping = {}
    for item in items or ():
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ValueError(f"override must look like key=value, got {item!r}")
        mapping[key] = value
    return mapping


def merged(*mappings) -> dict:
    out = {}
    for m in mappings:
        out.update(m)
    return out


def _layout(kind):
    """(separator, item types) of a compound type; item types is None for a
    tuple of any length."""
    if dataclasses.is_dataclass(kind):
        return ":", [f.type for f in dataclasses.fields(kind)]
    args = typing.get_args(kind)
    if args[-1] is Ellipsis:
        return (";" if typing.get_origin(args[0]) is tuple else ","), None
    return ",", args


def _parse(kind, raw):
    if kind in (int, float, str):
        return kind(raw)
    sep, types = _layout(kind)
    if types is None:
        items = [part for part in raw.split(sep) if part]
        types = [typing.get_args(kind)[0]] * len(items)
    else:
        items = raw.split(sep)
        if len(items) != len(types):
            raise ValueError(f"expected {len(types)} values joined by {sep!r}, "
                             f"got {raw!r}")
    values = [_parse(t, item) for t, item in zip(types, items)]
    return kind(*values) if dataclasses.is_dataclass(kind) else tuple(values)


def _format(kind, value):
    if kind in (int, float, str):
        return str(value)
    sep, types = _layout(kind)
    items = dataclasses.astuple(value) if dataclasses.is_dataclass(kind) else value
    types = types or [typing.get_args(kind)[0]] * len(items)
    return sep.join(_format(t, item) for t, item in zip(types, items))


def fields_from_mapping(base, mapping, prefix, what):
    """A copy of the dataclass instance base with every key of mapping that
    starts with prefix parsed into the field it names."""
    kinds = {f.name: f.type for f in dataclasses.fields(base)}
    changes = {}
    for key, raw in mapping.items():
        if not key.startswith(prefix):
            continue
        name = key[len(prefix):]
        if name not in kinds:
            raise ValueError(f"unknown {what} key {key!r}")
        try:
            changes[name] = _parse(kinds[name], raw)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    return dataclasses.replace(base, **changes)


def fields_to_mapping(obj, prefix) -> dict:
    """Every field of a dataclass instance as prefix + name -> string."""
    return {prefix + f.name: _format(f.type, getattr(obj, f.name))
            for f in dataclasses.fields(obj)}
