"""Flat key=value configuration files, record files, and their coercion
into dataclasses.

One assignment per line, `#` starts a comment, blank lines ignored. Keys
are namespaced by prefix (arch.*, train.*). fields_from_mapping parses each
value from the annotated type of the field it sets: int, float or str; a
tuple, items joined by "," (by ";" when the items are tuples themselves);
a dataclass, fields joined by ":". A fixed-length tuple or a dataclass
with the wrong number of items is a ValueError naming the key.
fields_to_mapping formats the other way.

A record file (the branch-grid task table, a bundle's heads.txt, the
verification pairs) holds one dataclass instance per line, its fields
separated by whitespace and each parsed from its annotated type the same
way; comments and blank lines are handled as in a config file. A line with
the wrong number of fields or a bad value is a ValueError naming
source:line.
"""

import dataclasses
import typing


def _lines(text):
    """(line number, raw line, content) of each line that holds more than
    a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, raw, line


def parse_config_text(text: str, source="<config>") -> dict:
    mapping = {}
    for lineno, raw, line in _lines(text):
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


def parse_records(kind, text: str, source="<records>") -> list:
    """One instance of the dataclass kind per line of text."""
    types = [f.type for f in dataclasses.fields(kind)]
    records = []
    for lineno, _, line in _lines(text):
        try:
            records.append(_compose(kind, types, line.split(),
                                    "separated by whitespace", line))
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: {exc}") from None
    return records


def load_records(kind, path) -> list:
    with open(path) as f:
        return parse_records(kind, f.read(), source=str(path))


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


def parse_value(kind, raw: str):
    """raw parsed as the type kind, as a config value of that type is."""
    if kind in (int, float, str):
        return kind(raw)
    sep, types = _layout(kind)
    if types is None:
        items = [part for part in raw.split(sep) if part]
        types = [typing.get_args(kind)[0]] * len(items)
    else:
        items = raw.split(sep)
    return _compose(kind, types, items, f"joined by {sep!r}", raw)


def _compose(kind, types, items, joined, raw):
    """A tuple or dataclass instance from one item per type."""
    if len(items) != len(types):
        raise ValueError(f"expected {len(types)} values {joined}, got {raw!r}")
    values = [parse_value(t, item) for t, item in zip(types, items)]
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
            changes[name] = parse_value(kinds[name], raw)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    return dataclasses.replace(base, **changes)


def fields_to_mapping(obj, prefix) -> dict:
    """Every field of a dataclass instance as prefix + name -> string."""
    return {prefix + f.name: _format(f.type, getattr(obj, f.name))
            for f in dataclasses.fields(obj)}
