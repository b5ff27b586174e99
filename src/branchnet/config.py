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
way; comments and blank lines are handled as in a config file. A line
cannot hold an empty field, so a trailing str field whose dataclass
default is "" is optional: omitted, it takes that default, and
format_records omits it when it is empty. A line with the wrong number of
fields or a bad value is a ValueError naming source:line. format_records
writes the lines parse_records reads back.
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
    least = len(_stated(dataclasses.fields(kind), lambda f: f.default))
    records = []
    for lineno, _, line in _lines(text):
        try:
            records.append(_compose(kind, types, line.split(),
                                    "separated by whitespace", line, least))
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: {exc}") from None
    return records


def format_records(records) -> str:
    """The text parse_records reads back as records: one line each."""
    return "".join(" ".join(_format(f.type, getattr(record, f.name))
                            for f in _stated(dataclasses.fields(record),
                                             lambda f: getattr(record, f.name)))
                   + "\n" for record in records)


def _stated(fields, value):
    """fields less the trailing str fields for which value(field) is "",
    which a line of whitespace-separated fields cannot hold."""
    fields = list(fields)
    while fields and fields[-1].type is str and value(fields[-1]) == "":
        fields.pop()
    return fields


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


def _compose(kind, types, items, joined, raw, least=None):
    """A tuple or dataclass instance from one item per type, or from one
    item for each of the first `least` types or more, the rest left to the
    dataclass's defaults."""
    least = len(types) if least is None else least
    if not least <= len(items) <= len(types):
        expected = (len(types) if least == len(types)
                    else f"{least} to {len(types)}")
        raise ValueError(f"expected {expected} values {joined}, got {raw!r}")
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


def check_ranges(obj, ranges):
    """ValueError naming the first field of obj outside its range, an
    interval such as "[0, 1)" or "(0, inf)"; nan is outside every range."""
    for name, interval in ranges.items():
        value = getattr(obj, name)
        lo, hi = (float(bound) for bound in interval[1:-1].split(","))
        if not ((value >= lo if interval[0] == "[" else value > lo) and
                (value <= hi if interval[-1] == "]" else value < hi)):
            raise ValueError(f"{name} must lie in {interval}, got {value!r}")


def fields_to_mapping(obj, prefix) -> dict:
    """Every field of a dataclass instance as prefix + name -> string."""
    return {prefix + f.name: _format(f.type, getattr(obj, f.name))
            for f in dataclasses.fields(obj)}
