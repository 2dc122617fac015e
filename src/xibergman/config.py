"""Typed reading of the JSON configs: readers and key tables.

A reader takes one JSON value and returns what it means, or raises
``ConfigError``.  A ``Table`` is the reader of a JSON object: it maps each
key the object may hold to the reader of its value, refuses unknown and
missing keys, and builds the object's meaning from the values read.  Each
command (``cli``), weight variant (``weights``), polynomial and family
(``family``), functional (``functional``), ideal (``ideal``) and quadrature
rule (``bergman``) has one table beside the object it builds, and a config
is read by one walk of its command's table.  One naming rule ties a key to
the attribute that holds its value, ``zArity`` to ``z_arity``
(``_attribute``, and ``_key`` back), so a table also writes its object.
This module imports nothing from the package, so every layer can use it.

Numbers are strict.  An integer slot takes a JSON integer, and a real slot a
finite JSON number (an integer too); neither takes a bool or a string.  A
complex number is a real number or an ``[re, im]`` pair of them.  Term
lists key their terms by a multi-index, and a repeated multi-index is
refused.  The key path of a value that cannot be read (``weight.g[1].re``)
is gathered as its error passes up through the tables, so a config that
reads cleanly builds no path strings.
"""

from __future__ import annotations

import sys

_MAX = sys.float_info.max


class ConfigError(ValueError):
    """A config that cannot be read: an unknown or missing key, or a value
    of the wrong JSON type.  ``path`` holds the keys and list indices from
    the config root to the value."""

    def __init__(self, message: str, path=()):
        super().__init__(message)
        self.path = list(path)

    def __str__(self) -> str:
        where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                        for k in self.path).lstrip(".")
        return f"{where}: {self.args[0]}" if where else self.args[0]


def integer(x) -> int:
    """A JSON integer, not a bool."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ConfigError(f"expected an integer, got {x!r}")
    return x


def real(x) -> float:
    """A finite JSON number, not a bool, as a float."""
    # the range test is false for NaN, the infinities and integers too large
    # for a float
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not -_MAX <= x <= _MAX:
        raise ConfigError(f"expected a finite number, got {x!r}")
    return float(x)


def cx(x) -> complex:
    """A real number or an ``[re, im]`` pair of them, as a complex number."""
    if isinstance(x, (list, tuple)) and len(x) == 2:
        return complex(*reals(x))
    if isinstance(x, (int, float)):
        return complex(real(x))
    raise ConfigError(f"expected a number or an [re, im] pair, got {x!r}")


def flag(x) -> bool:
    """A JSON true or false."""
    if not isinstance(x, bool):
        raise ConfigError(f"expected true or false, got {x!r}")
    return x


def choice(*options):
    """The reader of one of the given strings."""
    def read(x):
        if isinstance(x, str) and x in options:
            return x
        raise ConfigError(f"expected one of {list(options)}, got {x!r}")
    return read


def list_of(read):
    """The reader of a JSON list whose items ``read`` reads, as a tuple."""
    def read_list(x):
        if not isinstance(x, (list, tuple)):
            raise ConfigError(f"expected a list, got {x!r}")
        out = []
        try:
            for v in x:
                out.append(read(v))
        except ConfigError as exc:
            exc.path.insert(0, len(out))  # the index of the item that failed
            raise
        return tuple(out)
    return read_list


reals = list_of(real)
point = list_of(cx)  # a point: one complex number per coordinate
multi_index = list_of(integer)


def _attribute(key: str) -> str:
    """The attribute that holds the value of a JSON key: zArity is z_arity."""
    return "".join("_" + c.lower() if c.isupper() else c for c in key)


def _key(attribute: str) -> str:
    """The JSON key of an attribute, the inverse of ``_attribute``."""
    head, *rest = attribute.split("_")
    return head + "".join(map(str.capitalize, rest))


class Table:
    """The reader of a JSON object.  ``keys`` maps each key to its reader,
    or, for an optional key, to the pair (reader, value when absent).
    ``build``, if given, makes the object's meaning from the values of the
    keys, in the order of ``keys``; without it the meaning is the dict of
    the values by key.  ``names`` pairs each key with its attribute."""

    def __init__(self, keys: dict, build=None):
        self.order = tuple(keys)
        self.names = tuple((k, _attribute(k)) for k in keys)
        self.readers = {k: r[0] if isinstance(r, tuple) else r
                        for k, r in keys.items()}
        self.defaults = {k: r[1] for k, r in keys.items() if isinstance(r, tuple)}
        self.build = build

    def __call__(self, x):
        if not isinstance(x, dict):
            raise ConfigError(f"expected an object, got {x!r}")
        readers, values = self.readers, self.defaults.copy()
        for k, v in x.items():
            read = readers.get(k)
            if read is None:
                raise ConfigError(f"unknown keys {sorted(x.keys() - readers.keys())}")
            try:
                values[k] = read(v)
            except ConfigError as exc:
                exc.path.insert(0, k)
                raise
        if len(values) < len(readers):  # only a required key can be absent
            raise ConfigError(f"missing keys {sorted(readers.keys() - values.keys())}")
        return values if self.build is None else self.build(*map(values.get, self.order))


def variants(**tables: Table):
    """The reader of a JSON object whose ``"variant"`` key names the table
    that reads it; ``tables`` holds those tables by variant."""
    for table in tables.values():
        table.readers["variant"] = str  # read below; not passed to build
        table.names += (("variant", "variant"),)

    def read(x):
        name = x.get("variant") if isinstance(x, dict) else None
        if not isinstance(name, str) or name not in tables:
            raise ConfigError(f"unknown variant {name!r}: expected an object "
                              f"whose variant is one of {sorted(tables)}")
        return tables[name](x)
    read.tables = tables
    return read


def terms(index: str, keys: dict, build):
    """The reader of a term list: JSON objects that hold a multi-index under
    ``index`` and the keys of ``keys``.  It returns {multi-index: build of
    the term's other values}, in the order of the list, and refuses a
    repeated multi-index."""
    read_list = list_of(Table({index: multi_index, **keys},
                              lambda alpha, *rest: (alpha, build(*rest))))

    def read(x):
        out = {}
        for i, (alpha, value) in enumerate(read_list(x)):
            if alpha in out:
                raise ConfigError(f"repeated multi-index {list(alpha)}",
                                  [i, index])
            out[alpha] = value
        return out
    return read


def coefficients(index: str):
    """The reader of a sparse polynomial's terms ``{index: [...], "re": x,
    "im": y}`` ("im" defaults to 0), as {multi-index: complex}."""
    return terms(index, {"re": real, "im": (real, 0.0)}, complex)
