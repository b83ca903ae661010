"""A tiny hand-rolled YAML-subset parser and serializer.

Scenario files need exactly four things: nested mappings, lists of
scalars, scalars with obvious types, and comments.  This module
implements that subset — nothing else — so the repo stays free of
third-party dependencies while scenario authors still write ordinary
YAML:

.. code-block:: yaml

    scenario: pipeline-time-crash     # comments anywhere
    workload:
      recipe: pipeline
      params:
        stages: 3
        items: 10
    sweep:
      kinds: [time_crash, sync_crash] # inline scalar lists
    tags:
      - smoke                         # block scalar lists
      - crash

Supported:

* mappings nested by indentation (spaces only, any consistent width);
* lists of scalars — block form (``- item``) and inline form
  (``[a, b, c]``);
* scalars: ``null``/``~``, ``true``/``false``, integers (with ``_``
  separators), floats (including scientific notation), single- and
  double-quoted strings, bare strings;
* full-line and trailing ``#`` comments (a ``#`` inside quotes is
  content, not a comment).

Deliberately *not* supported (use the Python API for anything this
exotic): anchors/aliases, multi-document streams, flow mappings,
block scalars (``|``/``>``), tabs in indentation, lists of mappings,
unbalanced inline lists (``[a, b`` or ``a]``), unterminated quoted
strings (``"abc`` or ``'abc``).
Unsupported constructs fail loudly with a line number, never parse as
something silently different.

Round-trip: :func:`dumps` emits this same subset, and
``loads(dumps(value)) == value`` for any value built from dicts, lists
of scalars, and scalars (the schema round-trip test pins this).
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Tuple, Union

Scalar = Union[None, bool, int, float, str]


class YamlError(ValueError):
    """A parse error, carrying the offending line number."""

    def __init__(self, message: str, line: Optional[int] = None,
                 source: str = "") -> None:
        where = f"{source or 'input'}" + (f":{line}" if line else "")
        super().__init__(f"{where}: {message}")
        self.line = line


_INT_RE = re.compile(r"^[+-]?[0-9][0-9_]*$")
_FLOAT_RE = re.compile(
    r"^[+-]?(?:[0-9][0-9_]*\.[0-9_]*|\.[0-9]+|[0-9][0-9_]*)"
    r"(?:[eE][+-]?[0-9]+)?$")


def _parse_scalar(text: str, line: int, source: str) -> Scalar:
    text = text.strip()
    if text in ("null", "~", "Null", "NULL"):
        return None
    if text in ("true", "True", "TRUE"):
        return True
    if text in ("false", "False", "FALSE"):
        return False
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        body = text[1:-1]
        if text[0] == '"':
            body = (body.replace("\\\\", "\0")
                        .replace('\\"', '"')
                        .replace("\\n", "\n")
                        .replace("\\t", "\t")
                        .replace("\0", "\\"))
        return body
    if text[:1] in ("'", '"'):
        raise YamlError(f"unterminated quoted scalar {text[:20]!r}", line,
                        source)
    if _INT_RE.match(text):
        return int(text.replace("_", ""))
    if _FLOAT_RE.match(text) and any(c in text for c in ".eE"):
        return float(text.replace("_", ""))
    if text.startswith("[") or text.count("[") != text.count("]"):
        raise YamlError(f"unbalanced inline list {text[:20]!r}", line,
                        source)
    for forbidden in ("{", "}", "&", "*", "|", ">"):
        if text.startswith(forbidden):
            raise YamlError(
                f"unsupported YAML construct {text[:20]!r} (this "
                f"loader covers mappings, scalar lists and scalars "
                f"only)", line, source)
    return text


def _strip_comment(text: str) -> str:
    """Drop a trailing ``#`` comment, honoring quotes."""
    quote: Optional[str] = None
    for index, char in enumerate(text):
        if quote:
            if char == quote:
                quote = None
        elif char in "'\"":
            quote = char
        elif char == "#" and (index == 0 or text[index - 1] in " \t"):
            return text[:index].rstrip()
    return text.rstrip()


def _parse_inline_list(text: str, line: int,
                       source: str) -> List[Scalar]:
    body = text[1:-1].strip()
    if not body:
        return []
    items: List[str] = []
    current = ""
    quote: Optional[str] = None
    for char in body:
        if quote:
            current += char
            if char == quote:
                quote = None
        elif char in "'\"":
            current += char
            quote = char
        elif char == ",":
            items.append(current)
            current = ""
        elif char in "[{":
            raise YamlError("nested inline collections are not "
                            "supported", line, source)
        else:
            current += char
    items.append(current)
    if quote:
        raise YamlError("unterminated quote in inline list", line,
                        source)
    return [_parse_scalar(item, line, source) for item in items]


def _parse_value(text: str, line: int, source: str) -> Any:
    if text.startswith("[") and text.endswith("]"):
        return _parse_inline_list(text, line, source)
    return _parse_scalar(text, line, source)


#: (indent, content, line number) triples of the non-blank lines.
_Line = Tuple[int, str, int]


def _logical_lines(text: str, source: str) -> List[_Line]:
    lines: List[_Line] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment(raw)
        if not stripped.strip():
            continue
        indent = len(stripped) - len(stripped.lstrip(" "))
        content = stripped.strip()
        if "\t" in raw[:len(raw) - len(raw.lstrip())]:
            raise YamlError("tabs are not allowed in indentation",
                            number, source)
        lines.append((indent, content, number))
    return lines


_KEY_RE = re.compile(r"^(?P<key>[A-Za-z0-9_.\-]+|'[^']*'|\"[^\"]*\")"
                     r"\s*:(?:\s+|$)")


def _split_key(content: str, line: int,
               source: str) -> Optional[Tuple[str, str]]:
    """``key: rest`` -> (key, rest); None when not a mapping line."""
    match = _KEY_RE.match(content)
    if not match:
        return None
    key = match.group("key")
    if key[0] in "'\"":
        key = key[1:-1]
    return key, content[match.end():].strip()


class _Parser:
    def __init__(self, lines: List[_Line], source: str) -> None:
        self.lines = lines
        self.source = source
        self.position = 0

    def peek(self) -> Optional[_Line]:
        if self.position < len(self.lines):
            return self.lines[self.position]
        return None

    def parse_block(self, indent: int) -> Any:
        """Parse the block whose lines are indented exactly ``indent``."""
        entry = self.peek()
        assert entry is not None
        if entry[1].startswith("- ") or entry[1] == "-":
            return self.parse_list(indent)
        return self.parse_mapping(indent)

    def parse_list(self, indent: int) -> List[Scalar]:
        items: List[Scalar] = []
        while True:
            entry = self.peek()
            if entry is None or entry[0] != indent:
                break
            line_indent, content, number = entry
            if not (content.startswith("- ") or content == "-"):
                raise YamlError("expected a '- ' list item here "
                                "(mixing mapping keys and list items "
                                "in one block)", number, self.source)
            body = content[1:].strip()
            if not body:
                raise YamlError("empty list items are not supported",
                                number, self.source)
            if _split_key(body, number, self.source) is not None:
                raise YamlError("lists of mappings are not supported "
                                "by this YAML subset", number,
                                self.source)
            self.position += 1
            items.append(_parse_value(body, number, self.source))
        return items

    def parse_mapping(self, indent: int) -> Dict[str, Any]:
        mapping: Dict[str, Any] = {}
        while True:
            entry = self.peek()
            if entry is None:
                break
            line_indent, content, number = entry
            if line_indent < indent:
                break
            if line_indent > indent:
                raise YamlError(
                    f"unexpected indent (expected {indent} spaces, "
                    f"got {line_indent})", number, self.source)
            split = _split_key(content, number, self.source)
            if split is None:
                raise YamlError(
                    f"expected 'key: value', got {content!r}", number,
                    self.source)
            key, rest = split
            if key in mapping:
                raise YamlError(f"duplicate key {key!r}", number,
                                self.source)
            self.position += 1
            if rest:
                mapping[key] = _parse_value(rest, number, self.source)
                continue
            child = self.peek()
            if child is None or child[0] <= indent:
                mapping[key] = None  # `key:` with nothing nested
                continue
            mapping[key] = self.parse_block(child[0])
        return mapping


def loads(text: str, source: str = "") -> Any:
    """Parse a scenario document; the top level must be a mapping
    (or empty, which parses to ``{}``)."""
    lines = _logical_lines(text, source)
    if not lines:
        return {}
    first_indent = lines[0][0]
    if first_indent != 0:
        raise YamlError("top-level content must start at column 0",
                        lines[0][2], source)
    parser = _Parser(lines, source)
    value = parser.parse_block(0)
    remaining = parser.peek()
    if remaining is not None:
        raise YamlError(f"unexpected content {remaining[1]!r}",
                        remaining[2], source)
    return value


def load_file(path: str) -> Any:
    with open(path) as handle:
        return loads(handle.read(), source=path)


# ----------------------------------------------------------------------
# serialization (the round-trip half)
# ----------------------------------------------------------------------

_BARE_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_.\-]*$")


def _format_scalar(value: Scalar) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if _BARE_RE.match(value) and value not in (
            "null", "true", "false", "Null", "True", "False"):
        return value
    escaped = value.replace("\\", "\\\\").replace('"', '\\"') \
                   .replace("\n", "\\n").replace("\t", "\\t")
    return f'"{escaped}"'


def dumps(value: Any, _indent: int = 0) -> str:
    """Serialize dicts / scalar lists / scalars back into the subset."""
    if not isinstance(value, dict):
        raise YamlError("only mappings can be serialized at the top "
                        "level")
    lines: List[str] = []
    _dump_mapping(value, 0, lines)
    return "\n".join(lines) + "\n"


def _dump_mapping(mapping: Dict[str, Any], indent: int,
                  lines: List[str]) -> None:
    pad = " " * indent
    for key, value in mapping.items():
        if not isinstance(key, str):
            raise YamlError(f"mapping keys must be strings, "
                            f"got {key!r}")
        if isinstance(value, dict):
            if not value:
                raise YamlError(f"empty mappings are not serializable "
                                f"(key {key!r})")
            lines.append(f"{pad}{key}:")
            _dump_mapping(value, indent + 2, lines)
        elif isinstance(value, (list, tuple)):
            items = ", ".join(_format_scalar(item) for item in value)
            lines.append(f"{pad}{key}: [{items}]")
        else:
            lines.append(f"{pad}{key}: {_format_scalar(value)}")
