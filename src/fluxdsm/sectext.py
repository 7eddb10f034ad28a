"""Line-anchored parser for the sectioned key=value config format.

The format is deliberately tiny:

    # comment
    [section]
    key = value   # comment

'#' starts a comment that runs to the end of the line, and blank
lines are ignored; content_lines applies that rule to config and
schedule files alike. Keys are lowercase
identifiers. Every entry must live inside a section. Errors carry the
1-based line number they were found on so the CLI can print
"file:line: message" and callers can distinguish syntax problems from
unknown keys.
"""

import math
import re
from dataclasses import dataclass, field

from .errors import ConfigSyntaxError, UnknownKeyError, ConfigError

_SECTION_RE = re.compile(r"^\[([a-z0-9_-]+)\]$")
_KEY_RE = re.compile(r"^[a-z0-9_.-]+$")


def finite_float(text):
    """float(text), with nan and inf in every spelling float() takes
    raising ValueError like any other non-number."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


@dataclass
class Entry:
    key: str
    value: str
    line: int
    # set once a get_* call has returned the value
    read: bool = False


@dataclass
class Section:
    name: str
    line: int
    entries: list = field(default_factory=list)
    path: str | None = None

    def _find(self, key):
        for e in self.entries:
            if e.key == key:
                return e
        return None

    def has(self, key):
        return self._find(key) is not None

    def error(self, message):
        """A ConfigError anchored at this section's header line."""
        return ConfigError(message, line=self.line, path=self.path)

    def _get(self, key, default, convert, expects):
        """The key's value through convert; default when the key is
        absent, which is an error when default is None."""
        e = self._find(key)
        if e is None:
            if default is None:
                raise self.error(
                    f"section [{self.name}] is missing required key '{key}'")
            return default
        try:
            value = convert(e.value)
        except ValueError:
            raise ConfigError(
                f"key '{key}' expects {expects}, got '{e.value}'",
                line=e.line, path=self.path) from None
        e.read = True
        return value

    def get_str(self, key, default=None):
        return self._get(key, default, str, "text")

    def get_float(self, key, default=None):
        return self._get(key, default, finite_float, "a number")

    def get_int(self, key, default=None):
        return self._get(key, default, lambda v: int(v, 0), "an integer")

    def reject_unread(self):
        """Raise UnknownKeyError at the first entry that no get_* call
        has returned; has() alone does not count as a read."""
        for e in self.entries:
            if not e.read:
                raise UnknownKeyError(
                    f"unknown key '{e.key}' in section [{self.name}]",
                    line=e.line, path=self.path)


def content_lines(text):
    """(line number, content) of each line of text that holds more
    than a comment: '#' starts a comment that runs to the end of the
    line, and surrounding whitespace is dropped. Numbers are 1-based."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_sections(text, path=None):
    """Parse config text into an ordered list of Section objects."""
    sections = []
    seen = {}
    current = None
    for lineno, line in content_lines(text):
        if line.startswith("["):
            m = _SECTION_RE.match(line)
            if m is None:
                raise ConfigSyntaxError(
                    f"malformed section header '{line}'",
                    line=lineno, path=path)
            name = m.group(1)
            if name in seen:
                raise ConfigSyntaxError(
                    f"duplicate section [{name}] (first defined on line "
                    f"{seen[name]})", line=lineno, path=path)
            seen[name] = lineno
            current = Section(name=name, line=lineno, path=path)
            sections.append(current)
            continue
        if "=" not in line:
            raise ConfigSyntaxError(
                f"expected 'key = value', got '{line}'",
                line=lineno, path=path)
        if current is None:
            raise ConfigSyntaxError(
                "key=value entry before any [section] header",
                line=lineno, path=path)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not _KEY_RE.match(key):
            raise ConfigSyntaxError(f"invalid key '{key}'",
                                    line=lineno, path=path)
        if current.has(key):
            raise ConfigSyntaxError(
                f"duplicate key '{key}' in section [{current.name}]",
                line=lineno, path=path)
        current.entries.append(Entry(key=key, value=value, line=lineno))
    return sections


def read_config(path):
    """Text of a UTF-8 config or schedule file. Bytes that are not
    UTF-8 are a syntax error on the line they sit on; OSError from
    opening the file passes through."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigSyntaxError(
            f"invalid UTF-8 byte 0x{raw[exc.start]:02x}",
            line=raw.count(b"\n", 0, exc.start) + 1,
            path=str(path)) from None

