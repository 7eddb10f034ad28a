import pytest

from fluxdsm.errors import ConfigError, ConfigSyntaxError, UnknownKeyError
from fluxdsm.sectext import content_lines, parse_sections

GOOD = """\
# leading comment
[alpha]
x = 1.5
name = lead
flag = on

[beta]
count = 0x10
"""


def _by_name(text):
    return {s.name: s for s in parse_sections(text)}


def test_parse_and_coerce():
    secs = _by_name(GOOD)
    assert set(secs) == {"alpha", "beta"}
    a = secs["alpha"]
    assert a.get_float("x") == 1.5
    assert a.get_str("name") == "lead"
    assert a.get_str("flag") == "on"
    assert secs["beta"].get_int("count") == 16


def test_line_numbers_recorded():
    secs = _by_name(GOOD)
    assert secs["alpha"].line == 2
    entry = secs["alpha"].entries[0]
    assert (entry.key, entry.line) == ("x", 3)
    assert secs["beta"].line == 7


def test_defaults_and_missing():
    a = _by_name(GOOD)["alpha"]
    assert a.get_float("absent", 7.0) == 7.0
    assert a.has("x") and not a.has("absent")
    with pytest.raises(ConfigError, match="missing required key 'absent'"):
        a.get_float("absent")


def test_bad_number_names_key_and_line():
    sec = _by_name("[s]\nq = twelve\n")["s"]
    with pytest.raises(ConfigError, match="line 2.*'q' expects a number"):
        sec.get_float("q")


@pytest.mark.parametrize("value", ["nan", "NaN", "-nan", "inf", "-inf",
                                   "+INF", "Infinity", "-infinity", "1e999"])
def test_non_finite_number_names_key_and_line(value):
    sec = _by_name(f"[s]\nok = 1\nq = {value}\n")["s"]
    with pytest.raises(ConfigError, match="'q' expects a number") as err:
        sec.get_float("q")
    assert err.value.line == 3
    assert err.value.exit_code == 4


@pytest.mark.parametrize("text,fragment,line", [
    ("[bad header\nx = 1\n", "malformed section header", 1),
    ("x = 1\n", "before any", 1),
    ("[s]\nnot a pair\n", "expected 'key = value'", 2),
    ("[s]\nx = 1\n[s]\n", "duplicate section", 3),
    ("[s]\nx = 1\nx = 2\n", "duplicate key", 3),
    ("[s]\nBad = 1\n", "invalid key", 2),
])
def test_syntax_errors(text, fragment, line):
    with pytest.raises(ConfigSyntaxError, match=fragment) as err:
        parse_sections(text)
    assert err.value.line == line
    assert err.value.exit_code == 2


def test_reject_unread():
    sec = _by_name("[s]\ngood = 1\nbad = 2\n")["s"]
    assert sec.get_int("good") == 1
    assert sec.has("bad")  # has() is not a read
    with pytest.raises(UnknownKeyError, match="unknown key 'bad'") as err:
        sec.reject_unread()
    assert err.value.line == 3
    assert err.value.exit_code == 3
    sec.get_str("bad")
    sec.reject_unread()


def test_path_prefixes_messages():
    sec = {s.name: s
           for s in parse_sections("[s]\nq = x\n", path="cfg.txt")}["s"]
    with pytest.raises(ConfigError, match=r"cfg\.txt:2:"):
        sec.get_int("q")


def test_trailing_comments_are_dropped():
    text = "[s]  # header\nx = 1 # one\n   # whole line\n\ny=2#two\n"
    assert list(content_lines(text)) == [(1, "[s]"), (2, "x = 1"),
                                         (5, "y=2")]
    sec = _by_name(text)["s"]
    assert [(e.key, e.value, e.line) for e in sec.entries] == [
        ("x", "1", 2), ("y", "2", 5)]
