"""The one-pass report writer against json.dumps and against the json.dump writer it replaced."""

import functools
import io
import json
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from quadriclab import cli
from quadriclab.cli import main, report_text
from references import ref_write_report

EDGE_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1e16, 1e-5, 1.5, -2.0**-1074, 1.7976931348623157e308]
EDGE_INTS = [0, 1, -1, 10**40, -(10**40), 2**63, -(2**63) - 1]
# quotes, backslashes, control characters, non-ASCII and astral characters
EDGE_TEXT = ['', '"', "\\", "\n\t\r\x00\x1f\x7f", "é", "ß ", "\U0001f600", 'a"b\\c', "/"]

leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from(EDGE_INTS),
    st.floats(),
    st.sampled_from(EDGE_FLOATS),
    st.text(),
    st.sampled_from(EDGE_TEXT),
)
keys = st.one_of(st.text(), st.sampled_from(EDGE_TEXT))


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        # a list of plain floats is the writer's one-join case, with and without non-finite entries
        st.lists(st.floats(), max_size=6),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6),
        st.dictionaries(keys, children, max_size=5),
        # non-str keys json turns into text: one kind per dict, as sort_keys needs
        st.dictionaries(st.integers(), children, max_size=3),
        st.dictionaries(st.floats(allow_nan=False), children, max_size=3),
        st.dictionaries(st.booleans(), children, max_size=2),
        st.dictionaries(st.none(), children, max_size=1),
    )


payloads = st.recursive(leaves, containers, max_leaves=25)


class TestReportText:
    @settings(max_examples=300, deadline=None)
    @given(payloads)
    @example([True, 1, False, 0, None, 1.0, 0.0])
    @example({"a": [], "b": {}, "c": [[], {}], "d": [{"e": []}]})
    @example({"": {"": [[[]]]}})
    @example([[float("nan"), 1.0], [float("inf"), -float("inf")], [-0.0, 5e-324, 1e16, 1e-5]])
    @example({'k"\\\n\x01é': 'v"\\\n\x01é\U0001f600'})
    @example({1: "a", 2: "b", 10: "c"})
    @example({1.5: 1, float("inf"): 2, -float("inf"): 3, -0.0: 4})
    @example({True: True, False: False})
    @example({None: None})
    @example(10**100)
    # 60 containers deep, past any depth a report reaches
    @example(functools.reduce(lambda inner, depth: {str(depth): [inner, float(depth)]}, range(30), -0.0))
    @example("plain")
    def test_matches_json_dumps(self, payload):
        assert report_text(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_int_and_float_subclasses_write_as_their_values(self):
        # json writes float.__repr__ / int.__repr__ of a subclass, not its own repr
        class Loud(float):
            def __repr__(self):
                return "loud"

        class Count(int):
            def __repr__(self):
                return "count"

        payload = {"f": Loud(0.1), "fs": [Loud(2.0), Loud(float("nan"))], "i": Count(7), "k": {Count(3): Loud(1.0)}}
        assert report_text(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("payload", [{"a": {1, 2}}, [object()], {(1, 2): 3}])
    def test_rejects_what_json_rejects(self, payload):
        with pytest.raises(TypeError):
            json.dumps(payload, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            report_text(payload)


CONFIGS = [
    ["--example", "sphere", "--n", "3"],
    ["--example", "product", "--n", "2"],
    ["--example", "product", "--n", "3"],
    ["--example", "cartan", "--n", "3"],
    ["--example", "rotational", "--n", "3"],
    ["--example", "rotational", "--n", "4"],
]
REPORT_RUNS = (
    [
        [command, *config, "--grid", grid, "--gauge", gauge]
        for command, grid in (("verify", "3"), ("angles", "12"))
        for config in CONFIGS
        for gauge in ("normalized", "canonical")
    ]
    + [["ode", "--n", n] for n in ("3", "4", "5")]
)


@pytest.mark.parametrize("argv", REPORT_RUNS, ids=[" ".join(argv) for argv in REPORT_RUNS])
def test_report_bytes_match_json_dump_writer(tmp_path, monkeypatch, argv):
    # both writers receive the same payload and the same timestamp
    monkeypatch.setattr(time, "strftime", lambda fmt: "2001-02-03T04:05:06")
    written = []
    write_report = cli.write_report

    def both(cfg, payload):
        written.append(ref_write_report(str(tmp_path / "ref"), cfg.command, cfg.example, payload))
        path = write_report(cfg, payload)
        written.append(path)
        return path

    monkeypatch.setattr(cli, "write_report", both)
    assert main(argv + ["--out", str(tmp_path / "new")]) == 0
    want, got = (open(path, "rb").read() for path in written)
    assert got == want


class _CountingFile:
    """A file whose write calls are counted per path."""

    def __init__(self, fh, counts, path):
        self._fh, self._counts, self._path = fh, counts, path

    def write(self, text):
        self._counts[self._path] += 1
        return self._fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


ONE_WRITE_RUNS = [
    ["verify", "--grid", "3"],
    ["angles", "--example", "cartan", "--grid", "12"],
    ["ode", "--steps", "1000"],
]


@pytest.mark.parametrize("argv", ONE_WRITE_RUNS)
def test_one_write_per_report(tmp_path, monkeypatch, argv):
    # json.dump wrote a report in hundreds of chunks; the writer builds its
    # text first and writes it once
    counts = {}

    def counting_open(path, *args, **kwargs):
        counts[path] = 0
        return _CountingFile(open(path, *args, **kwargs), counts, path)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    assert main(argv + ["--out", str(tmp_path)]) == 0
    reports = {path: n for path, n in counts.items() if path.endswith("_report.json")}
    assert list(reports.values()) == [1]


@pytest.mark.parametrize("argv", ONE_WRITE_RUNS)
def test_one_stdout_write_per_call(tmp_path, monkeypatch, argv):
    # main joins its stdout lines and writes them once; angles printed one
    # line per sample point
    counts = {"stdout": 0}
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", _CountingFile(out, counts, "stdout"))
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert counts["stdout"] == 1
    assert out.getvalue().startswith("PASS: ") and out.getvalue().count("\n") == (14 if argv[0] == "angles" else 1)
