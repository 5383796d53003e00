"""Fuzz tests of the text boundaries: a sweep.csv read by `landmarks`, config text, and `run`.

Every input must end in a documented exit code or a ConfigError, never a
traceback; the suite turns any warning into an error, so a numpy warning
fails too. A fuzzed `run` is bounded in points x (1 + resamples), so that a
tomography block cannot run for minutes.
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from belldyn.cli import SWEEP_COLUMNS, main
from belldyn.config import parse_config_lines
from belldyn.errors import ConfigError

_FUZZ = settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])

_HEADER = ",".join(SWEEP_COLUMNS) + "\n"

#: rows that are close to numeric, so that most inputs reach the number parser and the landmarks
_ROWS = st.text(alphabet="0123456789.,-+e\n\r \"#naif\t", max_size=400)

_SWEEP_BYTES = st.one_of(
    st.binary(max_size=300),
    _ROWS.map(lambda rows: (_HEADER + rows).encode()),
    st.binary(max_size=60).map(lambda raw: _HEADER.encode() + raw),
    st.lists(st.lists(st.floats(width=32), min_size=11, max_size=11), min_size=1, max_size=30).map(
        lambda rows: (_HEADER + "".join(",".join(map(repr, r)) + "\n" for r in rows)).encode()
    ),
)


@_FUZZ
@given(data=_SWEEP_BYTES)
def test_landmarks_on_arbitrary_bytes_ends_in_an_exit_code(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz-sweep.csv"
    path.write_bytes(data)
    assert main(["landmarks", str(path)]) in (0, 1, 2, 3)


_SCALAR_KEYS = ("name", "x_a", "filter_a", "x_b_max", "step", "lambda0", "echo_points",
                "tomo_counts", "tomo_resamples", "tomo_seed")
_KEYS = _SCALAR_KEYS + ("component", "bogus")
_BASE = {"x_a": "117", "filter_a": "3", "x_b_max": "40", "step": "4"}
_VALUES = st.one_of(
    st.text(max_size=20),
    st.text(alphabet="0123456789.,-+einfa ", max_size=20),
    st.floats().map(repr),
    st.lists(st.floats(min_value=0, max_value=1000).map(repr), max_size=3).map(", ".join),
)
_LINES = st.one_of(
    st.text(max_size=40),
    st.sampled_from(["[spectrum_b]", "[other]", "# comment", ""]),
    st.tuples(st.sampled_from(_KEYS), _VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}"),
)

_COMPONENTS = st.one_of(
    st.just("1.0, 780.16, 0.85"),
    st.lists(st.floats(), min_size=3, max_size=3).map(lambda c: ", ".join(map(repr, c))),
    _VALUES,
)
#: a valid config with some values replaced, so that inputs reach the range checks
_NEAR_VALID = st.tuples(
    st.dictionaries(st.sampled_from(_SCALAR_KEYS), _VALUES, max_size=3),
    st.lists(_COMPONENTS, min_size=1, max_size=2),
).map(lambda parts: [f"{k} = {v}" for k, v in {**_BASE, **parts[0]}.items()]
      + ["[spectrum_b]"] + [f"component = {c}" for c in parts[1]])


@_FUZZ
@given(lines=st.one_of(st.lists(_LINES, max_size=15), _NEAR_VALID))
def test_parse_config_lines_returns_or_raises_config_error(lines):
    try:
        parse_config_lines(lines)
    except ConfigError:
        pass


#: any positive finite float, subnormals included, or a whole number up to the counts cap
_FINITE = st.floats(min_value=5e-324, max_value=1e308)
_VALUES = _FINITE | st.integers(1, 10**15).map(float)

_VALID = {"x_a": 117.0, "filter_a": 3.0, "x_b_max": 8.0, "step": 4.0, "lambda0": 780.0}
_TOMO = {"tomo_counts": 100.0, "tomo_resamples": 2.0, "tomo_seed": 0.0}

#: the largest points x (1 + resamples) a fuzzed run may ask for, so that the test stays short
_MAX_WORK = 60


@st.composite
def _run_configs(draw):
    """A valid run config, 1-3 components with or without tomography, with up to three of its
    values replaced; keys are config keys or (component index, field index)."""
    n = draw(st.integers(1, 3))
    values = {**_VALID, **(_TOMO if draw(st.booleans()) else {})}
    values.update({(i, j): v for i in range(n) for j, v in enumerate((1.0 / n, 780.16, 0.85))})
    for key in draw(st.lists(st.sampled_from(list(values)), max_size=3, unique=True)):
        values[key] = draw(_VALUES)
    return values, draw(st.lists(_FINITE, max_size=2))


def _run_config_text(values, echo_points):
    n = max(key[0] for key in values if isinstance(key, tuple)) + 1
    return "".join(
        [f"{key} = {value!r}\n" for key, value in values.items() if isinstance(key, str)]
        + ["echo_points = " + ", ".join(map(repr, echo_points)) + "\n", "[spectrum_b]\n"]
        + [f"component = {values[i, 0]!r}, {values[i, 1]!r}, {values[i, 2]!r}\n" for i in range(n)]
    )


@_FUZZ
@given(config=_run_configs())
def test_run_on_near_valid_configs_ends_in_an_exit_code(tmp_path_factory, config):
    values, echo_points = config
    assume(values["x_b_max"] / values["step"] * (1.0 + values.get("tomo_resamples", 0.0))
           <= _MAX_WORK)
    base = tmp_path_factory.getbasetemp()
    path = base / "fuzz-run.cfg"
    path.write_text(_run_config_text(values, echo_points))
    assert main(["run", str(path), "--out", str(base / "fuzz-run")]) in (0, 1, 2, 3)
