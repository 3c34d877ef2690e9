import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrmatch.config import RunConfig, format_config, load_config, parse_config, save_config
from corrmatch.errors import ConfigurationError


def test_defaults_match_canonical_values():
    c = RunConfig()
    assert (c.image_width, c.image_height) == (48, 128)
    assert (c.patch_width, c.patch_height) == (18, 24)
    assert (c.probe_stride_x, c.probe_stride_y) == (6, 8)
    assert (c.gallery_stride_x, c.gallery_stride_y) == (3, 4)
    assert c.t_c == 0.05
    assert c.t_d == 32
    assert c.epsilon == 0.2
    assert c.n_cmc == 5
    assert c.selection_count == 20
    assert c.max_iterations == 300
    assert c.kappa == -50.0
    assert c.adjacency_ranges == (1, 2, 3, 4)
    assert c.rank_points == (1, 5, 10, 15, 20, 30, 50)


def test_parse_overrides_and_comments():
    c = parse_config("""
# a comment
t_c = 0.1
seed = 42       # trailing comment
adjacency_ranges = 1,2
use_first_image = false
""")
    assert c.t_c == 0.1
    assert c.seed == 42
    assert c.adjacency_ranges == (1, 2)
    assert c.use_first_image is False
    assert c.t_d == 32  # untouched default


def test_unknown_key_rejected():
    with pytest.raises(ConfigurationError):
        parse_config("no_such_key = 3")


def test_key_set_twice_rejected():
    # The second value used to win silently.
    with pytest.raises(ConfigurationError, match=r"line 3: key 'kappa' already set on line 1"):
        parse_config("kappa = -1\nt_c = 0.1\nkappa = -2\n")


def test_bad_value_rejected():
    with pytest.raises(ConfigurationError):
        parse_config("t_c = banana")
    with pytest.raises(ConfigurationError):
        parse_config("just a line")


def test_round_trip(tmp_path):
    c = RunConfig(seed=9, epsilon=0.3, adjacency_ranges=(2, 3))
    path = tmp_path / "run.cfg"
    save_config(path, c)
    again = load_config(path)
    assert again == c


def test_format_is_parseable():
    c = RunConfig()
    assert parse_config(format_config(c)) == c


def test_grids():
    c = RunConfig()
    assert c.probe_grid().n_patches == 84
    assert c.gallery_grid().n_patches == 297


@pytest.mark.parametrize("line", ["kappa = nan", "kappa = inf", "kappa = -inf",
                                  "t_c = 1.5", "t_c = 1.0", "t_c = -0.1", "t_c = nan",
                                  "top_fraction = 0", "top_fraction = 1.5",
                                  "sigma_scale = -1", "sigma_scale = nan", "repeats = 0",
                                  "rank_points =", "rank_points = 0,5",
                                  "epsilon = 0.0", "selection_count = 7", "max_iterations = 0",
                                  "probe_stride_x = 0", "patch_width = 100", "image_width = 0",
                                  "gallery_stride_y = 5", "color_bins = 0", "gradient_bins = 0",
                                  "color_bins = -2", "adjacency_ranges =",
                                  "adjacency_ranges = 0", "tolerance = nan", "seed = -1"])
def test_out_of_range_gate_values_rejected(line):
    with pytest.raises(ConfigurationError):
        parse_config(line)


def test_gate_value_edges_accepted():
    assert parse_config("t_c = 0.0").t_c == 0.0
    assert parse_config("kappa = 0.0").kappa == 0.0


def test_cli_reports_bad_config_as_one_error_line(tmp_path, capsys):
    from corrmatch.cli import main
    path = tmp_path / "bad.cfg"
    path.write_text("kappa = nan\n")
    code = main(["synth", "--out", str(tmp_path / "data"), "--identities", "4",
                 "--config", str(path)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ConfigurationError")


def test_config_with_a_utf8_bom_loads_as_without(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("kappa = -3\nt_c = 0.1\n")
    plain = load_config(path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert load_config(path) == plain == RunConfig(kappa=-3.0, t_c=0.1)


@pytest.mark.parametrize("text, message", [
    (b"kappa = -3\nt_c = 0.\xff\n", "line 2 is not UTF-8: invalid start byte"),
    (b"kappa = -3\n# a note\nx = 3\n", "line 3: unknown key 'x'"),
    (b"t_c = 0.1\n\nt_c = 0.2\n", "line 3: key 't_c' already set on line 1"),
    (b"kappa = -3\n# a note\nt_c = banana\n", "line 3: bad value for t_c: 'banana'"),
    (b"epsilon = 2\n", ": epsilon must lie in (0, 1]"),
], ids=["not-utf8", "unknown-key", "set-twice", "bad-value", "out-of-range"])
def test_a_config_problem_names_the_file(tmp_path, text, message):
    path = tmp_path / "run.cfg"
    path.write_bytes(text)
    with pytest.raises(ConfigurationError) as caught:
        load_config(path)
    where = f"config {path}" + ("" if message.startswith(":") else " ")
    assert caught.value.args == (where + message,) and caught.value.__cause__ is None
    if b"\xff" not in text:  # the same text from no file keeps parse_config's message
        with pytest.raises(ConfigurationError) as caught:
            parse_config(text.decode())
        assert caught.value.args == (message.removeprefix(": "),)


@pytest.mark.parametrize("axis", ["x", "y"])
def test_canvas_under_two_pixels_rejected(tmp_path, capsys, axis):
    # A 1 px lattice fits, but the first image would fail inside np.gradient.
    size, patch = {"x": ("image_width", "patch_width"),
                   "y": ("image_height", "patch_height")}[axis]
    one_px = {size: 1, patch: 1, f"probe_stride_{axis}": 1, f"gallery_stride_{axis}": 1}
    with pytest.raises(ConfigurationError, match="2 px"):
        RunConfig(**one_px)
    from corrmatch.cli import main
    path = tmp_path / "tiny.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in one_px.items()))
    code = main(["synth", "--out", str(tmp_path / "data"), "--identities", "4",
                 "--config", str(path)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1 and len(err) == 1 and err[0].startswith("error: ConfigurationError")


@st.composite
def valid_configs(draw):
    """Any config the range checks accept, geometry included."""
    geometry = {}
    for axis, size, patch in (("x", "image_width", "patch_width"),
                              ("y", "image_height", "patch_height")):
        probe, gallery = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        patch_len = draw(st.integers(1, 30))
        steps = draw(st.integers(int(patch_len < 2), 4))  # canvases of at least 2 px
        geometry.update({patch: patch_len, f"probe_stride_{axis}": probe,
                         f"gallery_stride_{axis}": gallery,
                         size: patch_len + steps * math.lcm(probe, gallery)})
    unit = st.floats(0.0, 1.0, exclude_min=True)
    positive = st.lists(st.integers(1, 500), min_size=1, max_size=6).map(tuple)
    return RunConfig(
        **geometry,
        t_c=draw(st.floats(0.0, 1.0, exclude_max=True)),
        t_d=draw(st.integers(1, 400)),
        epsilon=draw(unit),
        n_cmc=draw(st.integers(1, 50)),
        selection_count=2 * draw(st.integers(1, 50)),
        top_fraction=draw(unit),
        max_iterations=draw(st.integers(1, 10_000)),
        tolerance=draw(st.floats(min_value=0.0)),
        kappa=draw(st.floats(allow_nan=False, allow_infinity=False)),
        adjacency_ranges=draw(positive),
        color_bins=draw(st.integers(1, 32)),
        gradient_bins=draw(st.integers(1, 32)),
        sigma_scale=draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
        seed=draw(st.integers(0, 2**64)),
        repeats=draw(st.integers(1, 100)),
        rank_points=draw(positive),
        use_first_image=draw(st.booleans()))


@settings(deadline=None)
@given(valid_configs())
def test_format_then_parse_round_trips(config):
    assert parse_config(format_config(config)) == config


def _with_one_below_one():
    good = st.lists(st.integers(1, 50), max_size=3)
    return st.one_of(st.just([]), st.tuples(good, st.integers(max_value=0), good)
                     .map(lambda parts: parts[0] + [parts[1]] + parts[2]))


_NOT_POSITIVE = st.integers(max_value=0)
_OUTSIDE_UNIT = st.one_of(st.floats(max_value=0.0), st.just(math.nan),
                          st.floats(min_value=1.0, exclude_min=True))
OUT_OF_RANGE = {
    **{key: _NOT_POSITIVE for key in (
        "image_width", "image_height", "patch_width", "patch_height", "probe_stride_x",
        "probe_stride_y", "gallery_stride_x", "gallery_stride_y", "t_d", "n_cmc",
        "max_iterations", "repeats", "color_bins", "gradient_bins")},
    "epsilon": _OUTSIDE_UNIT,
    "top_fraction": _OUTSIDE_UNIT,
    "selection_count": st.one_of(_NOT_POSITIVE, st.integers().map(lambda k: 2 * k + 1)),
    "tolerance": st.one_of(st.floats(max_value=0.0, exclude_max=True), st.just(math.nan)),
    "t_c": st.one_of(st.floats(max_value=0.0, exclude_max=True), st.floats(min_value=1.0),
                     st.just(math.nan)),
    "kappa": st.sampled_from([math.inf, -math.inf, math.nan]),
    "sigma_scale": st.one_of(st.floats(max_value=0.0), st.sampled_from([math.inf, math.nan])),
    "seed": st.integers(max_value=-1),
    "rank_points": _with_one_below_one(),
    "adjacency_ranges": _with_one_below_one(),
}


@settings(deadline=None)
@given(st.sampled_from(sorted(OUT_OF_RANGE)).flatmap(
    lambda key: st.tuples(st.just(key), OUT_OF_RANGE[key])))
def test_any_single_out_of_range_value_raises_configuration_error(case):
    key, value = case
    text = ",".join(map(str, value)) if isinstance(value, list) else repr(value)
    with pytest.raises(ConfigurationError):
        parse_config(f"{key} = {text}")
