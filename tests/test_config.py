import pytest

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


def test_grids_and_learner_config():
    c = RunConfig()
    assert c.probe_grid().n_patches == 84
    assert c.gallery_grid().n_patches == 297
    lc = c.learner_config()
    assert lc.epsilon == c.epsilon
    assert lc.t_c == c.t_c
    assert lc.adjacency_ranges == c.adjacency_ranges


@pytest.mark.parametrize("line", ["kappa = nan", "kappa = inf", "kappa = -inf",
                                  "t_c = 1.5", "t_c = 1.0", "t_c = -0.1", "t_c = nan",
                                  "top_fraction = 0", "top_fraction = 1.5",
                                  "sigma_scale = -1", "sigma_scale = nan", "repeats = 0",
                                  "rank_points =", "rank_points = 0,5"])
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
