import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from corrmatch.cli import _write_diagnostics, main
from corrmatch.config import RunConfig, load_config, save_config
from corrmatch.metric import MetricModel, load_metric, save_metric
from corrmatch.structure import init_structure, load_structure, save_structure


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.cfg"
    save_config(path, RunConfig(max_iterations=4, repeats=2, selection_count=4,
                                seed=5, tolerance=0.0))
    return str(path)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory, small_config):
    out = str(tmp_path_factory.mktemp("data"))
    code = main(["synth", "--out", out, "--identities", "8", "--shift-rows", "2",
                 "--noise", "0.05", "--seed", "7", "--config", small_config])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def run(tmp_path_factory, dataset, small_config):
    out = str(tmp_path_factory.mktemp("run"))
    code = main(["train", "--manifest", f"{dataset}/manifest.csv",
                 "--config", small_config, "--out", out])
    assert code == 0
    return out


def test_synth_writes_dataset(dataset):
    import os
    assert os.path.isfile(os.path.join(dataset, "manifest.csv"))
    assert os.path.isfile(os.path.join(dataset, "ground_truth.json"))
    assert os.path.isfile(os.path.join(dataset, "imgs", "id0000_A.ppm"))


def test_train_writes_artifacts(run):
    structure = load_structure(f"{run}/structure.bin")
    assert structure.probs.shape == (84, 297)
    lines = Path(run, "diagnostics.csv").read_text().strip().split("\n")
    assert lines[0] == ("iter,mean_rank,cmc1,cmc5,delta,sum_ranks,max_row_sum_error,"
                        "min_entry,gate_components,component_solves,gate_cells,gated_rows,"
                        "clamped,new_cells,update_drift")
    assert len(lines) == 1 + 4  # header + max_iterations rows (tolerance 0)
    for iteration, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        assert len(fields) == 15 and int(fields[0]) == iteration
        assert int(fields[5]) >= 8  # sum_ranks: each of the 8 ranks is >= 1
        assert int(fields[8]) > 0   # gate_components
        assert int(fields[10]) >= int(fields[11]) > 0  # gate_cells >= gated_rows
        assert fields[12] in ("0", "1")                # clamped
        assert int(fields[13]) >= (int(fields[10]) if iteration == 1 else 0)  # new_cells
        drift = float(fields[14])  # update_drift: 0 in the first iteration
        assert drift >= 0.0 and (iteration > 1 or drift == 0.0)
    csv_rows = Path(run, "structure.csv").read_text().strip().split("\n")
    assert len(csv_rows) == 84


def test_evaluate_writes_cmc_files(dataset, small_config, tmp_path, capsys):
    out = str(tmp_path / "eval")
    code = main(["evaluate", "--manifest", f"{dataset}/manifest.csv",
                 "--config", small_config, "--out", out, "--arm", "no-structure"])
    assert code == 0
    lines = Path(out, "cmc_no-structure.csv").read_text().strip().split("\n")
    assert lines[0].startswith("split,r1")
    assert lines[-1].startswith("avg,")
    assert len(lines) == 1 + 2 + 1  # header + repeats + average


def test_evaluate_all_pairs_with_splits_of_different_gallery_sizes(tmp_path, capsys):
    # id0000 gains a second camera-B image, so the four splits' test
    # galleries hold 4 or 5 images, and the average row still comes out.
    import shutil
    data, out = tmp_path / "data", tmp_path / "eval"
    assert main(["synth", "--out", str(data), "--identities", "8", "--seed", "7"]) == 0
    shutil.copyfile(data / "imgs" / "id0000_B.ppm", data / "imgs" / "id0000_B2.ppm")
    with open(data / "manifest.csv", "a", encoding="utf-8") as fh:
        fh.write("id0000,B,imgs/id0000_B2.ppm\n")
    save_config(tmp_path / "all.cfg", RunConfig(use_first_image=False, repeats=4))
    code = main(["evaluate", "--manifest", str(data / "manifest.csv"), "--config",
                 str(tmp_path / "all.cfg"), "--out", str(out), "--arm", "no-structure"])
    assert code == 0, capsys.readouterr().err
    lines = Path(out, "cmc_no-structure.csv").read_text().strip().split("\n")
    assert lines[0] == "split,r1,r5"
    splits = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:-1]])
    assert lines[-1] == "avg," + ",".join(repr(float(v)) for v in splits.mean(axis=0))


def test_match_and_export(dataset, small_config, run, tmp_path):
    pairs_csv = str(tmp_path / "pairs.csv")
    code = main(["match", "--probe", f"{dataset}/imgs/id0000_A.ppm",
                 "--gallery", f"{dataset}/imgs/id0000_B.ppm",
                 "--structure", f"{run}/structure.bin",
                 "--metric", f"{run}/metric.bin",
                 "--config", small_config, "--out", pairs_csv])
    assert code == 0
    lines = Path(pairs_csv).read_text().strip().split("\n")
    assert lines[0] == "i,j,correlation"
    assert len(lines) > 1
    for line in lines[1:]:
        i, j, c = line.split(",")
        assert 0 <= int(i) < 84 and 0 <= int(j) < 297
        assert float(c) <= 0.0

    heat = str(tmp_path / "heat.csv")
    assert main(["export-structure", "--structure", f"{run}/structure.bin",
                 "--out", heat]) == 0
    assert len(Path(heat).read_text().strip().split("\n")) == 84


def test_match_psi_is_row_order_sum_of_reported_pairs(dataset, small_config, run,
                                                       tmp_path, capsys):
    pairs_csv = tmp_path / "pairs.csv"
    code = main(["match", "--probe", f"{dataset}/imgs/id0001_A.ppm",
                 "--gallery", f"{dataset}/imgs/id0002_B.ppm",
                 "--structure", f"{run}/structure.bin",
                 "--metric", f"{run}/metric.bin",
                 "--config", small_config, "--out", str(pairs_csv)])
    assert code == 0
    _, eq, psi, over, matched, *_ = capsys.readouterr().out.strip().splitlines()[-1].split()
    assert (eq, over) == ("=", "over")
    rows = [line.split(",") for line in pairs_csv.read_text().strip().split("\n")[1:]]
    correlation = {int(i): float(c) for i, _, c in rows}
    assert list(correlation) == sorted(correlation) and len(rows) == int(matched)
    kappa = load_config(small_config).kappa
    total = 0.0
    for i in range(load_structure(f"{run}/structure.bin").n_probe):
        total += correlation.get(i, kappa)  # ascending probe patches, as psi sums
    assert total == float(psi)


def test_cli_error_is_single_line_nonzero(tmp_path, capsys):
    code = main(["train", "--manifest", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:")
    assert "\n" not in err


def fails_on_a_truncated_image(command, dataset, config, tmp_path, capsys, monkeypatch):
    """``command`` on a copy of the dataset with one image cut short fails
    before any descriptor, in one error line naming the image and its
    manifest line, and leaves no --out directory."""
    import shutil
    from corrmatch import harness
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    image = data / "imgs" / "id0003_A.ppm"
    image.write_bytes(image.read_bytes()[:100])  # the header and 86 payload bytes
    line = 1 + next(n for n, row in enumerate(Path(data, "manifest.csv").read_text().splitlines())
                    if row.endswith("id0003_A.ppm"))
    extracted = []
    monkeypatch.setattr(harness, "extract_descriptors",
                        lambda *args, **kwargs: extracted.append(args))
    code = main([command, "--manifest", str(data / "manifest.csv"),
                 "--config", config, "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1 and len(err) == 1
    assert err[0].startswith("error: TruncatedPayloadError: ") and str(image) in err[0]
    assert err[0].endswith(f"(manifest manifest.csv line {line})")
    assert extracted == [] and not (tmp_path / "run").exists()


def test_train_with_a_truncated_image_names_it_in_one_error_line(dataset, small_config,
                                                                tmp_path, capsys, monkeypatch):
    fails_on_a_truncated_image("train", dataset, small_config, tmp_path, capsys, monkeypatch)


def test_evaluate_with_a_truncated_image_names_it_in_one_error_line(dataset, small_config,
                                                                   tmp_path, capsys, monkeypatch):
    fails_on_a_truncated_image("evaluate", dataset, small_config, tmp_path, capsys, monkeypatch)


def test_train_on_a_junk_image_fails_in_one_short_error_line(capsys):
    # An 8 MB file with no header: the message quotes 16 of its bytes.
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "j.ppm").write_bytes(b"JUNK" + bytes(8 * 2**20 - 4))
        Path(tmp, "m.csv").write_text("identity,camera,path\nj,A,j.ppm\nj,B,j.ppm\n")
        code = main(["train", "--manifest", f"{tmp}/m.csv", "--out", f"{tmp}/run"])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1 and len(err) == 1 and not Path(tmp, "run").exists()
    assert err[0].startswith(f"error: MalformedHeaderError: {tmp}/j.ppm: PPM token ")
    assert err[0].endswith("(manifest m.csv line 2)") and len(err[0]) < 200


@pytest.mark.parametrize("args", [
    ["train", "--manifest", "{tmp}/missing.csv"],
    ["train", "--manifest", "{data}/manifest.csv", "--config", "{tmp}/bad.cfg"],
    ["evaluate", "--manifest", "{tmp}/two.csv"],
], ids=["missing-manifest", "bad-config", "too-few-identities"])
def test_a_failed_run_leaves_no_out_directory(args, dataset, tmp_path, capsys):
    (tmp_path / "bad.cfg").write_text("kappa = nan\n")
    rows = Path(dataset, "manifest.csv").read_text().splitlines()
    two = "\n".join(rows[:5]).replace("imgs/", f"{dataset}/imgs/")  # 2 identities
    (tmp_path / "two.csv").write_text(two + "\n")
    out = tmp_path / "run"
    code = main([a.format(tmp=tmp_path, data=dataset) for a in args] + ["--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1 and len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


def test_train_names_the_config_file_and_line_of_an_unknown_key(dataset, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("kappa = -3\n# a note\nx = 3\n")
    code = main(["train", "--manifest", f"{dataset}/manifest.csv", "--config", str(config),
                 "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1 and err == [f"error: ConfigurationError: config {config} line 3: "
                                 f"unknown key 'x'"]


@pytest.mark.parametrize("command", ["train", "evaluate", "match"])
def test_a_config_byte_that_is_not_utf8_fails_in_one_error_line(command, dataset, run, tmp_path,
                                                                 capsys):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"kappa = -3\n\nt_c = 0.\xff\n")
    if command == "match":
        args = ["--probe", f"{dataset}/imgs/id0000_A.ppm", "--gallery",
                f"{dataset}/imgs/id0000_B.ppm", "--structure", f"{run}/structure.bin",
                "--metric", f"{run}/metric.bin"]
    else:
        args = ["--manifest", f"{dataset}/manifest.csv"]
    out = tmp_path / "out"
    code = main([command, *args, "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1 and err == [f"error: ConfigurationError: config {config} line 3 is not "
                                 f"UTF-8: invalid start byte"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_an_out_that_is_a_file_fails_before_any_work(command, dataset, small_config, tmp_path,
                                                     capsys, monkeypatch):
    from corrmatch import harness
    extracted = []
    monkeypatch.setattr(harness, "extract_descriptors",
                        lambda *args, **kwargs: extracted.append(args))
    out = tmp_path / "run"
    out.write_bytes(b"keep me\n")
    code = main([command, "--manifest", f"{dataset}/manifest.csv", "--config", small_config,
                 "--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1 and err == [f"error: NotADirectoryError: --out {out} exists and is not a "
                                 f"directory"]
    assert extracted == [] and out.read_bytes() == b"keep me\n"


def test_synth_with_negative_noise_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "data"
    code = main(["synth", "--out", str(out), "--identities", "2", "--shift-rows", "0",
                 "--noise", "-1"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1 and len(err) == 1 and err[0].startswith("error: ConfigurationError")
    assert "noise_level" in err[0] and not (out / "manifest.csv").exists()


def test_synth_with_overflowing_noise_fails_before_writing(tmp_path, capsys):
    # Finite, but the uniform draw's range 510 * noise is not.
    out = tmp_path / "data"
    code = main(["synth", "--out", str(out), "--identities", "2", "--shift-rows", "0",
                 "--noise", "1e306"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1 and len(err) == 1 and err[0].startswith("error: ConfigurationError")
    assert "noise_level" in err[0] and not out.exists()  # nothing written


@pytest.mark.parametrize("count", ["0", "-2"])
def test_synth_with_no_identities_is_one_error_line(tmp_path, capsys, count):
    out = tmp_path / "data"
    code = main(["synth", "--out", str(out), "--identities", count, "--shift-rows", "0"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1 and len(err) == 1 and err[0].startswith("error: ConfigurationError")
    assert "n_identities" in err[0] and not out.exists()  # nothing written


def test_synth_with_negative_seed_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "data"
    code = main(["synth", "--out", str(out), "--identities", "3", "--seed", "-1"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1 and len(err) == 1 and err[0].startswith("error: ConfigurationError")
    assert "seed" in err[0] and not out.exists()  # nothing written


def test_match_with_non_finite_metric_is_one_error_line(dataset, tmp_path, capsys):
    config = RunConfig()
    structure = init_structure(config.probe_grid(), config.gallery_grid(), config.t_d)
    save_structure(tmp_path / "structure.bin", structure)
    n_loc, dim = structure.probs.shape[0], 2
    path = tmp_path / "metric.bin"
    save_metric(path, MetricModel(matrices=np.repeat(np.eye(dim)[None], n_loc, axis=0),
                                  sigmas=np.ones(n_loc), global_matrix=np.eye(dim),
                                  global_sigma=1.0))
    blob = bytearray(path.read_bytes())
    blob[24:32] = np.array([np.nan], dtype="<f8").tobytes()  # first matrix entry
    path.write_bytes(bytes(blob))
    code = main(["match", "--probe", f"{dataset}/imgs/id0000_A.ppm",
                 "--gallery", f"{dataset}/imgs/id0000_B.ppm",
                 "--structure", str(tmp_path / "structure.bin"), "--metric", str(path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "finite" in err[0]


def _metric_for(n_loc: int, dim: int) -> MetricModel:
    return MetricModel(matrices=np.repeat(np.eye(dim)[None], n_loc, axis=0),
                       sigmas=np.ones(n_loc), global_matrix=np.eye(dim), global_sigma=1.0)


@pytest.mark.parametrize("metric_lattice", ["finer", "canonical"])
def test_match_with_metric_of_another_lattice_is_one_error_line(dataset, run, tmp_path,
                                                                capsys, metric_lattice):
    # The canonical probe lattice has 84 patches; a vertical stride of 4
    # gives a finer one.  Structure and metric come from different lattices.
    canonical = load_structure(f"{run}/structure.bin")
    fine = RunConfig(probe_stride_y=4)
    fine_structure = init_structure(fine.probe_grid(), fine.gallery_grid(), fine.t_d)
    dim = load_metric(f"{run}/metric.bin").dim
    if metric_lattice == "finer":
        structure, metric = canonical, _metric_for(fine.probe_grid().n_patches, dim)
    else:
        structure, metric = fine_structure, _metric_for(canonical.n_probe, dim)
    save_structure(tmp_path / "structure.bin", structure)
    save_metric(tmp_path / "metric.bin", metric)
    code = main(["match", "--probe", f"{dataset}/imgs/id0000_A.ppm",
                 "--gallery", f"{dataset}/imgs/id0000_B.ppm",
                 "--structure", str(tmp_path / "structure.bin"),
                 "--metric", str(tmp_path / "metric.bin")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ValueError:")
    assert f"{structure.n_probe} probe patches for a {metric.n_locations}-location" in err[0]


def test_match_with_config_of_another_geometry_is_one_error_line(dataset, run, tmp_path,
                                                                 capsys):
    # A horizontal probe stride of 3 gives a 154-patch probe grid; the
    # structure was trained on the 84-patch one.
    config = RunConfig(probe_stride_x=3)
    save_config(tmp_path / "other.cfg", config)
    code = main(["match", "--probe", f"{dataset}/imgs/id0000_A.ppm",
                 "--gallery", f"{dataset}/imgs/id0000_B.ppm",
                 "--structure", f"{run}/structure.bin", "--metric", f"{run}/metric.bin",
                 "--config", str(tmp_path / "other.cfg")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ConfigurationError:")
    structure = load_structure(f"{run}/structure.bin")
    assert config.probe_grid().n_patches == 154 and structure.n_probe == 84
    assert str(config.probe_grid()) in err[0] and str(structure.probe_grid) in err[0]


def test_readme_lists_the_diagnostics_header(tmp_path):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    listed = re.search(r"`diagnostics\.csv` \(`([^`]*)`", readme.read_text()).group(1)
    _write_diagnostics(tmp_path / "diagnostics.csv", [])
    assert listed == (tmp_path / "diagnostics.csv").read_text().strip()


# ------------------------------------------------- generated input at the CLI

# An 8x16 canvas: 4 probe and 7 gallery patches of 4x4, so a run takes milliseconds.
TINY_CANVAS = """image_width = 8
image_height = 16
patch_width = 4
patch_height = 4
probe_stride_x = 4
probe_stride_y = 4
gallery_stride_x = 2
gallery_stride_y = 4
t_d = 3
max_iterations = 2
selection_count = 2
repeats = 1
color_bins = 2
gradient_bins = 2
adjacency_ranges = 1
rank_points = 1
"""


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    """A 4-identity dataset on the tiny canvas, and its manifest rows with
    absolute paths."""
    root = tmp_path_factory.mktemp("tiny")
    (root / "tiny.cfg").write_text(TINY_CANVAS)
    assert main(["synth", "--out", str(root), "--identities", "4", "--shift-rows", "1",
                 "--config", str(root / "tiny.cfg")]) == 0
    return [row.replace("imgs/", f"{root}/imgs/").encode()
            for row in (root / "manifest.csv").read_text().splitlines()[1:]]


_CONFIG_LINES = [b"kappa = -10", b"t_c = 0.1", b"epsilon = 0.5", b"use_first_image = no",
                 b"top_fraction = 1", b"# a comment", b"kappa = nan", b"t_c = banana",
                 b"no_such_key = 1", b"just a line", b"max_iterations = 3",
                 b"selection_count = 3", b"rank_points = ,", b"seed = -1", b"\xff = 1"]
_IMAGES = [b"P6\n2 3\n255\n" + bytes(18), b"P6 1 1 255 \xff\xff\xff", b"P6\n8 16\n255\n" + bytes(383),
           b"P5\n1 1\n255\n\x00", b"P6\n2 2\n2550\n" + bytes(12), b"P6\n2 2\n65535\n", b""]
# The generated image as an extra image of an identity, or as a new identity's pair.
_IMAGE_ROWS = [b"id0000,A,{image}", b"id9,A,{image}\nid9,B,{image}"]
# Column counts of 2 and 4, a directory, a missing path (one holding a line
# break), an unknown camera, blank lines and bytes that are not UTF-8.
_DAMAGED_ROWS = [b"id0,A", b"id0,A,{dir},x", b"id0000,B,{dir}", b"id0000,B,missing.ppm",
                 b'id0000,A,"a\nb.ppm"', b"id0000,C,{image}", b"", b"  ", b"id\xff,A,{image}",
                 b"\xc3"]


@st.composite
def cli_inputs(draw, rows):
    """A command, and the bytes of a config, of one image and of a manifest
    that lists the dataset's rows, a few of them twice, and others."""
    line = draw(st.just(b"") | st.just(b"") | st.sampled_from(_CONFIG_LINES)
                | st.binary(max_size=12))
    image = draw(st.sampled_from(_IMAGES) | st.binary(max_size=40))
    extra = draw(st.lists(st.sampled_from(_IMAGE_ROWS) | st.sampled_from(_DAMAGED_ROWS)
                          | st.sampled_from(rows), max_size=2))
    body = rows if draw(st.booleans()) else draw(st.permutations(rows))[:draw(st.integers(0, 8))]
    header = draw(st.sampled_from([b"identity,camera,path", b"\xef\xbb\xbfidentity,camera,path",
                                   b"identity, camera, path", b"identity,camera"]))
    manifest = draw(st.sampled_from([b"\n", b"\r\n"])).join([header, *body, *extra])
    return (draw(st.sampled_from(["train", "evaluate"])), TINY_CANVAS.encode() + line, image,
            manifest)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_generated_input_either_runs_or_fails_in_one_error_line(tiny_dataset, tmp_path_factory,
                                                                data):
    import contextlib
    import io
    command, config, image, manifest = data.draw(cli_inputs(tiny_dataset))
    work = tmp_path_factory.mktemp("cli")
    (work / "dir").mkdir()
    (work / "x.ppm").write_bytes(image)
    (work / "run.cfg").write_bytes(config)
    manifest = manifest.replace(b"{image}", str(work / "x.ppm").encode())
    (work / "manifest.csv").write_bytes(manifest.replace(b"{dir}", str(work / "dir").encode()))
    out, err = work / "run", io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "--manifest", str(work / "manifest.csv"),
                     "--config", str(work / "run.cfg"), "--out", str(out)])
    err = err.getvalue()
    if code == 0:
        assert err == "" and out.is_dir()
    else:
        assert code == 1 and err.startswith("error:") and err.count("\n") == 1, err
        assert err.endswith("\n") and "Traceback" not in err and not out.exists()
