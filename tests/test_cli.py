import re
from pathlib import Path

import pytest

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


def test_readme_lists_the_diagnostics_header(tmp_path):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    listed = re.search(r"`diagnostics\.csv` \(`([^`]*)`", readme.read_text()).group(1)
    _write_diagnostics(tmp_path / "diagnostics.csv", [])
    assert listed == (tmp_path / "diagnostics.csv").read_text().strip()
