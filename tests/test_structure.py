import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrmatch.errors import FormatError
from corrmatch.geometry import GridSpec, colocated_patch, patch_at
from corrmatch.structure import (CorrespondenceStructure, blend_update,
                                 export_structure_csv, init_structure, load_structure,
                                 save_structure)

from blobs import mutated, non_finite, truncated

PROBE = GridSpec(48, 128, 18, 24, 6, 8)
GALLERY = GridSpec(48, 128, 18, 24, 3, 4)
# Two probe patches by three gallery patches: a 68-byte header and six doubles.
TINY = init_structure(GridSpec(4, 8, 4, 4, 1, 4), GridSpec(4, 8, 2, 8, 1, 1), t_d=2)


def small_structure(probs):
    probe = GridSpec(4, 4, 4, 4, 1, 1)      # 1 patch
    gallery = GridSpec(4, 4, 4, 2, 2, 2)    # 1x2 = 2 patches
    return CorrespondenceStructure(probs=np.asarray(probs, dtype=np.float64),
                                   probe_grid=probe, gallery_grid=gallery)


def test_init_rows_are_stochastic():
    s = init_structure(PROBE, GALLERY, t_d=32)
    assert s.probs.shape == (84, 297)
    assert np.all(s.probs >= 0)
    assert np.abs(s.probs.sum(axis=1) - 1.0).max() <= 1e-9


def test_init_row_argmax_is_colocated_patch():
    s = init_structure(PROBE, GALLERY, t_d=32)
    for i in range(84):
        co = colocated_patch(PROBE, GALLERY, patch_at(PROBE, i))
        assert int(np.argmax(s.probs[i])) == co.ordinal


def test_init_zero_beyond_distance_threshold():
    s = init_structure(PROBE, GALLERY, t_d=32)
    for i in range(84):
        co = colocated_patch(PROBE, GALLERY, patch_at(PROBE, i))
        dist = np.abs(np.arange(297) - co.ordinal)
        assert np.all(s.probs[i][dist >= 32] == 0.0)
        assert np.all(s.probs[i][dist < 32] > 0.0)


def test_init_distances_zero_one_two_normalization():
    # Two probe patches (origins x = 0 and 4) against a 1x3 gallery
    # (origins x = 0, 2, 4): zig-zag distances {0,1,2} and {2,1,0}.
    probe = GridSpec(6, 2, 2, 2, 4, 2)
    gallery = GridSpec(6, 2, 2, 2, 2, 2)
    assert colocated_patch(probe, gallery, patch_at(probe, 0)).ordinal == 0
    assert colocated_patch(probe, gallery, patch_at(probe, 1)).ordinal == 2
    s = init_structure(probe, gallery, t_d=32)
    # raw weights {1, 1/2, 1/3} normalize to {6/11, 3/11, 2/11}
    assert np.allclose(s.probs[0], [6 / 11, 3 / 11, 2 / 11])
    assert np.allclose(s.probs[1], [2 / 11, 3 / 11, 6 / 11])


def test_blend_update_example():
    s = small_structure([[0.5, 0.5]])
    out = blend_update(s, np.array([[1.0, 0.0]]), 0.2)
    assert np.allclose(out.probs, [[0.6, 0.4]], atol=1e-12)
    assert np.array_equal(s.probs, [[0.5, 0.5]])  # input untouched


def test_blend_update_epsilon_one_returns_normalized_update():
    s = small_structure([[0.5, 0.5]])
    out = blend_update(s, np.array([[3.0, 1.0]]), 1.0)
    assert np.allclose(out.probs, [[0.75, 0.25]])


def test_blend_update_fixed_point():
    s = init_structure(PROBE, GALLERY, t_d=32)
    out = blend_update(s, s.probs.copy(), 0.2)
    assert np.abs(out.probs - s.probs).max() <= 1e-12


def test_blend_update_contraction():
    rng = np.random.default_rng(8)
    s = init_structure(PROBE, GALLERY, t_d=32)
    target = rng.random((84, 297))
    target /= target.sum(axis=1, keepdims=True)
    out = blend_update(s, target, 0.2)
    before = np.abs(s.probs - target).sum(axis=1)
    after = np.abs(out.probs - target).sum(axis=1)
    assert np.all(after <= 0.8 * before + 1e-9)


def test_blend_update_rejects_bad_epsilon_and_negative():
    s = small_structure([[0.5, 0.5]])
    with pytest.raises(ValueError):
        blend_update(s, np.array([[1.0, 0.0]]), 0.0)
    with pytest.raises(ValueError):
        blend_update(s, np.array([[1.0, -0.1]]), 0.2)


def test_row_stochastic_enforced_on_construction():
    with pytest.raises(ValueError):
        small_structure([[0.5, 0.6]])
    with pytest.raises(ValueError):
        small_structure([[1.2, -0.2]])


def test_save_load_round_trip(tmp_path):
    s = init_structure(PROBE, GALLERY, t_d=32)
    path = tmp_path / "s.bin"
    save_structure(path, s)
    again = load_structure(path)
    assert np.array_equal(again.probs, s.probs)
    assert again.probe_grid == PROBE
    assert again.gallery_grid == GALLERY


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE!" + bytes(100))
    with pytest.raises(FormatError):
        load_structure(path)


def test_load_rejects_dim_mismatch(tmp_path):
    s = init_structure(PROBE, GALLERY, t_d=32)
    path = tmp_path / "s.bin"
    save_structure(path, s)
    blob = bytearray(path.read_bytes())
    blob[12] ^= 0xFF  # corrupt the N_A header field
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_structure(bad)


def test_load_rejects_truncated_payload(tmp_path):
    s = init_structure(PROBE, GALLERY, t_d=32)
    path = tmp_path / "s.bin"
    save_structure(path, s)
    blob = path.read_bytes()
    bad = tmp_path / "short.bin"
    bad.write_bytes(blob[:-16])
    with pytest.raises(FormatError):
        load_structure(bad)


@pytest.mark.parametrize("probe, gallery", [
    (GridSpec(7, 9, 3, 5, 2, 2), GridSpec(7, 9, 3, 5, 1, 1)),   # 3x3 by 5x5 patches
    (GridSpec(5, 5, 5, 5, 1, 1), GridSpec(5, 5, 3, 3, 1, 2)),   # 1 by 2x3 patches
    (GridSpec(9, 3, 1, 3, 2, 1), GridSpec(9, 3, 3, 1, 3, 1)),   # 1x5 by 3x3 patches
])
def test_structure_file_round_trips_byte_for_byte(tmp_path, probe, gallery):
    rng = np.random.default_rng(probe.n_patches * gallery.n_patches)
    structure = blend_update(init_structure(probe, gallery, t_d=3),
                             rng.random((probe.n_patches, gallery.n_patches)), 0.5)
    first, second = tmp_path / "a.bin", tmp_path / "b.bin"
    save_structure(first, structure)
    save_structure(second, load_structure(first))
    blob = first.read_bytes()
    assert second.read_bytes() == blob
    assert blob[:6] == b"CSTR1\x01" and len(blob) == 68 + 8 * probe.n_patches * gallery.n_patches


@pytest.mark.parametrize("probe, gallery", [((65535, 65535, 1, 1, 1, 1),) * 2,
                                            ((2**32 - 1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1))])
def test_structure_header_declaring_a_huge_payload_fails_without_allocating_it(tmp_path, probe,
                                                                              gallery):
    # Counts that agree with the grids, declaring over 2 GiB in a 68-byte file.
    n_a, n_b = GridSpec(*probe).n_patches, GridSpec(*gallery).n_patches
    path = tmp_path / "huge.bin"
    path.write_bytes(b"CSTR1\x01" + bytes(6) + struct.pack("<14I", n_a, n_b, *probe, *gallery))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="payload has 0 bytes"):
            load_structure(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def _tiny_blob(path) -> bytes:
    save_structure(path, TINY)
    return path.read_bytes()


@pytest.fixture(scope="module")
def blob_file(tmp_path_factory):
    return tmp_path_factory.mktemp("structure") / "s.bin"


@pytest.mark.parametrize("damage", ["magic only", "version 2", "first 20 bytes", "zero stride",
                                    "nan payload", "row sum overflows"])
def test_load_rejects_short_or_invalid_fields_as_format_error(tmp_path, damage):
    blob = bytearray(_tiny_blob(tmp_path / "s.bin"))
    if damage == "magic only":
        blob = blob[:5]
    elif damage == "version 2":
        blob[5] = 2  # the version byte, after the 5-byte magic
    elif damage == "first 20 bytes":
        blob = blob[:20]
    elif damage == "zero stride":
        blob[36:40] = bytes(4)  # the probe grid's stride_x
    elif damage == "nan payload":
        blob[68:76] = np.array([np.nan], dtype="<f8").tobytes()
    else:  # rejected before the row sums, which would overflow and warn
        blob[68:84] = np.array([1e308, 1e308], dtype="<f8").tobytes()
    path = tmp_path / "bad.bin"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_structure(path)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_load_rejects_truncated_and_non_finite_blobs(blob_file, data):
    blob = _tiny_blob(blob_file)
    blob_file.write_bytes(data.draw(st.one_of(truncated(blob), non_finite(blob, 68, 6))))
    with pytest.raises(FormatError):
        load_structure(blob_file)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_mutated_blob_raises_only_format_error(blob_file, data):
    blob_file.write_bytes(data.draw(mutated(_tiny_blob(blob_file))))
    try:
        load_structure(blob_file)
    except FormatError:
        pass


def test_csv_export_shape(tmp_path):
    s = init_structure(PROBE, GALLERY, t_d=32)
    path = tmp_path / "s.csv"
    export_structure_csv(path, s)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 84
    first = lines[0].split(",")
    assert len(first) == 297
    assert np.isclose(sum(float(v) for v in first), 1.0)
