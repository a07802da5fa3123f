"""CSV field serialization and JSON metadata round trips."""

import numpy as np
import pytest

from maxstorm import (
    FieldFormatError,
    MarkovParams,
    RotationSpec,
    SeededStream,
    VmfParams,
    fibonacci_sphere,
    read_field,
    read_meta,
    simulate_markov_planar,
    simulate_markov_sphere,
    square_grid,
    write_field,
    write_meta,
)


def test_planar_roundtrip_is_bit_exact(tmp_path, smith_identity, markov_standard):
    field = simulate_markov_planar(square_grid(3), 4, smith_identity, markov_standard, SeededStream(10))
    path = tmp_path / "field.csv"
    write_field(field, path)
    back = read_field(path)
    np.testing.assert_array_equal(back.values, field.values)
    np.testing.assert_array_equal(back.dates, field.dates)
    np.testing.assert_array_equal(np.asarray(back.sites.coords), np.asarray(field.sites.coords))
    assert back.sites.kind == "planar"


def test_sphere_roundtrip_is_bit_exact(tmp_path):
    mk = MarkovParams(0.6, rotation=RotationSpec(0.3, (0.0, 0.0, 1.0)))
    field = simulate_markov_sphere(fibonacci_sphere(5), 3, VmfParams(2.0), mk, SeededStream(11))
    path = tmp_path / "field.csv"
    write_field(field, path)
    back = read_field(path)
    np.testing.assert_array_equal(back.values, field.values)
    assert back.sites.kind == "sphere"


def test_rewrite_of_read_field_is_identical_bytes(tmp_path, smith_identity, markov_standard):
    field = simulate_markov_planar(square_grid(2), 3, smith_identity, markov_standard, SeededStream(12))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_field(field, p1)
    write_field(read_field(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize(
    "lines, fragment",
    [
        (["t,x1,value", "1,0.0,1.0"], "header"),
        (["t,x1,x2,value", "1,0.0,0.0,abc"], "line 2"),
        (["t,x1,x2,value", "1,0.0,0.0,-1.0"], "line 2"),
        (["t,x1,x2,value", "2,0.0,0.0,1.0", "1,0.0,0.0,1.0"], "increasing"),
        (
            ["t,x1,x2,value", "1,0.0,0.0,1.0", "1,1.0,0.0,1.0", "2,0.0,0.0,1.0", "2,9.0,9.0,1.0"],
            "site",
        ),
        # A blank line still counts: the bad row is the file's sixth line.
        (["t,x1,x2,value", "1,0,0,1", "", "1,1,0,1", "2,0,0,1", "2,2,0,1"], "line 6:"),
        # Non-finite cells are reported at their own line.
        (["t,x1,x2,value", "1,0,0,1", "1,1,0,inf"], "line 3: value must be finite"),
        (
            ["t,x1,x2,value", "1,0,0,1", "1,1,0,1", "2,0,0,1", "2,nan,0,1"],
            "line 5: site coordinates must be finite",
        ),
        (["t,x1,x2,value", "1,0,inf,1", "1,1,0,1"], "line 2: site coordinates must be finite"),
    ],
)
def test_malformed_files_are_rejected_with_location(tmp_path, lines, fragment):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(FieldFormatError) as err:
        read_field(path)
    assert fragment in str(err.value)


def test_missing_file_reports_path(tmp_path):
    with pytest.raises(OSError):
        read_field(tmp_path / "nope.csv")


def test_meta_roundtrip_and_stable_key_order(tmp_path):
    path = tmp_path / "meta.json"
    meta = {"b": 2, "a": [1, 2, 3], "c": {"z": 1.5, "y": "s"}}
    write_meta(path, meta)
    assert read_meta(path) == meta
    text = path.read_text(encoding="utf-8")
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert text.endswith("\n")
