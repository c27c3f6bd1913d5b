"""Every CSV reader goes through one codec and rejects malformed files alike."""

import json
import os

import numpy as np
import pytest

from kittensim import (
    QuadratureDataset,
    ValidationError,
    load_samples_csv,
    load_spectrum_csv,
    load_trace_csv,
    save_samples_csv,
)
from kittensim.cli import main
from kittensim.util import atomic_write_text, read_csv, write_csv
from test_temporal import traced_peak

SPECTRA = "freq_hz,angle_deg,variance_snu\n1.0,0.0,0.5\n2.0,0.0,0.5\n"

# reader name -> (lines before the header, header, one valid row)
FORMATS = {
    "samples": ([], "angle_deg,value", "0.0,0.25"),
    "spectrum": ([], "freq_hz,angle_deg,variance_snu", "1.0,0.0,0.5"),
    "clearance": ([], "freq_hz,clearance", "1.0,0.9"),
    "trace": (["# sample_rate_hz=500000000.0"], "value", "0.25"),
}


def read(name, path):
    if name == "samples":
        return load_samples_csv(path)
    if name == "spectrum":
        return load_spectrum_csv(path)
    if name == "trace":
        return load_trace_csv(path)
    spectra = path.with_name("spectra.csv")
    spectra.write_text(SPECTRA)
    return load_spectrum_csv(spectra, clearance_path=path)


def first_field(row, value):
    return ",".join([value] + row.split(",")[1:])


CASES = {
    "extra-field": lambda meta, header, row: meta + [header, row, row + ",1.0"],
    "wide-rows": lambda meta, header, row: meta + [header, row + ",1.0", row + ",1.0"],
    "non-numeric": lambda meta, header, row: meta + [header, row, first_field(row, "abc")],
    "nan": lambda meta, header, row: meta + [header, first_field(row, "nan"), row],
    "missing-header": lambda meta, header, row: meta + [row, row],
    "bad-metadata": lambda meta, header, row: ["# trigger_index=abc"] + meta + [header, row],
    "nan-metadata": lambda meta, header, row: ["# scale=nan"] + meta + [header, row],
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("name", sorted(FORMATS))
def test_readers_reject_malformed_files(tmp_path, name, case):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(CASES[case](*FORMATS[name])) + "\n")
    with pytest.raises(ValidationError, match="bad.csv"):
        read(name, path)


def test_readers_skip_blank_lines(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("\n# sample_rate_hz=500000000.0\n\n# trigger_index=1\nvalue\n0.25\n\n-1.0\n\n")
    trace = load_trace_csv(path)
    assert trace.trigger_index == 1
    np.testing.assert_array_equal(trace.values, [0.25, -1.0])
    path.write_text("angle_deg,value\n\n90.0,0.5\n\n")
    ds = load_samples_csv(path)
    np.testing.assert_array_equal(ds.angles, [np.pi / 2])


@pytest.mark.parametrize("row", ["abc,1.0", "1.0"], ids=["non-numeric", "one-field"])
def test_fit_spectrum_cli_rejects_malformed_clearance(capsys, tmp_path, row):
    spectra = tmp_path / "spectra.csv"
    spectra.write_text(SPECTRA)
    clearance = tmp_path / "clearance.csv"
    clearance.write_text(f"freq_hz,clearance\n{row}\n2.0,1.0\n")
    rc = main(["fit-spectrum", "--spectra", str(spectra), "--clearance", str(clearance)])
    err = capsys.readouterr().err
    assert rc == 1
    assert json.loads(err)["error"] == "validation"


def test_writer_keeps_each_bit_pattern_of_repeated_values(tmp_path):
    # the writer formats each run of equal values once; 0.0 and -0.0 compare
    # equal as floats but must keep their own text
    # (5000 rows: more than one block of rows, with a run across the boundary)
    signed = np.tile([0.0, -0.0, 1.0, -0.0], 1250)
    other = np.repeat([2.5, -0.0, 0.0, 1e-300, 0.1 + 0.2], 1000)
    path = tmp_path / "zeros.csv"
    write_csv(path, ("a", "b"), (signed, other))
    rows = path.read_text().splitlines()[1:]
    assert rows == [f"{a!r},{b!r}" for a, b in zip(signed.tolist(), other.tolist())]
    _, table = read_csv(path, ("a", "b"))
    np.testing.assert_array_equal(table.view(np.int64), np.stack((signed, other)).view(np.int64))


def test_samples_reader_streams_its_rows(tmp_path):
    # the rows go through one numpy parse as they are read; a reader that
    # held every line of the file at once peaked at 7x the table
    rng = np.random.default_rng(5)
    rows = 30_000
    path = tmp_path / "samples.csv"
    dataset = QuadratureDataset(rng.uniform(0.0, np.pi, rows), rng.standard_normal(rows))
    save_samples_csv(dataset, path)
    load_samples_csv(path)
    dataset, peak = traced_peak(lambda: load_samples_csv(path))
    assert len(dataset) == rows
    assert peak <= 2.1 * (dataset.angles.nbytes + dataset.values.nbytes)


def test_a_failed_atomic_write_leaves_no_file(tmp_path):
    # a lone surrogate cannot be encoded as UTF-8, so the write fails after the temp file is made
    path = tmp_path / "out.txt"
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(path, "\ud800")
    assert os.listdir(tmp_path) == []
