"""Targeted coverage for the text-rendering helpers
(:mod:`repro.analysis.reporting`) and the raw-result CSV round-trip
(:mod:`repro.experiments.export`)."""

import csv
import math

import pytest

from repro.analysis.reporting import ascii_scatter, bootstrap_mean, format_table
from repro.experiments.export import (
    export_aggregate_csv,
    export_raw_csv,
    load_raw_csv,
)
from repro.experiments.results import ResultsStore, RunRecord


# --------------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------------- #
class TestFormatTable:
    def test_aligns_columns_and_formats_floats(self):
        text = format_table(
            ["system", "kwh"],
            [["TabPFN", 0.123456], ["AutoGluon", 1.0]],
        )
        lines = text.splitlines()
        assert len(lines) == 4                       # header, rule, 2 rows
        assert len({len(line) for line in lines}) == 1   # all same width
        assert "0.1235" in text                      # default {:.4g}
        assert lines[0].startswith("system")

    def test_nan_renders_as_dash(self):
        text = format_table(["v"], [[float("nan")]])
        assert text.splitlines()[-1].strip() == "-"

    def test_empty_rows_keeps_header(self):
        text = format_table(["a", "bb"], [])
        assert "a" in text and "bb" in text
        assert len(text.splitlines()) == 2

    def test_custom_float_format(self):
        text = format_table(["v"], [[0.123456]], float_fmt="{:.1f}")
        assert "0.1" in text and "0.1235" not in text


class TestAsciiScatter:
    def test_plots_markers_axes_and_legend(self):
        text = ascii_scatter(
            {"TabPFN": [(1.0, 0.8), (10.0, 0.9)],
             "CAML": [(1.0, 0.7)]},
            xlabel="budget", ylabel="acc",
        )
        assert "T" in text and "C" in text
        assert "x: budget" in text and "y: acc" in text
        assert "T=TabPFN" in text and "C=CAML" in text

    def test_names_sharing_a_first_letter_get_distinct_markers(self):
        text = ascii_scatter(
            {"AutoGluon": [(1.0, 0.8)], "AutoSklearn1": [(10.0, 0.9)]},
        )
        legend = text.splitlines()[-1]
        assert legend == "legend: A=AutoGluon, S=AutoSklearn1"
        grid = "".join(text.splitlines()[1:-3])
        assert grid.count("A") == 1 and grid.count("S") == 1

    def test_log_axes_label_decades(self):
        text = ascii_scatter(
            {"s": [(1.0, 1.0), (1000.0, 100.0)]}, logx=True, logy=True,
        )
        assert "(log)" in text
        assert "[1 .. 1e+03]" in text

    def test_degenerate_single_point(self):
        # zero span in both axes must not divide by zero
        text = ascii_scatter({"s": [(5.0, 5.0)]})
        assert "S" in text

    def test_no_data(self):
        assert ascii_scatter({}) == "(no data)"


class TestBootstrapMean:
    def test_constant_values_have_zero_std(self):
        mean, std = bootstrap_mean([2.0, 2.0, 2.0])
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(0.0)

    def test_deterministic_for_fixed_seed(self):
        values = [0.1, 0.4, 0.7, 0.9]
        assert bootstrap_mean(values) == bootstrap_mean(values)

    def test_mean_close_to_sample_mean_and_std_positive(self):
        values = [0.0, 1.0, 2.0, 3.0, 4.0]
        mean, std = bootstrap_mean(values, n_boot=500)
        assert mean == pytest.approx(2.0, abs=0.2)
        assert std > 0.0

    def test_empty_input_is_nan(self):
        mean, std = bootstrap_mean([])
        assert math.isnan(mean) and math.isnan(std)


# --------------------------------------------------------------------------- #
# export
# --------------------------------------------------------------------------- #
def _record(system="TabPFN", dataset="credit-g", budget=10.0, seed=0,
            acc=0.8, failed=False):
    return RunRecord(
        system=system, dataset=dataset, configured_seconds=budget,
        seed=seed, balanced_accuracy=acc, execution_kwh=0.001 * (seed + 1),
        actual_seconds=budget * 0.9,
        inference_kwh_per_instance=1e-7,
        inference_seconds_per_instance=1e-3,
        n_evaluations=3 + seed, failed=failed,
        note="timeout" if failed else "",
    )


@pytest.fixture
def small_store():
    store = ResultsStore()
    store.add(_record(seed=0))
    store.add(_record(seed=1, acc=0.9))
    store.add(_record(system="CAML", seed=0, acc=0.7, failed=True))
    return store


class TestRawCsvRoundTrip:
    def test_row_count_and_header(self, small_store, tmp_path):
        path = tmp_path / "raw.csv"
        assert export_raw_csv(small_store, path) == 3
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 4
        assert rows[0][:4] == ["system", "dataset",
                               "configured_seconds", "seed"]

    def test_load_inverts_export_exactly(self, small_store, tmp_path):
        path = tmp_path / "raw.csv"
        export_raw_csv(small_store, path)
        loaded = load_raw_csv(path)
        assert loaded.records == small_store.records

    def test_types_survive_the_round_trip(self, small_store, tmp_path):
        path = tmp_path / "raw.csv"
        export_raw_csv(small_store, path)
        record = load_raw_csv(path).records[-1]
        assert isinstance(record.seed, int)
        assert isinstance(record.configured_seconds, float)
        assert record.failed is True
        assert record.note == "timeout"


class TestAggregateCsv:
    def test_one_row_per_populated_cell(self, small_store, tmp_path):
        path = tmp_path / "agg.csv"
        assert export_aggregate_csv(small_store, path) == 2
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        by_system = {row["system"]: row for row in rows}
        assert set(by_system) == {"TabPFN", "CAML"}
        tabpfn = by_system["TabPFN"]
        assert int(tabpfn["n_runs"]) == 2
        assert float(tabpfn["balanced_accuracy_mean"]) \
            == pytest.approx(0.85)
        assert int(tabpfn["n_failures"]) == 0
        assert int(by_system["CAML"]["n_failures"]) == 1

    def test_empty_store_writes_header_only(self, tmp_path):
        path = tmp_path / "agg.csv"
        assert export_aggregate_csv(ResultsStore(), path) == 0
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1
