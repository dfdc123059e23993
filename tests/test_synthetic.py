import hashlib

import numpy as np
import pytest

from loadcast.errors import InvalidConfig
from loadcast.ingest import load_and_align
from loadcast.synthetic import COMFORT_K, ZONE_WEIGHT, generate_synthetic, simulate


class TestGenerateSynthetic:
    def test_one_year_row_counts(self, tmp_path):
        load_path, weather_path = generate_synthetic(1, 3, tmp_path)
        assert sum(1 for _ in open(load_path)) == 8760 + 1
        assert sum(1 for _ in open(weather_path)) == 8 * 8760 + 1

    def test_identical_seed_identical_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        la, wa = generate_synthetic(0.05, 11, a)
        lb, wb = generate_synthetic(0.05, 11, b)
        assert la.read_bytes() == lb.read_bytes()
        assert wa.read_bytes() == wb.read_bytes()

    def test_golden_bytes(self, tmp_path):
        load_path, weather_path = generate_synthetic(0.1, 3, tmp_path)
        assert hashlib.sha256(load_path.read_bytes()).hexdigest() == (
            "912e3877b9c5b05e8b519b3030c41ec3f2fd88864db5481f01036307d4cc8168")
        assert hashlib.sha256(weather_path.read_bytes()).hexdigest() == (
            "75ba052f35263b7b3943041cc1c91cb0a95ae5c11c91589477af4828fa092afa")

    def test_different_seeds_differ(self, tmp_path):
        la, _ = generate_synthetic(0.05, 1, tmp_path / "a")
        lb, _ = generate_synthetic(0.05, 2, tmp_path / "b")
        assert la.read_bytes() != lb.read_bytes()

    def test_load_correlates_with_comfort_gap(self):
        _, loads, temp, *_ = simulate(2 * 8760, seed=42)
        weighted = temp @ ZONE_WEIGHT
        r = np.corrcoef(loads, np.abs(weighted - COMFORT_K))[0, 1]
        assert r > 0.5

    def test_invalid_years(self, tmp_path):
        for years in (0, -1, float("nan"), float("inf"), 1e305):  # 1e305 years overflow in hours
            with pytest.raises(InvalidConfig):
                generate_synthetic(years, 1, tmp_path)
        for years in (0.00001, 0.5 / 8760):  # both round to zero hours
            with pytest.raises(InvalidConfig, match=rf"^years must .* half an hour, got {years}$"):
                generate_synthetic(years, 1, tmp_path)
        assert not list(tmp_path.iterdir())

    def test_negative_seed(self, tmp_path):
        with pytest.raises(InvalidConfig, match="seed"):
            generate_synthetic(0.01, -1, tmp_path)
        assert not (tmp_path / "load.csv").exists()

    def test_pipeline_alignment_full_intersection(self, tmp_path):
        load_path, weather_path = generate_synthetic(0.1, 5, tmp_path)
        series = load_and_align(load_path, weather_path)
        assert len(series) == round(0.1 * 8760)
        assert series.segments == ((0, len(series)),)
        assert np.all(series.load_mw > 0)
        assert np.all(series.weather[:, :, 0] > 0)      # temperature
        assert np.all(series.weather[:, :, 1] >= 0)     # combined wind
        assert np.all(series.weather[:, :, 2:] >= 0)    # radiation
