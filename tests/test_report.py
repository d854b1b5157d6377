import csv
import json

import numpy as np

from mortdecomp.dataset import DesignMatrix
from mortdecomp.decompose import annualize, percent_of, posterior_decompose
from mortdecomp.report import (
    format_percent,
    format_rate,
    load_results,
    summary_to_dict,
    write_all_tables,
    write_decomposition_json,
    write_variance_profile,
)
from mortdecomp.sampler import PosteriorDraws
from mortdecomp.validation import variance_collapse


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestPaperArithmetic:
    def test_cambodia_row(self):
        # total decline 75 per 1000 over 14 years; covariate and
        # coefficient effects 1.0 and 4.4 per 1000 per year
        overall_per_year = annualize(75.0, 14.0)
        assert format_rate(overall_per_year) == "5.4"
        assert format_percent(percent_of(1.0, overall_per_year)) == "18"
        assert format_percent(percent_of(4.4, overall_per_year)) == "82"

    def test_mali_row(self):
        assert format_rate(annualize(77.0, 16.0)) == "4.8"

    def test_rate_formatting(self):
        assert format_rate(5.35) == "5.3"  # binary 5.35 is just below the tie
        assert format_rate(0.0) == "0.0"
        assert format_rate(-1.26) == "-1.3"
        assert format_rate(float("nan")) == ""

    def test_percent_truncates_toward_zero(self):
        assert format_percent(82.9) == "82"
        assert format_percent(-31.7) == "-31"
        assert format_percent(float("nan")) == ""
        assert format_percent(131.2) == "131"

    def test_flag(self, tmp_path):
        # the significant column of both component tables reads true or false
        doc = summary_to_dict(small_summary()[0])
        for name, flag in zip(("x_effect", "beta_effect", "intercept", "wealth", "sex"), (True, False, False, True, True)):
            doc["components"][name]["significant"] = flag
        write_all_tables(doc, tmp_path)
        overall = read_csv(tmp_path / "overall_decomp.csv")
        coef = read_csv(tmp_path / "coef_decomp.csv")
        assert [r[-1] for r in overall] == ["significant", "true", "false"]
        assert [r[-1] for r in coef] == ["significant", "false", "false", "true", "true"]


def small_summary():
    rng = np.random.default_rng(40)
    x1 = np.column_stack([np.ones(30), rng.normal(size=(30, 2))])
    x2 = np.column_stack([np.ones(30), rng.normal(size=(30, 2))])
    groups = {"wealth": (1, 2), "sex": (2, 3)}
    d1 = DesignMatrix(x=x1, outcome=np.zeros(30, dtype=np.int64),
                      cluster_index=np.zeros(30, dtype=np.int64), column_groups=groups, n_clusters=1)
    d2 = DesignMatrix(x=x2, outcome=np.zeros(30, dtype=np.int64),
                      cluster_index=np.zeros(30, dtype=np.int64), column_groups=groups, n_clusters=1)
    beta1 = rng.normal(size=(120, 3), scale=0.1) + np.array([-1.0, 0.2, 0.1])
    beta2 = rng.normal(size=(120, 3), scale=0.1) + np.array([-1.4, 0.1, 0.1])
    draws1 = PosteriorDraws(survey_id="S1", beta=beta1, sigma2=rng.gamma(2, 0.1, 120), column_groups=groups)
    draws2 = PosteriorDraws(survey_id="S2", beta=beta2, sigma2=rng.gamma(2, 0.1, 120), column_groups=groups)
    summary = posterior_decompose(d1, d2, draws1, draws2, years_between=14.0)
    profile = variance_collapse(d2, draws1, draws2)
    return summary, profile


class TestTables:
    def test_json_round_trip_and_tables(self, tmp_path):
        summary, profile = small_summary()
        doc = summary_to_dict(summary)
        write_decomposition_json(doc, tmp_path / "decomposition.json")
        loaded = json.loads((tmp_path / "decomposition.json").read_text())
        assert loaded == json.loads(json.dumps(doc))
        assert "convention" not in loaded
        # a document that still carries the dropped "convention" key loads as before
        write_decomposition_json({**doc, "convention": "appendix_divide"}, tmp_path / "old.json")
        assert load_results(tmp_path / "old.json")["components"] == loaded["components"]

        paths = write_all_tables(loaded, tmp_path)
        assert sorted(p.name for p in paths) == ["coef_decomp.csv", "mortality.csv", "overall_decomp.csv"]

        mort = read_csv(tmp_path / "mortality.csv")
        assert mort[0][0] == "years_between"
        assert len(mort) == 2
        # displayed diff equals s1 - s2 at display precision up to rounding
        s1 = float(mort[1][1])
        s2 = float(mort[1][4])
        diff = float(mort[1][7])
        assert abs((s1 - s2) - diff) < 0.21  # two one-decimal roundings

        overall = read_csv(tmp_path / "overall_decomp.csv")
        assert [r[0] for r in overall[1:]] == ["x_effect", "beta_effect"]
        for row in overall[1:]:
            assert row[7] in ("true", "false")

        coef = read_csv(tmp_path / "coef_decomp.csv")
        assert [r[0] for r in coef[1:]] == ["beta_effect", "intercept", "wealth", "sex"]

    def test_displayed_percents_come_from_full_precision(self, tmp_path):
        summary, _ = small_summary()
        doc = summary_to_dict(summary)
        write_all_tables(doc, tmp_path)
        overall = read_csv(tmp_path / "overall_decomp.csv")
        import math

        want_x = str(math.trunc(doc["components"]["x_effect"]["percent"]))
        assert overall[1][4] == want_x

    def test_variance_profile_csv(self, tmp_path):
        _, profile = small_summary()
        write_variance_profile(profile, tmp_path / "variance_profile.csv")
        rows = read_csv(tmp_path / "variance_profile.csv")
        assert rows[0] == ["m", "group_added", "partial_sum_variance"]
        assert [r[1] for r in rows[1:]] == ["intercept", "wealth", "sex"]
        assert [int(r[0]) for r in rows[1:]] == [1, 2, 3]
        # full-precision round trip
        vals = [float(r[2]) for r in rows[1:]]
        np.testing.assert_array_equal(vals, profile.partial_sum_variance)

    def test_non_finite_percent_serializes_as_null(self, tmp_path):
        summary, _ = small_summary()
        doc = summary_to_dict(summary)
        doc["components"]["x_effect"]["percent"] = None
        write_all_tables(doc, tmp_path)
        overall = read_csv(tmp_path / "overall_decomp.csv")
        assert overall[1][4] == ""
