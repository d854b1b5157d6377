import csv
import json
import pickle
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from mortdecomp import dataset
from mortdecomp.dataset import (
    _number,
    _parse_numbers,
    CovariateSchema,
    CovariateSpec,
    build_design,
    compute_centering,
    default_schema,
    ingest_csv,
    place_knots,
    pool_samples,
    SurveySample,
    write_survey_csv,
)
from mortdecomp.cli import main
from mortdecomp.errors import (
    ConfigError,
    DegenerateDesignError,
    EmptyInputError,
    MortdecompError,
    RowError,
    SchemaError,
)
from mortdecomp.simulate import synthesize
from mortdecomp.splines import bspline_basis, quantile_knots

CSV_HEADER = "outcome,maternal_age,maternal_education,birth_order,birth_interval,sex,residence,wealth_rank,cluster_id\n"


def write_csv(tmp_path, rows, header=CSV_HEADER, name="survey.csv"):
    path = tmp_path / name
    path.write_text(header + "".join(rows), encoding="utf-8")
    return path


def make_sample(rows, survey_id="S1"):
    fields = sorted({k for r in rows for k in r} - {"outcome", "cluster_id"})
    return SurveySample.from_columns(
        survey_id,
        outcome=[r["outcome"] for r in rows],
        cluster_id=[r["cluster_id"] for r in rows],
        columns={name: [r.get(name) for r in rows] for name in fields},
    )


class TestIngest:
    def test_three_rows_two_clusters(self, tmp_path):
        path = write_csv(
            tmp_path,
            [
                "0,25,6,2,24,female,rural,0.3,a\n",
                "1,30,2,4,,male,urban,0.1,a\n",
                "0,22,8,1,,female,rural,0.9,b\n",
            ],
        )
        sample = ingest_csv(path, default_schema())
        assert sample.n_clusters == 2 and sample.cluster_ids == ("a", "b")
        assert sample.n_births == 3
        assert sample.dropped_rows == 0
        np.testing.assert_array_equal(sample.cluster, [0, 0, 1])
        assert sample.outcome[0] == 0 and sample.columns["maternal_age"][0] == 25.0
        assert np.isnan(sample.columns["birth_interval"][1])
        assert sample.columns["sex"][1] == "male"
        with pytest.raises(ValueError):
            sample.outcome[0] = 1

    def test_interleaved_clusters_keep_file_order(self, tmp_path):
        path = write_csv(
            tmp_path,
            [
                "0,25,6,2,24,female,rural,0.3,z\n",
                "1,30,2,4,,male,urban,0.1,a\n",
                "0,22,8,1,,female,rural,0.9,z\n",
            ],
        )
        sample = ingest_csv(path, default_schema())
        assert sample.cluster_ids == ("z", "a")
        np.testing.assert_array_equal(sample.cluster, [0, 1, 0])
        # births keep their file order
        np.testing.assert_array_equal(sample.outcome, [0, 1, 0])
        np.testing.assert_array_equal(sample.columns["maternal_age"], [25.0, 30.0, 22.0])

    def test_header_names_are_stripped(self, tmp_path):
        header = CSV_HEADER.replace(",", ", ")
        path = write_csv(tmp_path, ["0, 25,6,2,24,female,rural,0.3,a\n"], header=header)
        sample = ingest_csv(path, default_schema())
        assert sample.columns["maternal_age"][0] == 25.0

    def test_missing_cluster_id_column(self, tmp_path):
        header = CSV_HEADER.replace(",cluster_id", "")
        path = write_csv(tmp_path, ["0,25,6,2,24,female,rural,0.3\n"], header=header)
        with pytest.raises(SchemaError, match="cluster_id"):
            ingest_csv(path, default_schema())

    @pytest.mark.parametrize(
        "header, row, name",
        [
            (CSV_HEADER.replace("\n", ",outcome\n"), "0,25,6,2,24,female,rural,0.3,a,1\n", "outcome"),
            (CSV_HEADER.replace(",sex,", ",sex, sex ,"), "0,25,6,2,24,female,male,rural,0.3,a\n", "sex"),
        ],
        ids=["outcome_twice", "sex_twice_after_stripping"],
    )
    def test_repeated_header_name_raises_schema_error(self, tmp_path, header, row, name):
        # reading one copy of the name would silently ignore the other
        path = write_csv(tmp_path, [row], header=header)
        with pytest.raises(SchemaError, match=f"{re.escape(str(path))}: column '{name}' appears more than once"):
            ingest_csv(path, default_schema())

    def test_underage_row_dropped_and_counted(self, tmp_path):
        path = write_csv(
            tmp_path,
            [
                "0,14,6,2,24,female,rural,0.3,a\n",
                "0,25,6,2,24,female,rural,0.3,a\n",
            ],
        )
        sample = ingest_csv(path, default_schema())
        assert sample.n_births == 1
        assert sample.dropped_rows == 1

    def test_age_bounds_inclusive(self, tmp_path):
        path = write_csv(
            tmp_path,
            [
                "0,15,6,2,24,female,rural,0.3,a\n",
                "0,45,6,2,24,female,rural,0.3,a\n",
                "0,45.1,6,2,24,female,rural,0.3,a\n",
            ],
        )
        sample = ingest_csv(path, default_schema())
        assert sample.n_births == 2 and sample.dropped_rows == 1

    def test_unparseable_cell_reports_line(self, tmp_path):
        path = write_csv(
            tmp_path,
            [
                "0,25,6,2,24,female,rural,0.3,a\n",
                "0,banana,6,2,24,female,rural,0.3,a\n",
            ],
        )
        with pytest.raises(RowError) as err:
            ingest_csv(path, default_schema())
        assert err.value.line_number == 3

    def test_empty_file_distinct_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EmptyInputError):
            ingest_csv(path, default_schema())
        path.write_text(CSV_HEADER)
        with pytest.raises(EmptyInputError):
            ingest_csv(path, default_schema())

    def test_bad_enum_value_reports_line(self, tmp_path):
        path = write_csv(tmp_path, ["0,25,6,2,24,FEMALE,rural,0.3,a\n"])
        with pytest.raises(RowError):
            ingest_csv(path, default_schema())

    def test_minimal_header_for_reduced_schema(self, tmp_path):
        schema = CovariateSchema((CovariateSpec("sex", "binary", reference="female"),))
        path = tmp_path / "mini.csv"
        path.write_text("outcome,sex,cluster_id\n0,female,a\n1,male,b\n")
        sample = ingest_csv(path, schema)
        assert sample.n_births == 2
        assert set(sample.columns) == {"sex"}


class TestCentering:
    def test_poorest_subset_mean(self):
        schema = CovariateSchema((CovariateSpec("maternal_age", "continuous_spline", degree=1, df=1),))
        sample = make_sample(
            [
                {"outcome": 0, "cluster_id": "a", "wealth_rank": 0.10, "maternal_age": 18.0},
                {"outcome": 0, "cluster_id": "a", "wealth_rank": 0.15, "maternal_age": 22.0},
                {"outcome": 0, "cluster_id": "b", "wealth_rank": 0.50, "maternal_age": 30.0},
            ]
        )
        constants = compute_centering(sample, schema)
        assert constants == {"maternal_age": 20.0}

    def test_empty_poor_subset_falls_back(self):
        schema = CovariateSchema((CovariateSpec("maternal_age", "continuous_spline", degree=1, df=1),))
        sample = make_sample(
            [
                {"outcome": 0, "cluster_id": "a", "wealth_rank": 0.9, "maternal_age": 20.0},
                {"outcome": 0, "cluster_id": "b", "wealth_rank": 0.9, "maternal_age": 40.0},
            ]
        )
        constants = compute_centering(sample, schema)
        np.testing.assert_allclose(constants["maternal_age"], 30.0)

    def test_sample_without_wealth_rank_takes_full_sample_means(self):
        # no birth of such a survey is in the reference group, so it falls back as an empty one does
        schema = CovariateSchema((CovariateSpec("maternal_age", "continuous_spline", degree=1, df=1),))
        sample = make_sample(
            [
                {"outcome": 0, "cluster_id": "a", "maternal_age": 18.0},
                {"outcome": 0, "cluster_id": "b", "maternal_age": 30.0},
            ]
        )
        assert compute_centering(sample, schema) == {"maternal_age": 24.0}

    def test_empty_sample_errors(self):
        # a sample of no births is refused where it is made, so centering never sees one
        with pytest.raises(EmptyInputError, match="^no births left after the maternal_age filter .*: all 0 rows dropped$"):
            make_sample([])


def binary_rows(n_per_level):
    rows = []
    for i in range(n_per_level):
        rows.append({"outcome": 0, "cluster_id": f"c{i % 3}", "sex": "female"})
        rows.append({"outcome": 1, "cluster_id": f"c{i % 3}", "sex": "male"})
    return rows


class TestBuildDesign:
    def test_sex_only_reference_coding(self):
        schema = CovariateSchema((CovariateSpec("sex", "binary", reference="female"),))
        sample = make_sample(binary_rows(4))
        design = build_design(sample, schema, {}, sample.columns)
        assert design.n_cols == 2
        sexes = sample.columns["sex"]
        np.testing.assert_array_equal(design.x[:, 1], [1.0 if s == "male" else 0.0 for s in sexes])
        assert design.column_groups == {"sex": (1, 2)}

    def test_shared_knot_source_gives_identical_layout(self):
        rng = np.random.default_rng(5)
        schema = CovariateSchema(
            (
                CovariateSpec("maternal_age", "continuous_spline", degree=3, df=4),
                CovariateSpec("sex", "binary", reference="female"),
            )
        )

        def rows(n, seed_shift):
            return [
                {
                    "outcome": int(rng.integers(0, 2)),
                    "cluster_id": f"c{i % 4}",
                    "maternal_age": float(rng.uniform(16, 44)),
                    "sex": "male" if rng.random() < 0.5 else "female",
                    "wealth_rank": float(rng.uniform(0, 1)),
                }
                for i in range(n)
            ]

        s1 = make_sample(rows(60, 0), survey_id="S1")
        s2 = make_sample(rows(80, 1), survey_id="S2")
        centering = compute_centering(s1, schema)
        pooled = pool_samples(s1, s2)
        d1 = build_design(s1, schema, centering, pooled)
        d2 = build_design(s2, schema, centering, pooled)
        assert d1.column_groups == d2.column_groups
        assert d1.n_cols == d2.n_cols == 1 + 4 + 1
        # the knots placed once give the same designs; a layout placed under another schema is refused
        layout = place_knots(schema, centering, pooled)
        for sample, design in ((s1, d1), (s2, d2)):
            assert build_design(sample, schema, centering, layout).x.tobytes() == design.x.tobytes()
        with pytest.raises(ValueError, match="another schema or centering"):
            build_design(s1, CovariateSchema(schema.covariates[:1]), centering, layout)

    def test_constant_binary_column_is_degenerate(self):
        schema = CovariateSchema((CovariateSpec("sex", "binary", reference="female"),))
        rows = [{"outcome": i % 2, "cluster_id": "a", "sex": "female"} for i in range(6)]
        sample = make_sample(rows)
        with pytest.raises(DegenerateDesignError, match="^survey S1: column 1 of group 'sex' is constant$"):
            build_design(sample, schema, {}, sample.columns)

    def test_design_is_deterministic_and_frozen(self):
        schema = CovariateSchema((CovariateSpec("sex", "binary", reference="female"),))
        sample = make_sample(binary_rows(5))
        c = {}
        d1 = build_design(sample, schema, c, sample.columns)
        d2 = build_design(sample, schema, c, sample.columns)
        assert d1.x.tobytes() == d2.x.tobytes()
        assert d1.outcome.tobytes() == d2.outcome.tobytes()
        with pytest.raises(ValueError):
            d1.x[0, 0] = 2.0

    def test_centering_with_zero_constants_is_identity(self):
        spec = CovariateSpec("maternal_age", "continuous_spline", degree=1, df=1)
        schema = CovariateSchema((spec,))
        rows = [
            {"outcome": 0, "cluster_id": "a", "maternal_age": float(a), "wealth_rank": 0.1}
            for a in (18, 25, 33, 41)
        ]
        sample = make_sample(rows)
        zeros = {"maternal_age": 0.0}
        d_zero = build_design(sample, schema, zeros, sample.columns)
        d_zero_again = build_design(sample, schema, zeros, sample.columns)
        np.testing.assert_array_equal(d_zero.x, d_zero_again.x)

    def test_cluster_ordinals_follow_first_appearance(self):
        schema = CovariateSchema((CovariateSpec("sex", "binary", reference="female"),))
        rows = [
            {"outcome": 0, "cluster_id": "z", "sex": "male"},
            {"outcome": 0, "cluster_id": "a", "sex": "female"},
            {"outcome": 0, "cluster_id": "z", "sex": "female"},
        ]
        sample = make_sample(rows)
        design = build_design(sample, schema, {}, sample.columns)
        # births keep their order; z, seen first, is cluster 0
        np.testing.assert_array_equal(design.cluster_index, [0, 1, 0])
        np.testing.assert_array_equal(design.x[:, 1], [1.0, 0.0, 0.0])

    def test_group_map_partitions_columns(self):
        rng = np.random.default_rng(11)
        schema = default_schema()
        rows = []
        for i in range(120):
            rows.append(
                {
                    "outcome": int(rng.integers(0, 2)),
                    "cluster_id": f"c{i % 6}",
                    "maternal_age": float(rng.uniform(16, 44)),
                    "maternal_education": float(rng.uniform(0, 14)),
                    "birth_order": int(rng.integers(1, 8)),
                    "birth_interval": None if rng.random() < 0.2 else float(rng.uniform(9, 60)),
                    "sex": "male" if rng.random() < 0.5 else "female",
                    "residence": "urban" if rng.random() < 0.4 else "rural",
                    "wealth_rank": float(rng.uniform(0, 1)),
                }
            )
        sample = make_sample(rows)
        design = build_design(sample, schema, compute_centering(sample, schema), sample.columns)
        covered = []
        for lo, hi in design.column_groups.values():
            assert hi > lo
            covered.extend(range(lo, hi))
        assert sorted(covered) == list(range(1, design.n_cols))
        # birth_interval group carries spline columns plus the missing indicator
        lo, hi = design.column_groups["birth_interval"]
        assert hi - lo == 4 + 1

    def test_missing_covariate_field_errors(self):
        schema = CovariateSchema((CovariateSpec("maternal_education", "continuous_spline", degree=1, df=1),))
        rows = [{"outcome": 0, "cluster_id": "a", "wealth_rank": 0.1} for _ in range(4)]
        sample = make_sample(rows)
        centering = {"maternal_education": 0.0}
        with pytest.raises(SchemaError):
            build_design(sample, schema, centering, sample.columns)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 999, 1000])
def test_median_matches_numpy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for v in (rng.standard_normal(n), rng.integers(15, 49, n).astype(float), rng.exponential(1e300, n)):
        assert np.float64(dataset._median(v.copy())).tobytes() == np.median(v).tobytes()


def test_binary_reference_is_checked_whenever_a_spec_is_built():
    # built in code as when read from a config: a misspelt level would leave the column constant
    with pytest.raises(SchemaError, match=r"sex: reference must be one of \('female', 'male'\), got 'femal'"):
        CovariateSpec("sex", "binary", reference="femal")
    with pytest.raises(SchemaError, match="residence: reference"):
        CovariateSpec("residence", "binary", reference=0)
    with pytest.raises(ConfigError, match="birth_order: reference"):
        CovariateSpec("birth_order", "binary", reference="first")  # a numeric field splits at a number
    assert CovariateSpec("birth_order", "binary", reference=1).reference == 1


def test_schema_round_trip_and_validation():
    schema = default_schema()
    again = CovariateSchema.from_dict(schema.to_dict())
    assert again == schema
    with pytest.raises(SchemaError):
        CovariateSchema((CovariateSpec("sex", "binary", reference="female"),) * 2)
    with pytest.raises(SchemaError):
        CovariateSpec("maternal_age", "continuous_spline", degree=3, df=2)
    with pytest.raises(SchemaError):
        CovariateSpec("sex", "binary")  # no reference level


def test_samples_and_designs_stay_read_only_across_a_pickle():
    # samples read in a survey process reach the parent through a pickle
    sample = make_sample(
        [{"outcome": k % 2, "cluster_id": f"c{k % 3}", "sex": ("female", "male")[k % 2], "wealth_rank": k / 10}
         for k in range(8)]
    )
    schema = CovariateSchema((CovariateSpec("sex", "binary", reference="female"),))
    design = build_design(sample, schema, {}, sample.columns)
    sample_back, design_back = pickle.loads(pickle.dumps((sample, design)))
    for arr in (sample_back.outcome, sample_back.cluster, *sample_back.columns.values(),
                design_back.x, design_back.outcome, design_back.cluster_index):
        assert not arr.flags.writeable
    assert pickle.dumps(sample_back) == pickle.dumps(sample)
    assert np.array_equal(design_back.x, design.x) and design_back.column_groups == design.column_groups


def test_csv_reader_error_names_the_file_and_line(tmp_path):
    path = write_csv(tmp_path, ["0,25,6,2,24,female,rural,0.3,a\n", "1,30,2,4,," + "x" * 200_000 + ",urban,0.1,a\n"])
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}, line 3: field larger than field limit"):
        ingest_csv(path, default_schema())


def test_a_leading_byte_order_mark_is_skipped(tmp_path):
    path = write_csv(tmp_path, ["0,25,6,2,24,female,rural,0.3,a\n", "1,30,2,4,,male,urban,0.1,b\n"])
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())  # as Excel's "CSV UTF-8" saves it
    want = ingest_csv(path, default_schema())
    assert pickle.dumps(ingest_csv(marked, default_schema())) == pickle.dumps(want)


def test_field_invariants_raise_row_error(tmp_path):
    for row, field in [
        ("2,25,6,2,24,female,rural,0.3,a\n", "outcome"),
        ("0,25,6,2,24,female,rural,1.2,a\n", "wealth_rank"),
        ("0,25,6,0,24,female,rural,0.3,a\n", "birth_order"),
        ("0,25,6,2,24,female,town,0.3,a\n", "residence"),
    ]:
        path = write_csv(tmp_path, ["0,25,6,2,24,female,rural,0.3,a\n", row])
        with pytest.raises(RowError, match=field) as err:
            ingest_csv(path, default_schema())
        assert err.value.line_number == 3


@pytest.mark.parametrize(
    "codes, n_clusters",
    [([0, 1, -1], 2), ([0, 1, 2], 2), ([0, 2, 2], 3), ([0, 0, 1], 3), ([1, 0, 1], 2)],
    ids=["negative", "not_below_n_clusters", "skipped", "unused", "out_of_first_appearance_order"],
)
def test_bad_cluster_codes_are_refused(codes, n_clusters):
    # the sampler's np.take(gamma, cluster, mode="clip") would clip an out-of-range code without a word
    def sample(codes, n_clusters):
        return SurveySample("S1", np.zeros(len(codes), dtype=np.int64), np.array(codes),
                            tuple(f"c{k}" for k in range(n_clusters)), {})

    assert sample([0, 1, 0, 2, 1], 3).n_clusters == 3  # interleaved, in first-appearance order
    with pytest.raises(ValueError, match="first-appearance order"):
        sample(codes, n_clusters)


@pytest.mark.parametrize("bad_id", ["", " a", "a ", "\ta", "a\n"])
def test_a_cluster_id_that_would_not_read_back_is_refused(bad_id):
    # ingest_csv strips each cell and refuses an empty cluster_id, so a written sample would change or fail
    with pytest.raises(ValueError, match=f"^cluster id {re.escape(repr(bad_id))} is empty or has surrounding"):
        make_sample([{"outcome": 0, "cluster_id": "a"}, {"outcome": 1, "cluster_id": bad_id}])
    assert make_sample([{"outcome": 0, "cluster_id": "a b"}, {"outcome": 1, "cluster_id": 'q"3'}]).n_clusters == 2


@pytest.mark.parametrize("bad_id", ["a\x00", "a\x00b", "\x00"])
def test_a_cluster_id_holding_a_nul_is_refused(bad_id):
    # numpy's str dtype drops a trailing NUL, so "a\x00" would silently join cluster "a"
    with pytest.raises(ValueError, match=f"^cluster id {re.escape(repr(bad_id))} holds a NUL character"):
        make_sample([{"outcome": 0, "cluster_id": "a"}, {"outcome": 1, "cluster_id": bad_id}])
    with pytest.raises(ValueError, match=f"^cluster id {re.escape(repr(bad_id))} holds a NUL character"):
        SurveySample("S1", np.zeros(2, dtype=np.int64), np.array([0, 1]), ("a", bad_id), {})


@pytest.mark.parametrize("field, level", [("sex", "male\x00"), ("sex", "fe\x00male"), ("residence", "urban\x00")])
def test_a_level_holding_a_nul_is_refused(field, level):
    # numpy's str dtype drops a trailing NUL, so from_columns read "male\x00" as "male"
    other = "female" if field == "sex" else "rural"
    with pytest.raises(ValueError, match=f"^{field} {re.escape(repr(level))} holds a NUL character"):
        make_sample([{"outcome": 0, "cluster_id": "a", field: other}, {"outcome": 1, "cluster_id": "b", field: level}])


@pytest.mark.parametrize("field", ["maternal_age", "maternal_education", "birth_order", "wealth_rank"])
def test_a_missing_value_outside_birth_interval_is_refused(field):
    # birth_interval is the one field a birth may lack; the CSV reader refuses any other empty cell,
    # and a sample made from columns now refuses the same births
    rows = [{"outcome": 0, "cluster_id": "a", field: 0.5 if field == "wealth_rank" else 20.0} for _ in range(3)]
    rows[2][field] = None
    with pytest.raises(ValueError, match=f"^birth 2: {field} is missing, and only birth_interval may be$"):
        make_sample(rows)
    rows[2].pop(field)
    rows[2]["birth_interval"] = None
    with pytest.raises(ValueError, match=f"^birth 2: {field} is missing"):
        make_sample(rows)  # a field absent from one birth's row reads as missing there
    kept = make_sample([{**row, field: 20.0 if field != "wealth_rank" else 0.5} for row in rows])
    assert np.isnan(kept.columns["birth_interval"][2])


def test_a_missing_cluster_id_is_refused_not_pooled_into_a_cluster_named_none():
    # str(None) made two births with no cluster one cluster "None"
    with pytest.raises(ValueError, match="^birth 1: cluster id is missing$"):
        make_sample([{"outcome": 0, "cluster_id": c} for c in ("a", None, None)])
    named = make_sample([{"outcome": 0, "cluster_id": c} for c in ("a", "None")])
    assert named.cluster_ids == ("a", "None")


@pytest.mark.parametrize("outcome, got", [([0.7, 1.9], "0.7"), ([1.0, 0.0, 2.5], "2.5"), ([0, None], "nan")])
def test_an_outcome_other_than_zero_or_one_is_refused_not_truncated(outcome, got):
    # the int64 cast truncated 0.7 to 0 and 1.9 to 1
    rows = [{"outcome": o, "cluster_id": "a"} for o in outcome]
    birth = next(i for i, o in enumerate(outcome) if o not in (0, 1))
    with pytest.raises(ValueError, match=f"^birth {birth}: outcome must be 0 or 1, got {got}$"):
        make_sample(rows)
    kept = make_sample([{"outcome": o, "cluster_id": "a"} for o in (1.0, 0.0, True)])
    assert kept.outcome.dtype == np.int64 and kept.outcome.tolist() == [1, 0, 1]


@pytest.mark.parametrize("field, level", [("sex", "female"), ("residence", "rural")])
def test_a_missing_level_is_named_as_missing(field, level):
    # a None level read as the level "None", refused as not one of the field's levels
    with pytest.raises(ValueError, match=f"^birth 1: {field} is missing, and only birth_interval may be$"):
        make_sample([{"outcome": 0, "cluster_id": "a", field: level}, {"outcome": 1, "cluster_id": "b", field: None}])


def test_allow_missing_is_for_birth_interval_alone():
    assert CovariateSpec("birth_interval", "continuous_spline", allow_missing=True).allow_missing
    with pytest.raises(SchemaError, match="^wealth_rank: allow_missing is for birth_interval alone"):
        CovariateSpec("wealth_rank", "continuous_spline", allow_missing=True)


def test_ingest_csv_takes_no_survey_year(tmp_path):
    # survey_year was the third positional parameter: an old call must not read the year as the survey id
    path = write_csv(tmp_path, ["0,25,6,2,24,female,rural,0.3,a\n"])
    with pytest.raises(TypeError):
        ingest_csv(path, default_schema(), 2000)
    assert ingest_csv(path, default_schema(), survey_id="S2").survey_id == "S2"
    assert not hasattr(ingest_csv(path, default_schema()), "survey_year")


@pytest.mark.parametrize(
    "row, field",
    [
        ("1\x00,25,6,2,24,female,rural,0.3,b\n", "outcome"),
        ("0,25,6,2,24,female,rural,0.3,a\x00\n", "cluster_id"),
        ("0,25,6,2,24,male\x00,rural,0.3,b\n", "sex"),
        ("0,25,6,2,24,female,urban\x00,0.3,b\n", "residence"),
    ],
    ids=["outcome", "cluster_id", "sex", "residence"],
)
def test_a_nul_character_in_a_str_cell_is_refused(tmp_path, row, field):
    # Python 3.11's CSV reader accepts NUL and numpy's str dtype drops one from a cell's end: cluster
    # "a\x00" merged into "a", "male\x00" read as male and outcome "1\x00" as 1; Python 3.10's reader
    # refuses the file itself
    path = write_csv(tmp_path, ["0,25,6,2,24,female,rural,0.3,a\n", row, "1,30,2,4,,male,urban,0.1,b\n"])
    with pytest.raises(MortdecompError) as err:
        ingest_csv(path, default_schema())
    if sys.version_info >= (3, 11):
        assert isinstance(err.value, RowError) and err.value.line_number == 3
        assert f"NUL character in {field}=" in str(err.value)


def test_field_invariants_hold_for_samples_built_in_code():
    with pytest.raises(ValueError, match="outcome"):
        make_sample([{"outcome": 2, "cluster_id": "a"}])
    with pytest.raises(ValueError, match="wealth_rank"):
        make_sample([{"outcome": 0, "cluster_id": "a", "wealth_rank": 1.2}])
    with pytest.raises(ValueError, match="birth_order"):
        make_sample([{"outcome": 0, "cluster_id": "a", "birth_order": 0}])


def test_dropped_rows_are_exempt_from_range_checks_but_not_parse_checks(tmp_path):
    path = write_csv(tmp_path, ["0,14,6,0,24,female,rural,1.5,a\n", "0,25,6,2,24,female,rural,0.3,a\n"])
    sample = ingest_csv(path, default_schema())
    assert sample.n_births == 1 and sample.dropped_rows == 1
    path = write_csv(tmp_path, ["0,14,six,2,24,female,rural,0.3,a\n", "0,25,6,2,24,female,rural,0.3,a\n"])
    with pytest.raises(RowError, match="maternal_education") as err:
        ingest_csv(path, default_schema())
    assert err.value.line_number == 2


def test_first_offending_row_wins_across_check_kinds(tmp_path):
    path = write_csv(
        tmp_path,
        [
            "0,25,6,2,24,female,rural,0.3,a\n",
            "0,25,6,2,24,female,rural,1.5,a\n",
            "0,25,6,2.5,24,female,rural,0.3,a\n",
        ],
    )
    with pytest.raises(RowError, match="wealth_rank") as err:
        ingest_csv(path, default_schema())
    assert err.value.line_number == 3


@pytest.mark.parametrize(
    "field, row",
    [
        ("birth_order", "0,25,6,inf,24,female,rural,0.3,a\n"),
        ("birth_interval", "0,25,6,2,nan,female,rural,0.3,a\n"),
        ("maternal_education", "0,25,inf,2,24,female,rural,0.3,a\n"),
        ("maternal_age", "0,nan,6,2,24,female,rural,0.3,a\n"),
    ],
    ids=["birth_order_inf", "birth_interval_nan", "maternal_education_inf", "maternal_age_nan"],
)
def test_non_finite_cell_raises_row_error(tmp_path, field, row):
    path = write_csv(tmp_path, ["0,25,6,2,24,female,rural,0.3,a\n", row])
    with pytest.raises(RowError, match=f"non-finite value {field}=") as err:
        ingest_csv(path, default_schema())
    assert err.value.line_number == 3


_finite = dict(allow_nan=False, allow_infinity=False)
_rows = st.lists(
    st.fixed_dictionaries(
        {
            "outcome": st.integers(0, 1),
            "cluster_id": st.sampled_from(["a", "b", "c 1", "z,2", 'q"3', "n\n4"]),
            "maternal_age": st.floats(15, 45, **_finite),
            "maternal_education": st.floats(-1e6, 1e6, **_finite),
            "birth_order": st.integers(1, 20),
            "birth_interval": st.none() | st.floats(0, 1e3, **_finite),
            "wealth_rank": st.floats(0, 1, **_finite),
            "sex": st.sampled_from(["female", "male"]),
            "residence": st.sampled_from(["rural", "urban"]),
        }
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(rows=_rows)
def test_write_then_ingest_round_trips_every_column(tmp_path_factory, rows):
    sample = make_sample(rows)
    path = tmp_path_factory.mktemp("round_trip") / "s.csv"
    write_survey_csv(sample, path)
    schema = CovariateSchema((CovariateSpec("sex", "binary", reference="female"),))
    again = ingest_csv(path, schema)
    assert again.dropped_rows == 0
    assert again.cluster_ids == sample.cluster_ids
    np.testing.assert_array_equal(again.outcome, sample.outcome)
    np.testing.assert_array_equal(again.cluster, sample.cluster)
    # a column missing on every birth is not written
    all_missing = {"birth_interval"} if np.isnan(sample.columns["birth_interval"]).all() else set()
    assert set(again.columns) == set(sample.columns) - all_missing
    for name in again.columns:
        np.testing.assert_array_equal(again.columns[name], sample.columns[name])


def test_row_error_lines_count_blank_lines_short_rows_and_quoted_line_breaks(tmp_path):
    schema = CovariateSchema((CovariateSpec("sex", "binary", reference="female"),))
    header = "outcome,sex,cluster_id\n"
    path = write_csv(tmp_path, ["0,female,a\n", "\n", "1,female\n"], header=header)
    with pytest.raises(RowError, match=f"^{re.escape(str(path))}, line 4: empty cluster_id$"):
        ingest_csv(path, schema)
    path = write_csv(
        tmp_path,
        ["0,female,a\n", "\n", "1,male,b\n", '0,female,"c\nd"\n', "0,mal,e\n"],
        header=header,
        name="quoted.csv",
    )
    with pytest.raises(RowError, match=f"^{re.escape(str(path))}, line 7: sex must be one of") as err:
        ingest_csv(path, schema)
    assert err.value.line_number == 7


def test_every_row_outside_the_age_filter_raises_at_ingest(tmp_path):
    path = write_csv(tmp_path, ["0,50,6,2,24,female,rural,0.3,a\n", "1,14,6,2,24,male,urban,0.5,b\n"])
    with pytest.raises(EmptyInputError, match="maternal_age filter \\[15, 45\\]: all 2 rows dropped") as err:
        ingest_csv(path, default_schema())
    assert str(path) in str(err.value)


def test_run_on_a_csv_emptied_by_the_age_filter_fails_at_load_samples(tmp_path, capsys):
    schema = {"covariates": [{"name": "sex", "kind": "binary", "reference": "female"}]}
    paths = []
    for k, age in ((1, 50.0), (2, 30.0)):
        rows = [f"{k % 2},{age},{'female' if i % 2 else 'male'},c{i % 3}\n" for i in range(12)]
        paths.append(str(write_csv(tmp_path, rows, header="outcome,maternal_age,sex,cluster_id\n", name=f"s{k}.csv")))
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "seed": 1,
                "out_dir": str(tmp_path / "out"),
                "input": {"mode": "csv", "s1_path": paths[0], "s2_path": paths[1]},
                "survey_years": {"s1": 2000, "s2": 2014},
                "schema": schema,
                "mcmc": {"total": 60, "burnin": 10, "thin": 1, "target_retained": 50},
                "auto_extend": False,
            }
        ),
        encoding="utf-8",
    )
    assert main(["run", "--config", str(config)]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[0])
    assert record["error"]["stage"] == "load_samples"
    assert record["error"]["type"] == "EmptyInputError"
    assert paths[0] in record["error"]["message"] and "maternal_age" in record["error"]["message"]


_cells = st.one_of(
    st.text(max_size=10),
    st.sampled_from(["", "  ", "inf", "-inf", "Infinity", "nan", "NaN", "1_000", "1__0", " 2.5 ", "\t3\n", "1e400", "+.5"]),
    st.floats().map(repr),
    st.floats().map(lambda v: f" {v!r}  "),
    st.tuples(st.sampled_from(["", " ", "\t", "\u2007", "\x1c", "\xa0"]), st.floats().map(repr)).map("".join),
)


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(_cells, min_size=1, max_size=8))
def test_bulk_parse_matches_the_per_cell_parse(cells):
    # the bulk parse runs whenever a column has no blank or bad cell:
    # check each cell alone as well as the whole column
    for column in [cells] + [[c] for c in cells]:
        stripped = [c.strip() for c in column]
        parsed = [_number(c) for c in stripped]
        values, bad = np.array(parsed, dtype=float), np.array([v is None for v in parsed], dtype=bool)
        empty = np.array(stripped) == ""
        got_values, got_bad, got_empty = _parse_numbers(column)
        assert np.array_equal(got_values, values, equal_nan=True)
        assert np.array_equal(np.signbit(got_values), np.signbit(values))
        assert np.array_equal(got_bad, bad) and np.array_equal(got_empty, empty)
        # the ingest's non-finite mask
        assert np.array_equal(~np.isfinite(got_values) & ~got_empty & ~got_bad, ~np.isfinite(values) & ~empty & ~bad)


# The data layer in bounded memory: CSV files are read and written in blocks of
# dataset._BLOCK_ROWS rows, and a design is filled in place.  The bounds are for
# the 20000-birth surveys of the large_dgp fixture, and each lies between the
# peak of a whole-file reader or writer, or of an hstacked design (21.2 MB,
# 11.0 MB, x + 5.1 MB), and that of the block code (9.0 MB, 2.4 MB, x + 1.3 MB);
# the writer's bound is a quarter of the row-at-a-time block writer's peak (2.41 MB).


@pytest.fixture(scope="module")
def large_pair(large_dgp):
    return synthesize(large_dgp, seed=2)


@pytest.fixture(scope="module")
def large_csv(large_pair, tmp_path_factory):
    path = tmp_path_factory.mktemp("large") / "s1.csv"
    write_survey_csv(large_pair[0], path)
    return path


def test_ingest_peak_memory_is_bounded(large_csv):
    sample, peak = traced_peak(ingest_csv, large_csv, default_schema())
    assert sample.n_births == 20_000
    assert peak < 15.0, f"ingest_csv peaked {peak:.1f} MB above its start"


def test_large_csv_reads_alike_in_any_blocks(large_csv, monkeypatch):
    # 10**6 rows hold the whole file in one block, as the reader held it before blocks
    pickles = []
    for block_rows in (4096, 1000, 10**6):
        monkeypatch.setattr(dataset, "_BLOCK_ROWS", block_rows)
        pickles.append(pickle.dumps(ingest_csv(large_csv, default_schema())))
    assert pickles[0] == pickles[1] == pickles[2]


def test_ingest_peak_grows_with_the_kept_columns_only(large_csv, tmp_path):
    # the same births twice: the peak grows by the extra kept columns, not by copies of them
    header, body = large_csv.read_text(encoding="utf-8").split("\n", 1)
    double = tmp_path / "double.csv"
    double.write_text(header + "\n" + body + body, encoding="utf-8")
    peaks, kept = [], []
    for path in (large_csv, double):
        sample, peak = traced_peak(ingest_csv, path, default_schema())
        peaks.append(peak)
        kept.append(sum(a.nbytes for a in (sample.outcome, sample.cluster, *sample.columns.values())) / 1e6)
    assert kept[1] == pytest.approx(2 * kept[0])
    growth = (peaks[1] - peaks[0]) / (kept[1] - kept[0])
    assert growth < 2.0, f"ingest_csv peaked {peaks[0]:.1f} MB, then {peaks[1]:.1f} MB: {growth:.2f}x the extra columns"


def test_a_bad_row_ends_the_parse(tmp_path, monkeypatch):
    # two rows a block: the header and the bad row, then two blocks of good rows
    monkeypatch.setattr(dataset, "_BLOCK_ROWS", 2)
    calls = []

    def counted(cells):
        calls.append(len(cells))
        return _parse_numbers(cells)

    monkeypatch.setattr(dataset, "_parse_numbers", counted)
    path = write_csv(tmp_path, ["0,banana,6,2,24,female,rural,0.3,a\n"] + [GOOD] * 4)
    assert ingested(path) == ("RowError", f"{path}, line 2: could not parse maternal_age='banana'")
    assert calls == [1] * 5  # block 1 only, one call per numeric field
    path = write_csv(tmp_path, ["0,banana,6,2,24,female,rural,0.3,a\n"] + [GOOD] * 3
                     + ["0,25,6,2,24," + "x" * 200_000 + ",rural,0.3,a\n"])
    assert ingested(path) == ("ConfigError", f"{path}, line 6: field larger than field limit (131072)")


def test_write_peak_memory_does_not_grow_with_the_sample(large_pair, tmp_path):
    # one block's cells at a time: the bound holds at any sample size.  A csv.writer row at a time over
    # 4096-birth blocks peaked at 2.41 MB; cells formatted a column at a time, sharing the level, outcome
    # and id strings, at 1.88 MB over 4096-birth blocks, 0.74 MB over 1024 and 0.34 MB over 4096 cells
    _, peak = traced_peak(write_survey_csv, large_pair[0], tmp_path / "s1.csv")
    assert peak < 0.6, f"write_survey_csv peaked {peak:.2f} MB above its start"


def test_design_is_built_in_place(large_pair):
    s1, s2 = large_pair
    schema = default_schema()
    centering, pooled = compute_centering(s1, schema), pool_samples(s1, s2)
    design, peak = traced_peak(build_design, s1, schema, centering, pooled)
    x_mb = design.x.nbytes / 1e6
    assert peak < x_mb + 2.5, f"build_design peaked {peak:.1f} MB for a {x_mb:.1f} MB x"


def test_knot_source_holds_the_numeric_columns_only(large_pair):
    s1, s2 = large_pair
    knot_source, peak = traced_peak(pool_samples, s1, s2)
    numeric = [name for name, col in s1.columns.items() if col.dtype.kind == "f" and name in s2.columns]
    assert list(knot_source) == numeric
    for name, col in knot_source.items():
        assert np.array_equal(col, np.concatenate([s1.columns[name], s2.columns[name]]), equal_nan=True)
        assert not col.flags.writeable
    held = sum(col.nbytes for col in knot_source.values()) / 1e6
    assert peak <= 1.05 * held, f"pool_samples peaked {peak:.1f} MB for {held:.1f} MB of columns"
    schema = default_schema()
    with pytest.raises(SchemaError, match="covariate 'wealth_rank' has no observed values in the sample"):
        build_design(s1, schema, compute_centering(s1, schema), {})


def hstacked_x(sample, schema, centering, knot_source):
    """The design's ``x`` as one block per covariate, joined by ``np.hstack``: the reference for the in-place fill."""
    blocks = [np.ones((sample.n_births, 1))]
    for cov in schema.covariates:
        if cov.kind == "binary":
            blocks.append((sample.columns[cov.name] != cov.reference).astype(float)[:, None])
            continue
        raw, src = sample.columns[cov.name], knot_source[cov.name]
        missing, src_missing = np.isnan(raw), np.isnan(src)
        center = centering[cov.name]
        src_median, median = float(np.median(src[~src_missing])), float(np.median(raw[~missing]))
        knots = quantile_knots(np.where(src_missing, src_median, src) - center, cov.degree, cov.df)
        cols = bspline_basis(np.where(missing, median, raw) - center, knots, cov.degree)[:, 1:]
        blocks.append(np.column_stack([cols, missing.astype(float)]) if cov.allow_missing else cols)
    return np.hstack(blocks)


@pytest.mark.parametrize("block_rows", [7, 4096])
def test_design_equals_the_hstacked_blocks_bit_for_bit(large_pair, monkeypatch, block_rows):
    monkeypatch.setattr(dataset, "_BLOCK_ROWS", block_rows)
    s1, s2 = large_pair
    schema = default_schema()
    centering, pooled = compute_centering(s1, schema), pool_samples(s1, s2)
    for sample in (s1, s2):
        want = hstacked_x(sample, schema, centering, pooled)
        assert build_design(sample, schema, centering, pooled).x.tobytes() == want.tobytes()


def per_cell_csv(sample, path):
    """``sample`` written one birth at a time with ``csv.writer``: the bytes ``write_survey_csv`` must give."""
    fields = [f for f in ("maternal_age", "maternal_education", "birth_order", "birth_interval", "wealth_rank",
                          "sex", "residence") if f in sample.columns]
    fields = [f for f in fields if sample.columns[f].dtype.kind == "U" or not np.isnan(sample.columns[f]).all()]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["outcome", *fields, "cluster_id"])
        for i in range(sample.n_births):
            row = [str(int(sample.outcome[i]))]
            for name in fields:
                v = sample.columns[name][i]
                if sample.columns[name].dtype.kind == "U":
                    row.append(str(v))
                else:
                    row.append("" if np.isnan(v) else str(int(v)) if name == "birth_order" else repr(float(v)))
            writer.writerow([*row, sample.cluster_ids[sample.cluster[i]]])


@pytest.mark.parametrize("block_rows", [1, 2, 4096])
def test_written_csv_equals_a_per_cell_writer(tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(dataset, "_WRITE_CELLS", 9 * block_rows)  # 9 columns a birth
    rows = [
        {"outcome": k % 2, "cluster_id": ('say "c", 1', "z,2", "a")[k % 3], "maternal_age": 15.0 + k / 3,
         "birth_order": 1 + k % 4, "birth_interval": None if k % 3 else 12.5 * k, "wealth_rank": k / 7,
         "sex": ("female", "male")[k % 2], "residence": ("rural", "urban")[k // 2 % 2]}
        for k in range(7)
    ]
    sample = make_sample(rows)
    write_survey_csv(sample, tmp_path / "blocks.csv")
    per_cell_csv(sample, tmp_path / "cells.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()
    assert b'"say ""c"", 1"' in (tmp_path / "cells.csv").read_bytes()


def test_large_written_csv_equals_a_per_cell_writer(large_pair, large_csv, tmp_path):
    per_cell_csv(large_pair[0], tmp_path / "cells.csv")
    assert large_csv.read_bytes() == (tmp_path / "cells.csv").read_bytes()


GOOD = "0,25,6,2,24,female,rural,0.3,a\n"


def ingested(path, schema=None):
    """The pickled sample that ``ingest_csv`` reads from ``path``, or the type and text of its error."""
    try:
        return pickle.dumps(ingest_csv(path, schema or default_schema()))
    except MortdecompError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize(
    "header, body, want",
    [
        ("outcome,maternal_age,maternal_education,birth_order,sex,residence,wealth_rank,cluster_id,birth_interval\n",
         "0,25,6,2,female,rural,0.3,a,24\n\n1,30,2,4,male,urban,0.1,b\n\n\n0,22,8,1,female,rural,0.9,b\n"
         "1,31,9,3,male,rural,0.4,a,36\n",
         4),
        (CSV_HEADER, GOOD * 5 + "0,banana,6,2,24,female,rural,0.3,a\n",
         ("RowError", "{path}, line 7: could not parse maternal_age='banana'")),
        (CSV_HEADER, GOOD * 2 + "0,25,6,2,inf,female,rural,0.3,a\n" + GOOD * 3,
         ("RowError", "{path}, line 4: non-finite value birth_interval='inf'")),
        (CSV_HEADER, GOOD + "0,14,6,0,24,female,rural,1.5,a\n" + GOOD + "1,44,6,2,,male,urban,0.3,b\n", 3),
        (CSV_HEADER, GOOD + '0,25,6,2,24,female,rural,0.3,"c\nd"\n' + GOOD + "0,25,6,2,24,female,town,0.3,a\n",
         ("RowError", "{path}, line 6: residence must be one of ('rural', 'urban'), got 'town'")),
        (CSV_HEADER,
         GOOD + "0,banana,6,2,24,female,rural,0.3,a\n" + GOOD * 3 + "0,25,6,2,24," + "x" * 200_000 + ",rural,0.3,a\n",
         ("ConfigError", "{path}, line 7: field larger than field limit (131072)")),
        (CSV_HEADER, GOOD + "7,25,6,2,24,female,rural,0.3,a\n" + GOOD * 400 + "0,25,6,2,24,f\xffmale,rural,0.3,a\n",
         ("ConfigError", "{path}: not UTF-8 text (invalid start byte)")),
        (CSV_HEADER.replace("cluster_id", "cluster"), GOOD * 400 + "0,25,6,2,24,f\xffmale,rural,0.3,a\n",
         ("ConfigError", "{path}: not UTF-8 text (invalid start byte)")),
        (CSV_HEADER, GOOD * 2 + "1,30,2,4,,male,urban,0.1,b,a\n" + GOOD,
         ("RowError", "{path}, line 4: 10 cells under a 9-column header")),
        (CSV_HEADER, GOOD + "7,25,6,2,24,female,rural,0.3,a,\n",
         ("RowError", "{path}, line 3: 10 cells under a 9-column header")),
        (CSV_HEADER, GOOD + "0,banana,6,2,24,female,rural,0.3,a\n" + GOOD + "0,25,6,2,24,female,rural,0.3,a,b\n",
         ("RowError", "{path}, line 3: could not parse maternal_age='banana'")),
    ],
    ids=["blank_lines_and_short_rows", "bad_cell_in_the_last_block", "bad_cell_first_in_a_block",
         "row_dropped_by_the_age_filter", "quoted_cell_spanning_lines", "csv_error_in_a_later_block",
         "bad_byte_in_a_later_block", "bad_byte_after_a_bad_header", "row_longer_than_the_header",
         "long_row_fails_before_its_other_faults", "bad_row_before_a_long_row"],
)
def test_block_boundaries_change_nothing(tmp_path, monkeypatch, header, body, want):
    # one block holds the whole file, as the reader held it before blocks
    path = tmp_path / "survey.csv"
    path.write_bytes((header + body).encode("utf-8").replace(b"\xc3\xbf", b"\xff"))
    outcomes = {}
    for block_rows in (1, 2, 3, 10**6):
        monkeypatch.setattr(dataset, "_BLOCK_ROWS", block_rows)
        outcomes[block_rows] = ingested(path)
    assert all(outcome == outcomes[10**6] for outcome in outcomes.values()), outcomes
    if isinstance(want, int):
        assert pickle.loads(outcomes[10**6]).n_births == want
    else:
        assert outcomes[10**6] == (want[0], want[1].format(path=path))
