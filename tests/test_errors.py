import json
import pickle
from dataclasses import dataclass, field

import numpy as np
import pytest

from mortdecomp.errors import (
    ConfigError,
    DegenerateDesignError,
    EmptyInputError,
    NonConvergenceError,
    RowError,
    SchemaError,
    SingularDesignError,
    read_csv,
    read_fields,
    read_json,
    write_csv,
    write_json,
)


@pytest.mark.parametrize(
    "error",
    [
        ConfigError("bad config"),
        SchemaError("bad schema"),
        EmptyInputError("no rows"),
        RowError("s2.csv", 7, "non-numeric cell 'x'"),
        DegenerateDesignError("sex"),
        DegenerateDesignError("sex", "survey S2: column 3 of group 'sex' is constant"),
        SingularDesignError(1.25e-19),
        NonConvergenceError("no convergence after 50 iterations", last_iterate=np.array([0.5, -1.0])),
    ],
    ids=lambda e: type(e).__name__,
)
def test_errors_survive_pickling(error):
    # an error raised in a fit process reaches the parent through a pickle
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert back.args == error.args
    assert vars(back).keys() == vars(error).keys()
    for name, value in vars(error).items():
        assert np.array_equal(getattr(back, name), value), name


@dataclass(frozen=True)
class Section:
    size: int
    scale: float = 1.0
    thin: int | None = None
    flag: bool = False
    label: str = "x"
    values: tuple = ()

    def __post_init__(self):
        if self.size < 1:
            raise ConfigError(f"size must be >= 1, got {self.size}")


SECTION_KINDS = {"size": int, "scale": float, "thin": int, "flag": bool, "label": str, "values": tuple}


def test_read_fields_reads_every_kind_and_null_for_a_none_default():
    raw = {"size": 2, "scale": 3, "thin": None, "flag": True, "label": "y", "values": [1, 2.5]}
    read = read_fields(Section, raw, "sec", SECTION_KINDS)
    assert read == Section(2, 3.0, None, True, "y", (1.0, 2.5))
    assert type(read.scale) is float
    assert read_fields(Section, {"size": 2, "thin": 4}, "sec", SECTION_KINDS) == Section(2, thin=4)


@pytest.mark.parametrize(
    "value, words",
    [
        ([], "sec must be an object, got list"),
        ({}, "missing key(s): sec.size"),
        ({"size": 2, "sise": 1}, "sec has unknown key(s): sise"),
        ({"size": 2.5}, "sec.size must be a whole number"),
        ({"size": "2"}, "sec.size must be a whole number"),
        ({"size": 2, "scale": None}, "sec.scale must be a finite number"),  # null only for a None default
        ({"size": 2, "thin": 1.5}, "sec.thin must be a whole number"),
        ({"size": 2, "flag": "yes"}, "sec.flag must be true or false"),
        ({"size": 2, "label": 5}, "sec.label must be a string"),
        ({"size": 2, "values": 5}, "sec.values must be a list of numbers"),
        ({"size": 2, "values": [1, "2"]}, "sec.values must be a finite number"),
        ({"size": 0}, "sec: size must be >= 1, got 0"),
    ],
    ids=["not_object", "missing", "unknown", "fractional", "string_number", "null", "nullable_fractional",
         "bool_string", "str_number", "list_number", "list_entry_string", "refused_by_the_class"],
)
def test_read_fields_names_the_section_and_key(value, words):
    with pytest.raises(ConfigError) as err:
        read_fields(Section, value, "sec", SECTION_KINDS)
    assert words in str(err.value)


@dataclass(frozen=True)
class Document:
    section: Section
    seed: int = 0
    derived: int = field(init=False, default=0)

    def __post_init__(self):
        if self.seed == 7:
            raise ConfigError("seed 7 is refused")


DOCUMENT_KINDS = {"section": lambda value: read_fields(Section, value, "section", SECTION_KINDS), "seed": int}


def test_read_fields_reads_a_whole_config_with_a_reader_per_section():
    assert read_fields(Document, {"section": {"size": 2}, "seed": 3}, "", DOCUMENT_KINDS) == Document(Section(2), 3)


@pytest.mark.parametrize(
    "value, words",
    [
        ([], "config must be an object, got list"),
        ({}, "missing key(s): config.section"),
        ({"section": {"size": 2}, "derived": 1}, "config has unknown key(s): derived"),  # set by the class, not a key
        ({"section": {"size": 2}, "seed": "3"}, "seed must be a whole number, got '3'"),
        ({"section": {"size": 0}}, "section: size must be >= 1, got 0"),
        ({"section": {"size": 2}, "seed": 7}, "seed 7 is refused"),
    ],
    ids=["not_object", "missing", "init_false_field", "top_level_key", "section_refused", "refused_by_the_class"],
)
def test_read_fields_names_top_level_keys_by_path_and_prefixes_no_message(value, words):
    with pytest.raises(ConfigError) as err:
        read_fields(Document, value, "", DOCUMENT_KINDS)
    assert str(err.value) == words


def test_write_json_layout_and_read_json_round_trip(tmp_path):
    doc = {"b": [1, 2.5, None], "a": {"z": True, "y": "\u00e9"}}
    path = tmp_path / "doc.json"
    write_json(doc, path)
    assert path.read_bytes() == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
    assert read_json(path) == doc


@pytest.mark.parametrize(
    "data, words",
    [
        (b"", "file is empty"),
        (b" \n\t", "file is empty"),
        (b'{"a": "\xff"}', "not UTF-8 text (invalid start byte at byte 7)"),
        (b'{"a": ', "invalid JSON"),
    ],
    ids=["empty", "whitespace", "bad_bytes", "invalid_json"],
)
def test_read_json_names_the_file(tmp_path, data, words):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    with pytest.raises(ConfigError) as err:
        read_json(path)
    assert str(err.value).startswith(f"{path}: {words}")


def test_write_csv_and_read_csv_round_trip(tmp_path):
    rows = [["1", "a,b", 'say "hi"'], ["2", "", "\u00e9"]]
    path = tmp_path / "table.csv"
    write_csv(path, ["n", "text", "quote"], iter(rows))
    assert path.read_bytes() == 'n,text,quote\r\n1,"a,b","say ""hi"""\r\n2,,\u00e9\r\n'.encode("utf-8")
    assert read_csv(path) == [["n", "text", "quote"], *rows]


def test_read_csv_reads_blank_lines_as_empty_rows(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("a,b\n\n1,2\n\n", encoding="utf-8")
    assert read_csv(path) == [["a", "b"], [], ["1", "2"], []]


@pytest.mark.parametrize(
    "data, words",
    [
        (b"a,b\n1,2\n3," + b"4" * 200_000 + b"\n", ", line 3: field larger than field limit"),
        (b"a,b\n1,\xff\n", ": not UTF-8 text (invalid start byte)"),
    ],
    ids=["field_limit", "bad_bytes"],
)
def test_read_csv_names_the_file(tmp_path, data, words):
    path = tmp_path / "table.csv"
    path.write_bytes(data)
    with pytest.raises(ConfigError) as err:
        read_csv(path)
    assert str(err.value).startswith(f"{path}{words}")
