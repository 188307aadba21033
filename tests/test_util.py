import datetime as dt
import importlib.util
import json
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from nestflow._util import (
    add_months,
    canonical_bytes,
    canonical_json,
    fingerprint,
    load_yaml,
    month_floor,
    validate_payload,
)
from nestflow.errors import ConfigError, DatasetError

ROOT = Path(__file__).resolve().parents[1]

json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.text())
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=20,
)


@given(json_values)
def test_canonical_json_round_trips(value):
    assert json.loads(canonical_json(value)) == value


@given(st.dictionaries(st.text(min_size=1, max_size=8), st.integers(), max_size=6))
def test_canonical_json_ignores_key_order(mapping):
    reversed_map = dict(reversed(list(mapping.items())))
    assert canonical_json(mapping) == canonical_json(reversed_map)
    assert fingerprint(mapping) == fingerprint(reversed_map)


def test_canonical_json_is_compact_and_ascii():
    text = canonical_json({"b": 1, "a": "café"})
    assert text == '{"a":"caf\\u00e9","b":1}'
    assert canonical_bytes({"a": 1}) == b'{"a":1}'


def test_validate_payload_deep_copies():
    original = {"items": [1, 2], "nested": {"flag": True}}
    copy = validate_payload(original)
    copy["items"].append(3)
    copy["nested"]["flag"] = False
    assert original == {"items": [1, 2], "nested": {"flag": True}}


def test_validate_payload_converts_tuples_to_lists():
    assert validate_payload({"pair": (1, 2)}) == {"pair": [1, 2]}


@pytest.mark.parametrize("bad", [
    {"value": None},
    {"value": {1: "x"}},
    {"value": object()},
    {"": "empty key"},
    ["not", "a", "map"],
])
def test_validate_payload_rejects_out_of_set_values(bad):
    with pytest.raises(ConfigError):
        validate_payload(bad)


def test_add_months_clamps_to_month_end():
    assert add_months(dt.date(2021, 1, 31), 1) == dt.date(2021, 2, 28)
    assert add_months(dt.date(2020, 1, 31), 1) == dt.date(2020, 2, 29)
    assert add_months(dt.date(2021, 11, 15), 2) == dt.date(2022, 1, 15)
    assert add_months(dt.date(2021, 3, 10), -1) == dt.date(2021, 2, 10)


@given(st.dates(min_value=dt.date(2000, 1, 1), max_value=dt.date(2030, 12, 31)),
       st.integers(min_value=-24, max_value=24))
def test_add_months_lands_in_expected_month(day, months):
    shifted = add_months(day, months)
    index = day.year * 12 + day.month - 1 + months
    assert (shifted.year, shifted.month) == (index // 12, index % 12 + 1)
    assert shifted.day <= day.day


def test_month_floor():
    assert month_floor(dt.date(2021, 9, 30)) == dt.date(2021, 9, 1)


def _generated_yaml(directory: Path, monkeypatch) -> list[Path]:
    """The distinct-grid problems, rules, later-round rules and profiles for seeds 1-3."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, inputs)  # its dataclass looks itself up there
    spec.loader.exec_module(inputs)
    for seed in (1, 2, 3):
        base = directory / f"seed{seed}"
        inputs.write_problem_set(inputs.make_problems(seed, 20, "dg"), base / "problems",
                                 base / "rules.yaml", seed)
        inputs.write_round_rules(base / "rules.yaml", base / "rules-2.yaml", 2)
        inputs.write_profiles(base / "profiles.yaml", base / "rules-2.yaml")
    return sorted(directory.rglob("*.yaml"))


def test_libyaml_and_pure_python_loaders_give_equal_documents(tmp_path, monkeypatch):
    assert yaml.__with_libyaml__, "PyYAML was built without libyaml"
    files = sorted((ROOT / "fixtures").rglob("*.yaml")) + _generated_yaml(tmp_path, monkeypatch)
    assert len(files) > 60
    for path in files:
        text = path.read_text(encoding="utf-8")
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader), path
        assert load_yaml(path) == yaml.safe_load(text), path


MALFORMED = [
    ("a: [1, 2\nb: 3\n", 2, 2),                # flow sequence left open
    ("a: 1\n  b: 2\n", 2, 4),                  # mapping value at a deeper indent
    ("x: \u00e9\u00e9\n\u00e9: \u00e9: y\n", 2, 5),  # column counts characters, not bytes
    ("x: \u00e9\u00e9\ny: a\x07b\n", 2, 5),      # unacceptable character
    ("a: !!python/object:os.system x\n", 1, 4),  # tag the safe loader refuses
]


@pytest.mark.parametrize("text,line,column", MALFORMED,
                         ids=["open-sequence", "indent", "non-ascii", "control-char", "unsafe-tag"])
@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure-python"])
def test_malformed_yaml_names_path_line_and_column(tmp_path, monkeypatch, text, line, column,
                                                   libyaml):
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader")
    path = tmp_path / "bad.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DatasetError) as caught:
        load_yaml(path, error=DatasetError)
    assert str(caught.value).startswith(f"{path}: invalid YAML at line {line}, column {column}: ")


def test_load_yaml_parses_without_libyaml(tmp_path, monkeypatch):
    monkeypatch.delattr(yaml, "CSafeLoader")
    path = tmp_path / "doc.yaml"
    path.write_text("release_date: 2021-09-01\ntests: [{input: '1', n: 2}]\n", encoding="utf-8")
    assert load_yaml(path) == {"release_date": dt.date(2021, 9, 1),
                               "tests": [{"input": "1", "n": 2}]}
    with pytest.raises(ConfigError, match=f"^cannot read file {tmp_path / 'absent.yaml'}: "):
        load_yaml(tmp_path / "absent.yaml")


def test_load_yaml_refuses_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "latin1.yaml"
    path.write_bytes("name: café\n".encode("utf-8") + b"note: \xff\n")
    with pytest.raises(DatasetError) as caught:
        load_yaml(path, error=DatasetError)
    assert str(caught.value) == f"{path}: not UTF-8 at byte 18"


def test_load_yaml_reads_crlf_as_a_text_mode_read_would(tmp_path):
    text = "a: |\n  one\n  two\nb: \"x\ny\"\n"
    crlf, lf = tmp_path / "crlf.yaml", tmp_path / "lf.yaml"
    crlf.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    lf.write_bytes(text.encode("utf-8"))
    assert load_yaml(crlf) == load_yaml(lf) == {"a": "one\ntwo\n", "b": "x y"}
