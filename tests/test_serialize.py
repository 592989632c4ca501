"""The JSON writer against the standard library's encoder, the oracle it must match byte for byte."""

import json
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softnewt import cli, serialize
from softnewt.cli import main


def _pyify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, dict):
        return {k: _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    return obj


def oracle(doc) -> str:
    """The stdlib encoding every artifact must reproduce."""
    return json.dumps(_pyify(doc), sort_keys=True, indent=2, allow_nan=True)


SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e16, 1e-7, 0.1, np.nan, np.inf, -np.inf])

leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    FLOATS,
    EDGE_FLOATS,
    st.text(),
    st.sampled_from(['"', "\\", "\n\t\x00\x1f", "café", "\U0001d11e", " "]),
    FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.booleans().map(np.bool_),
    # finite arrays take the writer's fast path, the rest its per-value spellings
    hnp.arrays(np.float64, SHAPES, elements=st.floats(allow_nan=False, allow_infinity=False)),
    hnp.arrays(np.float64, SHAPES, elements=FLOATS | EDGE_FLOATS),
    hnp.arrays(np.float32, SHAPES),
    hnp.arrays(np.int64, SHAPES),
    hnp.arrays(np.bool_, SHAPES),
)

documents = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=documents)
def test_dumps_matches_the_stdlib_encoder(doc):
    assert serialize.dumps(doc) == oracle(doc)


@pytest.mark.parametrize(
    "doc",
    [
        object(),
        {1, 2},
        b"bytes",
        1 + 2j,
        np.complex128(1.0),
        np.array([1 + 2j]),
        [1.0, {"a": object()}],
        {1: "int key"},
        {"a": 1, None: 2},
        {"outer": {(1, 2): 3}},
    ],
    ids=lambda doc: type(doc).__name__,
)
def test_unsupported_objects_and_keys_raise_type_error(doc):
    with pytest.raises(TypeError):
        serialize.dumps(doc)


def test_cli_session_writes_stdlib_bytes(tmp_path, monkeypatch, capsys):
    # every document the CLI writes or prints, compared with the oracle's encoding of it
    written, printed = [], []

    def recording_dump_path(doc, path):
        written.append((doc, Path(path)))
        serialize.dump_path(doc, path)

    def recording_dumps(doc):
        printed.append(doc)
        return serialize.dumps(doc)

    monkeypatch.setattr(cli, "dump_path", recording_dump_path)
    monkeypatch.setattr(cli, "dumps", recording_dumps)
    inst = str(tmp_path / "instance.json")
    emit = "report_json,trace_csv,bounds_json,grad_json,bterms_json"
    sessions = [
        (["gen", "--n", "24", "--m", "4", "--d", "3", "--noise", "0.05", "--seed", "1", "--out", inst], 0),
        (["run", "--instance", inst, "--x0", "gaussian", "--out-dir", str(tmp_path / "exact"), "--emit", emit], 0),
        (["run", "--instance", inst, "--x0", "gaussian", "--mode", "sketched", "--eps0", "0.45",
          "--out-dir", str(tmp_path / "sketched"), "--emit", emit], 0),
        (["verify", "--instance", inst, "--trials", "3", "--out", str(tmp_path / "verify.json")], 0),
        (["bounds", "--instance", inst, "--probes", "6", "--out", str(tmp_path / "bounds_table.json")], 0),
        (["run", "--instance", str(tmp_path / "missing.json")], 3),
    ]
    for argv, code in sessions:
        assert main(argv) == code, argv
    err = capsys.readouterr().err

    names = sorted(str(path.relative_to(tmp_path)) for _, path in written)
    assert names == sorted(
        ["instance.json", "verify.json", "bounds_table.json"]
        + [f"{mode}/{name}" for mode in ("exact", "sketched")
           for name in ("report.json", "bounds.json", "gradient.json", "b_terms.json")]
    )
    for doc, path in written:
        assert path.read_text() == oracle(doc) + "\n", path.name
    assert len(printed) == 1 and err == oracle(printed[0]) + "\n"
