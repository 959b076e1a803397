import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hietan import dataset
from hietan.dataset import (
    _BLOCK_CELLS,
    _WHITESPACE,
    _first_non_binary,
    _read_csv,
    Dataset,
    generate_synthetic,
    generate_synthetic_with_rule,
    load_dataset,
    repair_propagation,
    save_dataset,
    stratified_folds,
    subset,
    validate_propagation,
)
from hietan.errors import (
    DimensionMismatch,
    HieTanError,
    MissingClassColumn,
    NonBinaryValue,
    ParseError,
    TooFewInstances,
    UnreadableName,
)
from hietan.bayes import fit
from hietan.hierarchy import build_dag, random_dag
from hietan.mutual_info import _cells, _pair_tables, rank_edges
from hietan.structure import DependencyTree

from conftest import A, B, C, D, E, F
from oracles import (
    joint_counts,
    read_csv_reference,
    save_dataset_reference,
    stratified_folds_reference,
    validate_propagation_reference,
)

TINY_CSV = """A,B,C,D,E,F,class
1,1,1,1,1,1,0
0,1,0,0,0,1,1
"""


class TestLoad:
    def test_small_file_round(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(TINY_CSV)
        ds = load_dataset(path)
        assert ds.n_instances == 2 and ds.n_features == 6
        assert ds.feature_names == ("A", "B", "C", "D", "E", "F")
        assert ds.values[0].tolist() == [1, 1, 1, 1, 1, 1]
        assert ds.values[1].tolist() == [0, 1, 0, 0, 0, 1]
        assert ds.labels.tolist() == [0, 1]

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,class\r\n1,0\r\n")
        ds = load_dataset(path)
        assert ds.n_instances == 1 and ds.values[0, 0] == 1

    def test_empty_data_section(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y,class\n")
        ds = load_dataset(path)
        assert ds.n_instances == 0 and ds.n_features == 2

    def test_non_binary_value(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,class\n2,0\n")
        with pytest.raises(NonBinaryValue, match=":2:"):
            load_dataset(path)

    def test_missing_class_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n0,1\n")
        with pytest.raises(MissingClassColumn):
            load_dataset(path)

    def test_wrong_column_count_has_line_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y,class\n0,1,0\n0,1\n")
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert err.value.line == 3

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(
            (rng.random((17, 5)) < 0.4).astype(np.uint8),
            (rng.random(17) < 0.5).astype(np.uint8),
            tuple(f"g{i}" for i in range(5)),
        )
        path = tmp_path / "d.csv"
        save_dataset(ds, path)
        again = load_dataset(path)
        assert np.array_equal(again.values, ds.values)
        assert np.array_equal(again.labels, ds.labels)
        assert again.feature_names == ds.feature_names
        save_dataset(again, tmp_path / "d2.csv")
        assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "d2.csv").read_bytes()

    def test_constructor_rejects_bad_shapes(self):
        with pytest.raises(DimensionMismatch):
            Dataset(np.zeros((3, 2), dtype=np.uint8), np.zeros(2, dtype=np.uint8))
        with pytest.raises(NonBinaryValue):
            Dataset(np.full((1, 1), 2), np.zeros(1))

    @pytest.mark.parametrize(
        "bad", [0.7, 2, 256, float("nan"), -1], ids=["0.7", "2", "256", "nan", "-1"]
    )
    @pytest.mark.parametrize("column", ["values", "labels"])
    def test_constructor_rejects_non_binary(self, column, bad):
        values = np.zeros((2, 2))
        labels = np.zeros(2)
        (values if column == "values" else labels)[-1] = bad
        with pytest.raises(NonBinaryValue, match="must be 0 or 1"):
            Dataset(values, labels)

    def test_constructor_copies_the_callers_arrays(self):
        values = np.array([[0, 1], [1, 1], [1, 0]], dtype=np.uint8)
        labels = np.array([0, 1, 1], dtype=np.uint8)
        ds = Dataset(values, labels)
        tree = DependencyTree((None, 0))
        before = fit(ds, tree, None, 1.0).cpts[1].copy()
        assert values.flags.writeable and labels.flags.writeable
        assert not ds.values.flags.writeable and not ds.labels.flags.writeable
        values[:] = 0
        labels[:] = 0
        assert ds.values.tolist() == [[0, 1], [1, 1], [1, 0]]
        assert ds.labels.tolist() == [0, 1, 1]
        assert np.array_equal(fit(ds, tree, None, 1.0).cpts[1], before)


# Pieces of generated dataset files. Every break ``str.splitlines`` knows,
# whitespace that ``str.strip`` removes but that does not end a line, and
# tokens that are not 0 or 1.
BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
SPACES = ["", " ", "\t", "\x1f", "\xa0", "\u1680", "\u2003", "\u202f", "\u205f", "\u3000"]
BAD_TOKENS = ["2", "01", "0 1", "\uff11", "", "a", "-1", "\ufeff0", "0\x00", "\u00e9"]


@st.composite
def csv_bytes(draw):
    """A dataset file as bytes: mostly well formed, with a few of the ways a
    header, a row, a line break or the encoding can go wrong."""
    n = draw(st.integers(0, 4))
    names = [f"f{i}" for i in range(n)]
    header_kind = draw(st.sampled_from(
        ["class"] * 6 + ["no class", "no class", "duplicate", "blank", "spaces", "none"]
    ))
    if header_kind == "duplicate" and names:
        names.append(names[0])
    if header_kind != "no class":
        names.append("class")
    pad = st.sampled_from(SPACES)
    header = {"blank": "", "spaces": draw(pad) + " ", "none": None}.get(
        header_kind, ",".join(draw(pad) + name + draw(pad) for name in names)
    )
    lines = [] if header is None else [header]
    kinds = ["row", "row", "row", "blank"]
    if draw(st.booleans()):
        kinds += ["wide", "narrow", "bad"]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(kinds))
        tokens = [draw(st.sampled_from("01")) for _ in names]
        if kind == "blank":
            tokens = []
        elif kind == "wide":
            tokens.append("1")
        elif kind == "narrow":
            tokens = tokens[:-1]
        elif kind == "bad" and tokens:
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(BAD_TOKENS))
        line = ",".join(draw(pad) + t + draw(pad) for t in tokens)
        lines.append(line if tokens else draw(pad))
    text = "".join(line + draw(st.sampled_from(BREAKS)) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("".join(BREAKS))  # no final line break
    data = text.encode("utf-8")
    if draw(st.integers(0, 19)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\xe2\x80"])) + data[at:]
    return data


@st.composite
def saved_datasets(draw):
    """A dataset of 0-4 features and 0-6 rows, with names whose lengths give
    headers of both byte parities, some of them not ASCII."""
    n = draw(st.integers(0, 4))
    rows = draw(st.integers(0, 6))
    bits = st.lists(st.integers(0, 1), min_size=rows * (n + 1), max_size=rows * (n + 1))
    cells = np.array(draw(bits), dtype=np.uint8).reshape(rows, n + 1)
    names = [draw(st.sampled_from(["", "g", "gg", "\u00e9"])) + str(i) for i in range(n)]
    return Dataset(cells[:, :n], cells[:, n], tuple(names))


@st.composite
def one_edit(draw, data: bytes):
    """``data``, a file as ``save_dataset`` writes it, as it is or with one
    edit: a bad token or separator, a byte deleted or inserted, one CRLF, a
    space, a blank line, or no final break."""
    kind = draw(st.sampled_from(
        ["replace", "delete", "insert", "crlf", "space", "blank", "no final break", "none"]
    ))
    body = data.find(b"\n") + 1
    breaks = [k for k in range(len(data)) if data[k] == ord("\n")]
    if kind == "replace" and body < len(data):
        # b"-" and b"\v" differ from b"," and b"\n" only in the bit that
        # a token's check masks.
        at = draw(st.integers(body, len(data) - 1))
        bad = draw(st.sampled_from(
            [b"-", b"\v", b"2", b"a", b" ", b"\x00", b"/", b"\xc3\xa9", b"00"]
        ))
        return data[:at] + bad + data[at + 1 :]
    if kind == "delete":
        at = draw(st.integers(0, len(data) - 1))
        return data[:at] + data[at + 1 :]
    if kind in ("insert", "space"):
        at = draw(st.integers(0, len(data)))
        byte = b" " if kind == "space" else draw(
            st.sampled_from([b"0", b"1", b",", b"\n", b"\r", b"2"])
        )
        return data[:at] + byte + data[at:]
    if kind == "crlf":
        at = draw(st.sampled_from(breaks))
        return data[:at] + b"\r" + data[at:]
    if kind == "blank":
        at = draw(st.sampled_from(breaks)) + 1
        return data[:at] + b"\n" + data[at:]
    if kind == "no final break":
        return data[:-1]
    return data


def parse_outcome(parse, path, class_required):
    """What a reader makes of a file: its names and arrays with their dtypes,
    or its error's class, message and line."""
    try:
        names, values, labels = parse(path, class_required)
    except HieTanError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return (
        names,
        values.dtype, values.shape, values.flags.c_contiguous, values.tobytes(),
        None if labels is None else (labels.dtype, labels.shape, labels.tobytes()),
    )


class TestReaderMatchesReference:
    @settings(
        max_examples=400, derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(csv_bytes())
    @example(b"a,b,class\r0,1,1\f1 ,\xc2\xa00,0\xe2\x80\xa8\n\n  \n1,1,0")
    @example(b"a,b,class\r\n0,1,1\x1c\x1d\x1e\xc2\x850,1,1\xe2\x80\xa9")
    @example(b"a,class\n0 1,0\n")
    @example(b"a,class\n\xef\xbc\x91,0\n")
    @example(b"a,class\n0,1\n2,0\n1\n")
    @example(b"a,class\n0,1\n0,1,1\n")
    @example(b"a,class\n0,1\n,\n")
    @example(b"a,b,class\n0,1,\n1,1,1\n")
    @example(b"a,class")
    @example(b"a,a,class\n")
    @example(b"a,b\n0,1\n")
    @example(b"\n a,class\n")
    @example(b"")
    @example(b"a,class\n0,1\n\xff\n")
    def test_same_arrays_or_same_error(self, tmp_path, data):
        path = tmp_path / "d.csv"
        path.write_bytes(data)
        for class_required in (True, False):
            assert parse_outcome(_read_csv, path, class_required) == parse_outcome(
                read_csv_reference, path, class_required
            )

    @settings(
        max_examples=400, derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(saved_datasets(), st.booleans(), st.data())
    def test_canonical_file_with_one_edit(self, tmp_path, ds, labelled, data):
        # The reader's raw scan accepts a canonical body as it stands; one
        # edit must send it to the general path with the same outcome.
        path = tmp_path / "d.csv"
        save_dataset(ds, path)
        saved = path.read_bytes()
        if not labelled:  # the class column becomes one more feature
            cut = saved.find(b"\n")
            saved = saved[: cut - len("class")] + b"h" + saved[cut:]
        path.write_bytes(data.draw(one_edit(saved)))
        for class_required in (True, False):
            assert parse_outcome(_read_csv, path, class_required) == parse_outcome(
                read_csv_reference, path, class_required
            )

    @pytest.mark.parametrize("text", [
        b"a,b,class\n0,1,0\n1,1,1\n", b"a,b,class\r\n0,1,0\r\n", b" a ,class\n\n0, 1\n",
        b"a,class\n0,1\n2,0\n", b"a,class\n0,1,1\n", b"a", b"",
    ], ids=repr)
    def test_leading_byte_order_mark_is_dropped(self, tmp_path, text):
        """A file that starts with one byte-order mark reads as the file
        without it: the same names, arrays, errors and line numbers."""
        path = tmp_path / "d.csv"
        path.write_bytes(text)
        plain = [parse_outcome(_read_csv, path, c) for c in (True, False)]
        path.write_bytes(b"\xef\xbb\xbf" + text)
        for class_required, outcome in zip((True, False), plain):
            assert parse_outcome(_read_csv, path, class_required) == outcome
            assert parse_outcome(read_csv_reference, path, class_required) == outcome

    def test_only_one_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbf" * 2 + b"a,class\n0,1\n")
        for class_required in (True, False):
            outcome = parse_outcome(_read_csv, path, class_required)
            assert outcome == parse_outcome(read_csv_reference, path, class_required)
            assert outcome[0] == ("\ufeffa",)
        # The byte offset of a bad byte counts the mark, as it is in the file.
        path.write_bytes(b"\xef\xbb\xbfa,class\n0,1\n\xff\n")
        with pytest.raises(ParseError, match=r":3: not UTF-8 text \(invalid start byte at byte 15\)"):
            load_dataset(path)

    @pytest.mark.parametrize("name", ["a", "ab"], ids=["even header", "odd header"])
    @pytest.mark.parametrize("bad", [None, b"2", b"\n"])
    def test_body_at_either_byte_parity(self, tmp_path, name, bad):
        # An odd-length header leaves the body's uint16 cells unaligned.
        rng = np.random.default_rng(3)
        ds = Dataset(rng.integers(0, 2, (50, 3)).astype(np.uint8),
                     rng.integers(0, 2, 50).astype(np.uint8), (name, "b", "c"))
        path = tmp_path / "d.csv"
        save_dataset(ds, path)
        data = path.read_bytes()
        assert (data.find(b"\n") + 1) % 2 == (name == "ab")
        if bad is not None:
            at = data.find(b"\n") + 1 + 40 * 8 + 2
            data = data[:at] + bad + data[at + 1 :]
        path.write_bytes(data)
        for class_required in (True, False):
            outcome = parse_outcome(_read_csv, path, class_required)
            assert outcome == parse_outcome(read_csv_reference, path, class_required)
            if bad is None:
                assert outcome[2] == (50, 3)
            else:
                assert f"{path}:42: " in outcome[1]

    @staticmethod
    def spy_on_scans(monkeypatch) -> list[tuple[bytes, bool]]:
        """For every body ``_read_csv`` hands to ``_scan_rows``: its bytes,
        and whether it is a view of the bytes read from the file."""
        calls, files = [], []
        scan, read = dataset._scan_rows, dataset.read_utf8_bytes

        def read_spy(path):
            files.append(read(path))
            return files[-1]

        def scan_spy(s, width, labelled):
            own = np.shares_memory(s, np.frombuffer(files[-1], dtype=np.uint8))
            calls.append((s.tobytes(), own))
            return scan(s, width, labelled)

        monkeypatch.setattr(dataset, "read_utf8_bytes", read_spy)
        monkeypatch.setattr(dataset, "_scan_rows", scan_spy)
        return calls

    def test_canonical_file_is_not_normalised(self, tmp_path, monkeypatch):
        calls = self.spy_on_scans(monkeypatch)
        path = tmp_path / "d.csv"
        path.write_text("a,b,class\n0,1,1\n1,1,0\n")
        names, values, labels = _read_csv(path, class_required=True)
        assert names == ("a", "b") and values.tolist() == [[0, 1], [1, 1]]
        assert labels.tolist() == [1, 0]
        assert calls == [(b"0,1,1\n1,1,0\n", True)]  # one scan, of the file's own bytes

    def test_one_crlf_is_normalised(self, tmp_path, monkeypatch):
        calls = self.spy_on_scans(monkeypatch)
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b,class\n0,1,1\n1,1,0\r\n0,0,1\n")
        names, values, labels = _read_csv(path, class_required=True)
        assert values.tolist() == [[0, 1], [1, 1], [0, 0]] and labels.tolist() == [1, 0, 1]
        # The raw scan fails on the second row; the first is kept, and only
        # the body rebuilt from the lines after it is scanned.
        assert calls == [(b"0,1,1\n1,1,0\r\n0,0,1\n", True), (b"1,1,0\n0,0,1\n", False)]

    def test_whitespace_and_breaks_are_pythons(self):
        chars = [chr(c) for c in range(0x110000)]
        assert set(_WHITESPACE) == {c for c in chars if c.isspace()}

    @pytest.mark.parametrize("bad_row", [None, 19_990])
    def test_large_file_matches_reference(self, tmp_path, bad_row):
        # Over 2 MB, with spaces and blank lines, so that the scan and the
        # offset of the bad line cross the reader's 1 MiB blocks.
        rng = np.random.default_rng(8)
        rows = [", ".join(map(str, row)) for row in rng.integers(0, 2, (20_000, 40)).tolist()]
        if bad_row is not None:
            rows[bad_row] = "7" + rows[bad_row][1:]
        path = tmp_path / "d.csv"
        header = ",".join(f"f{i}" for i in range(39)) + ",class"
        path.write_text(header + "\n" + "\n\n".join(rows) + "\n")
        for class_required in (True, False):
            assert parse_outcome(_read_csv, path, class_required) == parse_outcome(
                read_csv_reference, path, class_required
            )

    @pytest.mark.parametrize("labelled", [True, False])
    @pytest.mark.parametrize("tail", ["no-final-newline", "crlf-from-row-70", "bad-row-70"])
    def test_canonical_head_then_tail_matches_reference(self, tmp_path, labelled, tail):
        # The raw scan keeps the canonical rows before its first bad line and
        # normalises only the rest; row 70 lies in the scan's second block.
        width = 2_000
        assert 0 < _BLOCK_CELLS // width <= 70
        rng = np.random.default_rng(10)
        rows = [",".join(map(str, row)) for row in rng.integers(0, 2, (100, width)).tolist()]
        header = ",".join(f"f{i}" for i in range(width - 1)) + (",class" if labelled else ",g")
        if tail == "no-final-newline":
            text = "\n".join([header, *rows])
        elif tail == "crlf-from-row-70":
            text = "\n".join([header, *rows[:70], ""]) + "\r\n".join([*rows[70:], ""])
        else:
            rows[70] = rows[70][:-1] + "x"
            text = "\n".join([header, *rows, ""])
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        outcomes = [parse_outcome(_read_csv, path, c) for c in (True, False)]
        assert outcomes == [parse_outcome(read_csv_reference, path, c) for c in (True, False)]
        if tail == "bad-row-70":
            assert outcomes[1][:2] == (NonBinaryValue, f"{path}:72: value 'x' is not 0 or 1")
        else:
            assert outcomes[1][2] == (100, width - labelled)

    @pytest.mark.parametrize("bad_row", [None, 19_990])
    def test_large_canonical_file_matches_reference(self, tmp_path, bad_row):
        # 20 000 x 40 cells cross the raw scan's blocks, and a bad token near
        # the end sends the file through the general path.
        assert 20_000 * 40 > 2 * _BLOCK_CELLS
        rng = np.random.default_rng(9)
        ds = Dataset(rng.integers(0, 2, (20_000, 39)).astype(np.uint8),
                     rng.integers(0, 2, 20_000).astype(np.uint8))
        path = tmp_path / "d.csv"
        save_dataset(ds, path)
        if bad_row is not None:
            data = bytearray(path.read_bytes())
            data[data.find(b"\n") + 1 + 80 * bad_row] = ord("7")
            path.write_bytes(data)
        for class_required in (True, False):
            outcome = parse_outcome(_read_csv, path, class_required)
            assert outcome == parse_outcome(read_csv_reference, path, class_required)
            if bad_row is None:
                assert outcome[2] == (20_000, 39)
            else:
                assert outcome[:2] == (NonBinaryValue, f"{path}:19992: value '7' is not 0 or 1")


@pytest.mark.parametrize("brk", BREAKS, ids=repr)
def test_non_utf8_byte_reported_on_its_line(tmp_path, brk):
    path = tmp_path / "d.csv"
    path.write_bytes(f"a,class{brk}0,1{brk}".encode() + b"\xff,1" + brk.encode())
    with pytest.raises(ParseError, match=":3: not UTF-8 text") as err:
        load_dataset(path)
    assert err.value.line == 3


class TestSaveMatchesReference:
    @pytest.mark.parametrize("rows, cols, seed", [
        (0, 3, 0), (0, 1, 1), (1, 1, 2), (5, 1, 3), (1, 7, 4),
        (37, 12, 5), (500, 400, 6), (123, 321, 7), (499, 2, 8),
    ])
    def test_same_bytes(self, tmp_path, rows, cols, seed):
        rng = np.random.default_rng(seed)
        ds = Dataset((rng.random((rows, cols)) < 0.4).astype(np.uint8),
                     (rng.random(rows) < 0.5).astype(np.uint8),
                     tuple(f"g\u00e9{i}" for i in range(cols)))
        save_dataset(ds, tmp_path / "new.csv")
        save_dataset_reference(ds, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_no_features_round_trips(self, tmp_path):
        ds = Dataset(np.zeros((3, 0), dtype=np.uint8), np.array([0, 1, 1], dtype=np.uint8))
        save_dataset(ds, tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_bytes() == b"class\n0\n1\n1\n"
        again = load_dataset(tmp_path / "d.csv")
        assert again.values.shape == (3, 0) and again.labels.tolist() == [0, 1, 1]


class TestSavedNamesReadBack:
    """``save_dataset`` writes only feature names that ``load_dataset`` reads
    back as written, and refuses the rest before it opens the file."""

    @staticmethod
    def two_rows(names):
        return Dataset(np.eye(2, len(names), dtype=np.uint8), np.array([0, 1], dtype=np.uint8), names)

    @pytest.mark.parametrize("names", [
        ("a,b", "c"), ("a\nb", "c"), ("a", "b\r"), ("a\x85b", "c"), ("a\u2028b", "c"),
        ("a\x1cb", "c"), (" a", "c"), ("a", "c\t"), ("a\ud800", "c"), ("\ufeffa", "b"),
    ], ids=repr)
    def test_unreadable_names_are_refused(self, tmp_path, names):
        path = tmp_path / "d.csv"
        with pytest.raises(UnreadableName) as err:
            save_dataset(self.two_rows(names), path)
        assert isinstance(err.value, ValueError) and isinstance(err.value, HieTanError)
        assert not path.exists()

    @pytest.mark.parametrize("names, bad", [
        ((1, 2), "1"), (("a", None), "None"), (("a", b"b"), "b'b'"), (("a", 2.0), "2.0"),
    ], ids=["ints", "none", "bytes", "float"])
    def test_names_that_are_not_strings_are_refused(self, names, bad):
        # Such a name would save a model that ``load_model`` refuses, and
        # ``save_dataset`` could not check it.
        with pytest.raises(TypeError, match=rf"^feature name {re.escape(bad)} is not a string$"):
            self.two_rows(names)

    @pytest.mark.parametrize("names, repeat", [
        (("a", "a"), "a"), (("b", "a", "c", "a", "b"), "a"), (("", "x", ""), ""),
    ], ids=repr)
    def test_repeated_names_are_refused(self, names, repeat):
        # Such a name would save a model whose data files no reader accepts.
        with pytest.raises(ValueError, match=rf"^feature name {re.escape(repr(repeat))} is repeated$"):
            self.two_rows(names)

    @pytest.mark.parametrize("names", [
        ("a b", "c"), ("\u00e9", "#x"), ("", "c"), ("class", "c"), ("a;b", "\ufeffc"),
    ], ids=repr)
    def test_odd_names_round_trip(self, tmp_path, names):
        path = tmp_path / "d.csv"
        save_dataset(self.two_rows(names), path)
        assert load_dataset(path).feature_names == names

    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.lists(st.text(max_size=3), min_size=1, max_size=4).map(tuple))
    def test_any_names_read_back_or_are_refused(self, tmp_path, names):
        path = tmp_path / "d.csv"
        path.unlink(missing_ok=True)
        if len(set(names)) < len(names):
            with pytest.raises(ValueError, match="is repeated$"):
                self.two_rows(names)
            return
        try:
            save_dataset(self.two_rows(names), path)
        except UnreadableName:
            assert not path.exists()
        else:
            assert load_dataset(path).feature_names == names


class TestPropagation:
    def test_tiny_dataset_is_consistent(self, tiny_consistent_dataset, canonical_dag):
        assert validate_propagation(tiny_consistent_dataset, canonical_dag) == []

    def test_violation_reported(self, canonical_dag):
        row = np.zeros((1, 6), dtype=np.uint8)
        row[0, D] = 1
        ds = Dataset(row, np.array([0]))
        triples = validate_propagation(ds, canonical_dag)
        assert (0, D, C) in triples
        assert {(r, f, a) for r, f, a in triples} == {
            (0, D, A), (0, D, C), (0, D, E), (0, D, F)
        }

    def test_repair_propagates_to_all_ancestors(self, canonical_dag):
        row = np.zeros((1, 6), dtype=np.uint8)
        row[0, D] = 1
        repaired = repair_propagation(Dataset(row, np.array([0])), canonical_dag)
        assert repaired.values[0].tolist() == [1, 0, 1, 1, 1, 1]  # A,C,D,E,F set

    def test_repair_keeps_zero_rows(self, canonical_dag):
        ds = Dataset(np.zeros((3, 6), dtype=np.uint8), np.zeros(3, dtype=np.uint8))
        repaired = repair_propagation(ds, canonical_dag)
        assert not repaired.values.any()

    @settings(max_examples=30, derandomize=True)
    @given(st.integers(0, 10_000))
    def test_repair_idempotent_and_valid(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        dag = build_dag(n, random_dag(n, int(rng.integers(0, 2 * n)), seed))
        ds = Dataset(
            (rng.random((20, n)) < 0.3).astype(np.uint8),
            (rng.random(20) < 0.5).astype(np.uint8),
        )
        once = repair_propagation(ds, dag)
        twice = repair_propagation(once, dag)
        assert validate_propagation(once, dag) == []
        assert np.array_equal(once.values, twice.values)

    def test_dimension_mismatch(self, canonical_dag):
        ds = Dataset(np.zeros((1, 4), dtype=np.uint8), np.zeros(1, dtype=np.uint8))
        with pytest.raises(DimensionMismatch):
            validate_propagation(ds, canonical_dag)

    @settings(max_examples=60, derandomize=True)
    @given(st.integers(0, 10_000), st.integers(1, 30), st.integers(0, 25),
           st.integers(0, 12), st.sampled_from([1, 5, 64, dataset._VALIDATE_BLOCK]))
    def test_validate_equals_pair_by_pair_reference(self, seed, n, rows, injected, block):
        # Consistent rows with violations injected: ancestors of 1-valued
        # features cleared at random, blocks of rows from one row to all.
        rng = np.random.default_rng(seed)
        dag = build_dag(n, random_dag(n, int(rng.integers(0, 3 * n + 1)), seed))
        ds = Dataset(
            (rng.random((rows, n)) < rng.random()).astype(np.uint8),
            (rng.random(rows) < 0.5).astype(np.uint8),
        )
        values = repair_propagation(ds, dag).values.copy()
        if rows:
            values[rng.integers(0, rows, injected), rng.integers(0, n, injected)] = 0
        ds = Dataset(values, ds.labels)
        want = validate_propagation_reference(ds, dag)
        with mock.patch.object(dataset, "_VALIDATE_BLOCK", block):
            got = validate_propagation(ds, dag)
        assert got == want
        assert all(type(x) is int for triple in got for x in triple)

    @settings(max_examples=40, derandomize=True)
    @given(st.integers(0, 10_000), st.integers(0, 40), st.integers(0, 30),
           st.sampled_from([1, 7, 64, dataset._REPAIR_BLOCK]))
    def test_repair_equals_int32_product(self, seed, n, rows, block):
        # The float64 product, a block of rows at a time, gives the int32
        # product's hits exactly.
        rng = np.random.default_rng(seed)
        dag = build_dag(n, random_dag(n, int(rng.integers(0, 3 * n + 1)), seed))
        ds = Dataset(
            (rng.random((rows, n)) < rng.random()).astype(np.uint8),
            (rng.random(rows) < 0.5).astype(np.uint8),
        )
        closure = dataset._closure_matrix(dag).astype(np.int32)
        want = (ds.values.astype(np.int32) @ closure > 0).astype(np.uint8)
        with mock.patch.object(dataset, "_REPAIR_BLOCK", block):
            got = repair_propagation(ds, dag)
        assert got.values.dtype == np.uint8
        assert np.array_equal(got.values, want)
        assert np.array_equal(got.labels, ds.labels)


def _balanced_dataset(n0, n1, n_features=3, seed=0):
    rng = np.random.default_rng(seed)
    n = n0 + n1
    labels = np.array([0] * n0 + [1] * n1, dtype=np.uint8)
    rng.shuffle(labels)
    return Dataset((rng.random((n, n_features)) < 0.5).astype(np.uint8), labels)


class TestFolds:
    def test_exact_divisibility(self):
        ds = _balanced_dataset(10, 10)
        folds = stratified_folds(ds, 10, seed=1)
        for f in range(10):
            idx = folds.test_indices(f)
            assert len(idx) == 2
            assert ds.labels[idx].sum() == 1  # one of each class

    def test_deterministic(self):
        ds = _balanced_dataset(13, 9)
        a = stratified_folds(ds, 5, seed=7)
        b = stratified_folds(ds, 5, seed=7)
        assert np.array_equal(a.fold_of, b.fold_of)

    def test_per_class_balance_61_42(self):
        ds = _balanced_dataset(61, 42, seed=3)
        folds = stratified_folds(ds, 10, seed=3)
        for cls in (0, 1):
            per_fold = [
                int(np.sum((folds.fold_of == f) & (ds.labels == cls)))
                for f in range(10)
            ]
            assert max(per_fold) - min(per_fold) <= 1

    def test_partition(self):
        ds = _balanced_dataset(20, 15)
        folds = stratified_folds(ds, 7, seed=0)
        all_test = np.concatenate([folds.test_indices(f) for f in range(7)])
        assert sorted(all_test.tolist()) == list(range(35))
        for f in range(7):
            assert len(folds.test_indices(f)) > 0

    def test_matches_one_instance_at_a_time_deal(self):
        rng = np.random.default_rng(11)
        for seed in range(60):
            n0, n1 = rng.integers(1, 30, 2).tolist()
            k = int(rng.integers(2, min(10, n0 + n1) + 1))
            ds = _balanced_dataset(n0, n1, seed=seed)
            folds = stratified_folds(ds, k, seed)
            assert folds.fold_of.dtype == np.int64
            assert folds.fold_of.tolist() == stratified_folds_reference(ds, k, seed).tolist()

    def test_too_few_instances(self):
        ds = _balanced_dataset(2, 1)
        with pytest.raises(TooFewInstances):
            stratified_folds(ds, 4, seed=0)

    def test_single_class_rejected(self):
        ds = Dataset(np.zeros((6, 2), dtype=np.uint8), np.zeros(6, dtype=np.uint8))
        with pytest.raises(TooFewInstances):
            stratified_folds(ds, 2, seed=0)


class TestSynthetic:
    def test_always_consistent(self, canonical_dag):
        for seed in range(5):
            ds = generate_synthetic(canonical_dag, 30, 0.4, 0.1, seed)
            assert validate_propagation(ds, canonical_dag) == []

    def test_noise_free_labels_recomputable(self, canonical_dag):
        ds, rule = generate_synthetic_with_rule(canonical_dag, 50, 0.5, 0.0, 9)
        assert np.array_equal(ds.labels, rule.labels_for(ds.values))

    def test_zero_density_all_zero(self, canonical_dag):
        ds = generate_synthetic(canonical_dag, 25, 0.0, 0.0, 2)
        assert not ds.values.any()

    def test_deterministic(self, canonical_dag):
        a = generate_synthetic(canonical_dag, 40, 0.3, 0.2, 5)
        b = generate_synthetic(canonical_dag, 40, 0.3, 0.2, 5)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.labels, b.labels)

    def test_bad_probability(self, canonical_dag):
        with pytest.raises(ValueError):
            generate_synthetic(canonical_dag, 10, 1.5, 0.0, 0)


def test_subset_keeps_metadata():
    ds = _balanced_dataset(6, 6, n_features=4, seed=1)
    sub = subset(ds, [0, 2, 4])
    assert sub.n_instances == 3
    assert sub.feature_names == ds.feature_names
    assert np.array_equal(sub.values, ds.values[[0, 2, 4]])


def test_loaded_and_subset_arrays_are_not_checked_again(tmp_path, monkeypatch):
    ds = _balanced_dataset(6, 6, n_features=4, seed=1)
    save_dataset(ds, tmp_path / "d.csv")

    def refuse(array, what):
        raise AssertionError(f"{what} checked and copied again")

    monkeypatch.setattr(dataset, "_binary_copy", refuse)
    for got in (load_dataset(tmp_path / "d.csv"), subset(ds, [5, 0, 2])):
        for a in (got.values, got.labels):
            assert a.dtype == np.uint8 and a.flags.c_contiguous
            assert not a.flags.writeable
    assert np.array_equal(load_dataset(tmp_path / "d.csv").values, ds.values)
    assert subset(ds, [5, 0, 2]).labels.tolist() == ds.labels[[5, 0, 2]].tolist()
    with pytest.raises(DimensionMismatch):
        subset(ds, [[0, 1]])


class TestPairCounts:
    def test_matches_direct_scan_for_every_ordered_pair(self):
        rng = np.random.default_rng(31)
        problems = [(int(rng.integers(1, 40)), int(rng.integers(1, 8))) for _ in range(8)]
        for trial, (m, n) in enumerate(problems + [(0, 3), (12, 1)]):
            values = (rng.random((m, n)) < rng.random()).astype(np.uint8)
            labels = (rng.random(m) < 0.5).astype(np.uint8)
            if trial % 4 == 0:
                labels[:] = trial % 8 == 0  # one class only
            ds = Dataset(values, labels)
            # Beside a copy of itself, feature f's diagonal table (f, f) is
            # the pair table (f, f + n).
            twin = Dataset(np.hstack([values, values]), labels)
            i, j = (a.ravel() for a in np.indices((n, n)))
            cells = _cells(ds._class_stats, i, j)
            assert cells.shape == (2, 4, n * n)
            for k, (a, b) in enumerate(zip(i.tolist(), j.tolist())):
                want = joint_counts(twin, a, b + n if a == b else b).table  # (x_i, x_j, y)
                assert cells[:, :, k].tolist() == want.reshape(4, 2).T.tolist()

    def test_statistics_computed_once(self):
        rng = np.random.default_rng(2)
        ds = Dataset((rng.random((20, 4)) < 0.5).astype(np.uint8),
                     (rng.random(20) < 0.5).astype(np.uint8))
        stats = ds._class_stats
        rank_edges(ds, build_dag(4, []))
        fit(ds, DependencyTree((None, 0, 0, 2)), {0, 2, 3})
        assert ds._class_stats is stats

    @staticmethod
    def stats_dataset(m, seed, one_class=False):
        """``m`` rows of 25 features, the first always 1, so that a class's
        count reaches its row count; labels all 1 if ``one_class``."""
        rng = np.random.default_rng(seed)
        values = (rng.random((m, 25)) < rng.random((1, 25))).astype(np.uint8)
        values[:, 0] = 1
        labels = np.ones(m, np.uint8) if one_class else (rng.random(m) < 0.3).astype(np.uint8)
        return Dataset(values, labels)

    @staticmethod
    def oracle_stats(ds):
        """``_class_stats`` as int64 integer products."""
        X = ds.values.astype(np.int64)
        return tuple((Xy.T @ Xy, Xy.sum(axis=0), Xy.shape[0])
                     for Xy in (X[ds.labels == y] for y in (0, 1)))

    def assert_exact(self, ds):
        for got, want in zip(ds._class_stats, self.oracle_stats(ds)):
            assert got[0].dtype == np.min_scalar_type(ds.n_instances)
            assert got[1].dtype == np.int64
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            assert got[2] == want[2]

    @pytest.mark.parametrize("m, one_class", [
        (0, False), (1, False), (90, False), (255, False), (256, False), (255, True), (256, True),
    ])
    def test_statistics_are_exact_in_the_narrowest_type(self, m, one_class):
        # uint8 up to 255 rows, uint16 from 256; one class holds every row.
        self.assert_exact(self.stats_dataset(m, 8 + m, one_class))

    @pytest.mark.parametrize("m", [255, 256])
    def test_statistics_add_up_across_blocks(self, monkeypatch, m):
        # Many row blocks, each a float32 product, summed in the narrow type.
        monkeypatch.setattr(dataset, "_GRAM_ROWS", 16)
        ds = self.stats_dataset(m, m, one_class=m == 256)
        assert (ds.labels == 1).sum() > 3 * 16
        self.assert_exact(ds)

    @pytest.mark.parametrize("m", [255, 256])
    def test_counts_read_as_int64(self, m):
        # Every reader sees the counts of the int64 oracle, whatever the
        # Gram matrix's type, so a wraparound at 255/256 rows shows here.
        ds = self.stats_dataset(m, m, one_class=True)
        oracle = self.oracle_stats(ds)
        i, j = (a.ravel() for a in np.indices((25, 25)))
        cells = _cells(ds._class_stats, i, j)
        assert cells.dtype == np.int64
        assert np.array_equal(cells, _cells(oracle, i, j))
        assert cells.max() == m
        for pairs in ((i, j), (i[:2], j[:2])):  # all counts, and only the pairs'
            got = _pair_tables(ds._class_stats, m, 1.0, *pairs)
            want = _pair_tables(oracle, m, 1.0, *pairs)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_statistics_are_read_only(self):
        ds = self.stats_dataset(30, 3)
        for gram, ones, _ in ds._class_stats:
            with pytest.raises(ValueError, match="read-only"):
                gram[0, 0] = 7
            with pytest.raises(ValueError, match="read-only"):
                ones[0] = 7
        self.assert_exact(ds)

    def test_statistics_hold_two_bytes_a_count(self):
        # 300 rows: uint16 counts, 2 n**2 bytes per class (int64 took 8).
        n = 1000
        ds = self.stats_dataset(300, 5)
        ds = Dataset(np.tile(ds.values, (1, n // 25)), ds.labels)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stats = ds._class_stats
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert stats[0][0].dtype == np.uint16
        assert held <= 2 * n * n * 2 + 100 * n


# Values each dtype can hold, binary and not: wrap-around and sign
# extremes, NaN, and -0.0 (which equals 0).
_CODED_VALUES = {
    "uint8": [0, 1, 2, 255],
    "uint16": [0, 1, 2, 255, 65535],
    "bool": [False, True],
    "int8": [0, 1, -1, 2, 127, -128],
    "int64": [0, 1, -1, 2, 255],
    "float64": [0.0, 1.0, -0.0, 0.5, -1.0, 2.0, 255.0, math.nan],
}


@st.composite
def coded_arrays(draw):
    """A 1-d or 2-d array, C or Fortran order, of one of ``_CODED_VALUES``'s
    dtypes, binary only about half the time."""
    dtype = draw(st.sampled_from(sorted(_CODED_VALUES)))
    pool = _CODED_VALUES[dtype] if draw(st.booleans()) else _CODED_VALUES[dtype][:2]
    shape = draw(st.sampled_from([(0,), (1,), (9,), (0, 3), (3, 4), (5, 2)]))
    values = draw(st.lists(st.sampled_from(pool), min_size=math.prod(shape),
                           max_size=math.prod(shape)))
    a = np.array(values, dtype=dtype).reshape(shape)
    return np.asfortranarray(a) if draw(st.booleans()) else a


class TestFirstNonBinary:
    @settings(max_examples=400, derandomize=True)
    @given(coded_arrays())
    def test_matches_scalar_scan(self, a):
        # The two-comparison rule, one value at a time in C order.
        flat = a.reshape(-1).tolist()
        want = next((k for k, v in enumerate(flat) if not (v == 0 or v == 1)), None)
        assert _first_non_binary(a) == want
