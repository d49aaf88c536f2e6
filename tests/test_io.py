"""Reading dg algebras: the memoized decode against one decode per occurrence."""

import contextlib
import io as stdio
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mctwist import io
from mctwist.cli import main
from mctwist.dgcore import DgAlgebra, GradedModule, endomorphism_dga, tensor_dga
from mctwist.exactlinalg import Ring
from mctwist.interval import build_interval_algebra
from mctwist.simplicial import circle, cochain_algebra, product, simplex

RINGS = (Ring.Z(), Ring.Q(), Ring.GF(5))


def _reference_dga_from_json(obj: dict) -> DgAlgebra:
    # the reader as it was: decode_label and ring.coerce at every occurrence
    with io._reading("dg algebra"):
        ring = Ring.parse(obj["ring"])
        gm = GradedModule(ring, [(io.decode_label(l), io._degree(d)) for l, d in obj["basis"]])
        unit_obj = obj["unit"]
        if isinstance(unit_obj, (str, int)) or (
                isinstance(unit_obj, list) and unit_obj and
                not isinstance(unit_obj[0], list)):
            unit = {io.decode_label(unit_obj): ring.one()}
        else:
            unit = {io.decode_label(l): ring.coerce(c) for l, c in unit_obj}
        diff = {}
        for l, r, c in obj.get("diff", []):
            diff.setdefault(io.decode_label(l), {})[io.decode_label(r)] = ring.coerce(c)
        mult = {}
        for x, y, r, c in obj.get("mult", []):
            mult.setdefault((io.decode_label(x), io.decode_label(y)), {})[
                io.decode_label(r)] = ring.coerce(c)
        return DgAlgebra(gm, unit, mult, diff)


def _tables(a: DgAlgebra) -> str:
    # every table in key order; repr tells (1,), (True,) and (1.0,) apart,
    # and an int from a Fraction
    return repr((a.ring.name, a.gm.basis(), list(a.unit.items()),
                 [(k, list(v.items())) for k, v in a.diff.items()],
                 [(k, list(v.items())) for k, v in a.mult.items()]))


def _read_both(obj):
    """(tables, None) from both readers, or (None, message) when both refuse."""
    try:
        want = _tables(_reference_dga_from_json(obj))
    except io.InputError as exc:
        with pytest.raises(io.InputError) as got:
            io.dga_from_json(obj)
        assert str(got.value) == str(exc)
        return None, str(exc)
    assert _tables(io.dga_from_json(obj)) == want
    return want, None


def _algebras_in(obj):
    if isinstance(obj, dict):
        if "mult" in obj and "basis" in obj:
            yield obj
        for v in obj.values():
            yield from _algebras_in(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _algebras_in(v)


def test_every_emitted_fixture_algebra_reads_as_before(tmp_path):
    with contextlib.redirect_stdout(stdio.StringIO()):
        assert main(["emit-fixtures", "--dir", str(tmp_path)]) == 0
    found = [a for f in sorted(tmp_path.iterdir())
             for a in _algebras_in(json.loads(f.read_text()))]
    assert len(found) >= 7
    for obj in found:
        assert _read_both(obj)[0] is not None


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_built_algebras_read_as_before(ring):
    c3 = cochain_algebra(circle(3), ring)
    for a in (c3, cochain_algebra(product(circle(3), simplex(1)), ring),
              tensor_dga(c3, build_interval_algebra(1, ring).dga),
              endomorphism_dga(c3, GradedModule(ring, [("a", 0), ("b", -1)]))):
        assert _read_both(io.dga_to_json(a))[0] is not None


@pytest.mark.parametrize("encoded, decoded", [
    ([1], (1,)), ([True], (True,)), ([1.0], (1.0,)), (["1"], ("1",)),
    ([[0, [1]], "x"], ((0, (1,)), "x")), ([], ()), ("e", "e"), (7, 7)])
def test_a_label_decodes_to_what_it_did(encoded, decoded):
    obj = {"ring": "Q", "basis": [[encoded, 0]], "unit": [[encoded, "1"]],
           "mult": [[encoded, encoded, encoded, "1"]]}
    a = io.dga_from_json(obj)
    assert repr(a.gm.labels) == repr((decoded,))
    assert _read_both(obj)[0] is not None


def test_equal_labels_of_other_types_are_kept_as_each_table_met_them():
    # (1,) == (True,) == (1.0,): a dict keeps the key it met first and the
    # value it met last, so each table must meet the same label objects
    obj = {"ring": "Q", "basis": [[[1], 0], [["y", 0.0], 0]], "unit": [[[True], "1"]],
           "diff": [], "mult": [[[1.0], [1], [True], "1"], [[True], ["y", False], ["y", 0], "2"],
                                [[1], ["y", -0.0], ["y", 0.0], "1/2"]]}
    tables, error = _read_both(obj)
    assert error is None and "True" in tables and "1.0" in tables


def test_a_label_nested_past_the_recursion_limit_is_an_input_error():
    deep = 0
    for _ in range(sys.getrecursionlimit() + 10):
        deep = [deep]
    obj = {"ring": "Z", "basis": [[deep, 0]], "unit": [[deep, "1"]]}
    with pytest.raises(io.InputError):
        io.dga_from_json(obj)


@pytest.mark.parametrize("label", [["y", {"a": 1}], {"a": 1}, ["y", [{}]]])
def test_a_label_holding_an_object_is_an_input_error(label):
    obj = {"ring": "Z", "basis": [[label, 0]], "unit": [[label, "1"]]}
    assert _read_both(obj)[1] is not None


_LEAVES = st.one_of(st.sampled_from([0, 1, -1, True, False, 1.0, 0.0, -0.0, "1", "", "x"]),
                    st.integers(-3, 3), st.text("ab", max_size=2),
                    st.floats(allow_nan=False, allow_infinity=False, width=16))
_LABELS = st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=3), max_leaves=6)
# mostly coefficients the ring reads as nonzero, now and then one that is
# zero or that some ring refuses
_COEFFS = {"Z": ["1", "-1", "2", 1, -1, 2], "Q": ["1", "-1", "2", "1/2", "-1/2", 1, -1]}
_RARE = ["0", "1/2", "x", 0.5, True]


@settings(max_examples=300)
@given(raw=st.lists(_LABELS, min_size=1, max_size=8), ring=st.sampled_from(RINGS),
       seed=st.integers(0, 2 ** 32 - 1))
def test_random_algebras_read_as_the_per_occurrence_decode_does(raw, ring, seed):
    """Labels repeat, some as equal values of another type ([1] and [true]);
    a refusal, when there is one, has the reference's message."""
    rnd = random.Random(seed)
    by_value = {}
    for enc in raw:
        by_value.setdefault(io.decode_label(enc), []).append(enc)
    firsts = [encs[0] for encs in by_value.values()]
    degree = {io.decode_label(enc): rnd.randint(0, 1) for enc in firsts}

    def occurrence(deg):
        # any encoding of a basis label of degree deg, or None
        encs = [e for v, es in by_value.items() if degree[v] == deg for e in es]
        return rnd.choice(encs) if encs else None

    coeff = lambda: rnd.choice(_RARE if rnd.random() < 0.05 else
                               _COEFFS["Z" if ring.kind == "Z" else "Q"])
    mult, diff = [], []
    for _ in range(rnd.randint(0, 12)):
        dx, dy = rnd.randint(0, 1), 0
        x, y, r = occurrence(dx), occurrence(dy), occurrence(dx + dy)
        if None not in (x, y, r):
            mult.append([x, y, r, coeff()])
    for _ in range(rnd.randint(0, 4)):
        l, r = occurrence(0), occurrence(1)
        if None not in (l, r):
            diff.append([l, r, coeff()])
    unit = [[occurrence(0), coeff()]] if occurrence(0) is not None else []
    obj = {"ring": ring.name, "basis": [[enc, degree[io.decode_label(enc)]] for enc in firsts],
           "unit": unit, "diff": diff, "mult": mult}
    _read_both(obj)
