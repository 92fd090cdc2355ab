import copy
import hashlib
import json
import struct

import numpy as np
import pytest

from dyadlab import (DyadicFunction, GridSpec, ProductFunction, ProductGrid,
                     ShiftOperator, random_function, random_product_function,
                     random_shift)
from dyadlab.grids import DepthError, WrongKindError


def test_function_json_roundtrip(rng):
    for grid in (GridSpec(1, 4), GridSpec(2, 2)):
        f = random_function(grid, rng)
        back = DyadicFunction.from_json(f.to_json())
        assert back.grid == grid
        assert np.max(np.abs(back.samples - f.samples)) == 0.0
    obj = json.loads(random_function(GridSpec(1, 3), rng).to_json())
    assert set(obj) == {"d", "N", "samples"}


@pytest.mark.parametrize("source, field", [("product", "d"), ("dyadic", "samples"),
                                           ("dyadic", "N")])
def test_function_json_names_a_missing_field(source, field, rng):
    # a product function's JSON keys its variables d1, N1, ... and has no d
    if source == "product":
        pf = random_product_function(ProductGrid(GridSpec(1, 2), GridSpec(1, 2)), rng)
        text = pf.to_json()
    else:
        obj = json.loads(random_function(GridSpec(1, 3), rng).to_json())
        text = json.dumps({k: v for k, v in obj.items() if k != field})
    with pytest.raises(ValueError, match=f"^DyadicFunction JSON: missing field '{field}'$"):
        DyadicFunction.from_json(text)


def test_function_json_row_major_order():
    # axis 1 slowest: samples[x1 * n2 + x2]
    g = GridSpec(2, 1)
    f = DyadicFunction(g, [1.0, 2.0, 3.0, 4.0])
    obj = json.loads(f.to_json())
    assert obj["samples"] == [1.0, 2.0, 3.0, 4.0]
    assert f.samples.reshape(2, 2)[1, 0] == 3.0


def test_function_binary_header_exact(rng):
    g = GridSpec(2, 2)
    f = random_function(g, rng)
    raw = f.to_bytes()
    assert raw[:4] == b"DYF1"
    d, N, reserved = struct.unpack("<III", raw[4:16])
    assert (d, N, reserved) == (2, 2, 0)
    assert len(raw) == 16 + 8 * g.n_samples
    back = DyadicFunction.from_bytes(raw)
    assert back.grid == g
    assert np.array_equal(back.samples, f.samples)
    with pytest.raises(ValueError):
        DyadicFunction.from_bytes(b"XXXX" + raw[4:])


@pytest.mark.parametrize("cls, size", [(DyadicFunction, 16), (ProductFunction, 20)])
def test_binary_truncated_header_raises_value_error(cls, size, rng):
    pg = ProductGrid(GridSpec(1, 2), GridSpec(1, 2))
    f = random_function(GridSpec(1, 2), rng) if cls is DyadicFunction \
        else random_product_function(pg, rng)
    raw = f.to_bytes()
    for cut in (4, size - 1):
        with pytest.raises(ValueError, match=f"needs {size} bytes, got {cut}"):
            cls.from_bytes(raw[:cut])
    # the payload holds exactly 8 bytes per sample: one cut by 3 or 8 bytes,
    # or 8 bytes too long, names the needed and the given byte counts
    need = 8 * f.samples.size
    for bad in (raw[:-3], raw[:-8], raw + bytes(8)):
        with pytest.raises(ValueError, match=f"payload: needs {need} bytes, got {len(bad) - size}"):
            cls.from_bytes(bad)
    assert np.array_equal(cls.from_bytes(raw).samples, f.samples)


def test_omega_grid_json_roundtrip(rng):
    g = GridSpec(1, 3, omega=((1,), (0,), (1,)))
    f = random_function(g, rng)
    back = DyadicFunction.from_json(f.to_json())
    assert back.grid == g
    with pytest.raises(ValueError):
        f.to_bytes()  # binary format covers standard grids only
    # product functions keep each variable's omega
    for pg, var in ((ProductGrid(g, GridSpec(1, 2)), "1"),
                    (ProductGrid(GridSpec(1, 2), g), "2")):
        pf = random_product_function(pg, rng)
        back = ProductFunction.from_json(pf.to_json())
        assert back.pgrid == pg
        assert np.array_equal(back.samples, pf.samples)
        obj = json.loads(pf.to_json())
        assert set(obj) == {"d1", "N1", "d2", "N2", "samples", "omega" + var}
        assert obj["omega" + var] == [[1], [0], [1]]


def test_three_variable_function_json_roundtrip(rng):
    # the JSON codec keys every variable; the DYF2 binary format holds two
    g = GridSpec(1, 2, omega=((1,), (0,)))
    pg = ProductGrid(GridSpec(1, 2), GridSpec(2, 1), g)
    pf = random_product_function(pg, rng)
    assert pf.samples.shape == pg.shape == (4, 4, 4)
    obj = json.loads(pf.to_json())
    assert set(obj) == {"d1", "N1", "d2", "N2", "d3", "N3", "samples", "omega3"}
    back = ProductFunction.from_json(pf.to_json())
    assert back.pgrid == pg and np.array_equal(back.samples, pf.samples)
    with pytest.raises(ValueError, match="DYF2 takes two variables, not 3"):
        ProductFunction(ProductGrid(*(GridSpec(1, 2),) * 3), pf.samples).to_bytes()
    # the transpose reverses every variable
    flipped = pf.transpose()
    assert flipped.pgrid.grids == pg.grids[::-1]
    assert np.array_equal(flipped.samples, pf.samples.transpose(2, 1, 0))
    # a product of one grid is refused, and so is JSON that names one variable
    with pytest.raises(ValueError, match="two or more grids"):
        ProductGrid(GridSpec(1, 2))
    with pytest.raises(ValueError, match="two or more grids"):
        ProductFunction.from_json(json.dumps({"d1": 1, "N1": 2, "samples": [0.0] * 4}))


def test_shift_json_roundtrip(rng):
    g = GridSpec(1, 3)
    S = random_shift(g, 1, 0, rng)
    obj = json.loads(S.to_json())
    assert obj["i"] == 1 and obj["j"] == 0 and obj["kind"] == "cancellative"
    entry = obj["entries"][0]
    assert set(entry) == {"K", "I", "J", "a"}
    assert set(entry["I"]) == {"level", "pos", "sig"}
    back = ShiftOperator.from_json(S.to_json())
    f = random_function(g, rng)
    assert (S.apply(f) - back.apply(f)).norm() < 1e-13


def test_shift_json_roundtrip_2d(rng):
    g = GridSpec(2, 2)
    S = random_shift(g, 1, 1, rng)
    back = ShiftOperator.from_json(S.to_json())
    f = random_function(g, rng)
    assert (S.apply(f) - back.apply(f)).norm() < 1e-12


def test_shift_json_rejects_bad_entries(rng):
    obj = json.loads(random_shift(GridSpec(1, 3), 1, 0, rng).to_json())
    entry = next(e for e in obj["entries"] if e["K"]["level"] == 1)
    bad = [("K", "pos", [1 - entry["K"]["pos"][0]]),  # I no longer lies under K
           ("I", "pos", [4]),                          # outside level 2
           ("J", "pos", [-1]),                         # outside level 1
           ("I", "level", 1),                          # not K level + i
           ("K", "level", 2)]                          # too deep for (i, j) = (1, 0)
    for key, name, value in bad:
        e = copy.deepcopy(entry)
        e[key][name] = value
        with pytest.raises(ValueError, match="entry 0"):
            ShiftOperator.from_json(json.dumps({**obj, "entries": [e]}))
    # a missing field, a non-finite a (json reads NaN and Infinity), and a
    # second entry for one (K, I, J, signatures) slot
    without = [{k: v for k, v in entry.items() if k != "a"},
               {**entry, "I": {k: v for k, v in entry["I"].items() if k != "sig"}},
               {k: v for k, v in entry.items() if k != "J"}]
    for entries, n in ([([e], 0) for e in without]
                       + [([{**entry, "a": a}], 0) for a in (np.nan, np.inf, -np.inf)]
                       + [([entry, {**entry, "a": 0.5}], 1)]):
        with pytest.raises(ValueError, match=f"entry {n}: "):
            ShiftOperator.from_json(json.dumps({**obj, "entries": entries}))


def test_shift_json_refuses_an_unknown_kind_and_a_negative_count(rng):
    obj = json.loads(random_shift(GridSpec(1, 3), 1, 0, rng).to_json())
    with pytest.raises(WrongKindError, match="^unknown shift kind weird$"):
        ShiftOperator.from_json(json.dumps({**obj, "kind": "weird"}))
    with pytest.raises(DepthError, match=r"\(-1,0\)"):
        ShiftOperator.from_json(json.dumps({**obj, "i": -1, "entries": []}))


@pytest.mark.parametrize("kind, field", [
    *(("cancellative", f) for f in ("grid", "i", "j", "kind", "entries")),
    *(("noncancellative", f) for f in ("symbol", "orientation"))])
def test_shift_json_names_a_missing_field(kind, field, rng):
    i = 1 if kind == "cancellative" else 0
    obj = json.loads(random_shift(GridSpec(1, 3), i, 0, rng, kind=kind).to_json())
    text = json.dumps({k: v for k, v in obj.items() if k != field})
    with pytest.raises(ValueError, match=f"^ShiftOperator JSON: missing field '{field}'$"):
        ShiftOperator.from_json(text)


def test_noncancellative_shift_json(rng):
    g = GridSpec(1, 4)
    S = random_shift(g, 0, 0, rng, kind="noncancellative", orientation="synthesis")
    obj = json.loads(S.to_json())
    assert obj["kind"] == "noncancellative"
    assert obj["orientation"] == "synthesis"
    assert "samples" in obj["symbol"]
    back = ShiftOperator.from_json(S.to_json())
    f = random_function(g, rng)
    assert (S.apply(f) - back.apply(f)).norm() < 1e-13


@pytest.mark.parametrize("g, i, j, seed, digest", [
    (GridSpec(1, 4), 1, 2, 7,
     "57390e96b012aac32b734687fa47ec16870002ae040e3a701659020eead1a630"),
    (GridSpec(2, 3), 1, 1, 11,
     "7642d30f7dc48c7dc393832d3584ced269cf242b83c6e61d5e931c3a56aa735a"),
    (GridSpec(2, 3, omega=((1, 0), (0, 1), (1, 1))), 1, 0, 5,
     "2dd20313f6893eaef151d7bd17de330f16ac10064bb8161a62bcadcbbb837f61"),
], ids=repr)
def test_shift_json_text_is_pinned(g, i, j, seed, digest):
    # the seeded draw, its normalization and the entry order are all fixed
    S = random_shift(g, i, j, seed)
    text = S.to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert ShiftOperator.from_json(text) == S


@pytest.mark.parametrize("space, seed, digest", [
    (GridSpec(1, 3, omega=((1,), (0,), (1,))), 3,
     "75879b5215aec552ddd6d46a0859d2bf9997c2f32713d17c3016de2608c606d8"),
    (GridSpec(2, 2, omega=((1, 0), (1, 1))), 4,
     "95cd7a8f5309afe3ba45590b8a8e6f1f6a8b496968e12430025a852f9e53635f"),
    (ProductGrid(GridSpec(1, 3, omega=((0,), (1,), (1,))), GridSpec(2, 1)), 5,
     "84203ccda60c19ab589ac7892f5b1f7f8372eddfa191367a1c5f87da81658bed"),
    (ProductGrid(GridSpec(1, 2), GridSpec(2, 2, omega=((0, 1), (1, 0)))), 6,
     "06653d9e2bf0c17e5b3cdf8bdcba0e4475e33277d25c49e16afb41c6f5939206"),
], ids=repr)
def test_function_json_text_is_pinned(space, seed, digest):
    # key order, sample order and the omega lists of shifted grids are fixed
    cls = DyadicFunction if isinstance(space, GridSpec) else ProductFunction
    f = cls(space, np.random.default_rng(seed).standard_normal(
        tuple(g.n_samples for g in space.grids)))
    text = f.to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    back = cls.from_json(text)
    assert back.space == space and np.array_equal(back.samples, f.samples)
