"""TPC-H query correctness: cross-mode equality and brute-force oracles.

The strongest check in the repository: after applying the refresh streams,
the no-updates scan of a *rebuilt* database, the positional (PDT) merge
scan, and the value-based (VDT) merge scan must produce identical results
for every one of the 22 queries.
"""

import numpy as np
import pytest

from repro.engine import functions as fn
from repro.tpch import (
    CleanSource,
    NON_UPDATED_QUERIES,
    PdtSource,
    RefreshApplier,
    VdtSource,
    generate,
    load_database,
    run_query,
)
from repro.tpch import schema as tpch_schema

SCALE = 0.002


@pytest.fixture(scope="module")
def env():
    """One generated dataset + the three run modes, updates applied."""
    data = generate(scale=SCALE, seed=1234)
    db = load_database(data, compressed=False)
    applier = RefreshApplier(data)

    applier.apply_all_pdt(db)
    vdts = applier.make_vdts()
    applier.apply_all_vdt(vdts)

    # Rebuild a reference database containing the post-update image.
    from repro.db import Database

    ref_db = Database(compressed=False)
    for name, schema in tpch_schema.SCHEMAS.items():
        if name in tpch_schema.UPDATED_TABLES:
            rows = applier.post_update_rows(name)
        else:
            rows = data.rows(name)
        ref_db.create_table(name, schema, rows)

    clean_db = load_database(data, compressed=False)
    with db, ref_db, clean_db:
        yield {
            "data": data,
            "pdt": PdtSource(db),
            "vdt": VdtSource(db, vdts),
            "ref": CleanSource(ref_db),
            "clean": CleanSource(clean_db),
        }


def normalized(rel):
    """Rows with floats rounded for comparison."""
    out = []
    for row in rel.rows():
        norm = []
        for v in row:
            if isinstance(v, (float, np.floating)):
                norm.append(round(float(v), 4))
            elif isinstance(v, np.integer):
                norm.append(int(v))
            else:
                norm.append(v)
        out.append(tuple(norm))
    return out


@pytest.mark.parametrize("number", sorted(range(1, 23)))
def test_query_modes_agree(env, number):
    """PDT merge == VDT merge == rebuilt clean database, for every query."""
    ref = normalized(run_query(number, env["ref"]))
    pdt = normalized(run_query(number, env["pdt"]))
    vdt = normalized(run_query(number, env["vdt"]))
    assert pdt == ref, f"Q{number}: PDT result diverges from rebuilt truth"
    assert vdt == ref, f"Q{number}: VDT result diverges from rebuilt truth"


@pytest.mark.parametrize("number", NON_UPDATED_QUERIES)
def test_non_updated_queries_unchanged(env, number):
    """Q2, Q11, Q16 touch no updated tables: identical to the pre-update
    database (paper footnote 6)."""
    before = normalized(run_query(number, env["clean"]))
    after = normalized(run_query(number, env["pdt"]))
    assert before == after


class TestBruteForceOracles:
    """Hand-rolled reference implementations on raw rows."""

    def test_q01_matches_python(self, env):
        rows = env["data"].rows("lineitem")
        applier = RefreshApplier(env["data"])
        rows = applier.post_update_rows("lineitem")
        schema = tpch_schema.LINEITEM
        idx = {c: schema.column_index(c) for c in schema.column_names}
        cutoff = fn.add_days(fn.days(1998, 12, 1), -90)
        groups = {}
        for r in rows:
            if r[idx["l_shipdate"]] <= cutoff:
                key = (r[idx["l_returnflag"]], r[idx["l_linestatus"]])
                g = groups.setdefault(key, [0.0, 0.0, 0])
                g[0] += r[idx["l_quantity"]]
                price = r[idx["l_extendedprice"]]
                g[1] += price * (1 - r[idx["l_discount"]])
                g[2] += 1
        got = run_query(1, env["pdt"])
        got_map = {
            (rf, ls): (sq, sdp, c)
            for rf, ls, sq, sdp, c in zip(
                got["l_returnflag"], got["l_linestatus"], got["sum_qty"],
                got["sum_disc_price"], got["count_order"],
            )
        }
        assert set(got_map) == set(groups)
        for key, (sq, sdp, c) in groups.items():
            assert got_map[key][0] == pytest.approx(sq)
            assert got_map[key][1] == pytest.approx(sdp)
            assert got_map[key][2] == c

    def test_q06_matches_python(self, env):
        applier = RefreshApplier(env["data"])
        rows = applier.post_update_rows("lineitem")
        schema = tpch_schema.LINEITEM
        idx = {c: schema.column_index(c) for c in schema.column_names}
        lo, hi = fn.days(1994, 1, 1), fn.days(1995, 1, 1)
        expected = sum(
            r[idx["l_extendedprice"]] * r[idx["l_discount"]]
            for r in rows
            if lo <= r[idx["l_shipdate"]] < hi
            and 0.05 - 1e-9 <= r[idx["l_discount"]] <= 0.07 + 1e-9
            and r[idx["l_quantity"]] < 24
        )
        got = run_query(6, env["pdt"])
        assert float(got["revenue"][0]) == pytest.approx(expected)

    def test_q18_low_threshold_matches_python(self, env):
        applier = RefreshApplier(env["data"])
        rows = applier.post_update_rows("lineitem")
        schema = tpch_schema.LINEITEM
        ik, iq = schema.column_index("l_orderkey"), schema.column_index(
            "l_quantity"
        )
        sums = {}
        for r in rows:
            sums[r[ik]] = sums.get(r[ik], 0.0) + r[iq]
        threshold = 150
        expected_orders = {k for k, s in sums.items() if s > threshold}
        got = run_query(18, env["pdt"], quantity=threshold)
        assert set(got["o_orderkey"].tolist()) <= expected_orders
        assert len(got.rows()) == min(len(expected_orders), 100)


def test_query_results_are_nonempty(env):
    """Smoke: the headline queries return rows at this scale (guards
    against silently-empty plans)."""
    for number in (1, 3, 4, 5, 6, 9, 10, 12, 13, 14, 19):
        rel = run_query(number, env["pdt"])
        assert rel.num_rows > 0, f"Q{number} empty"


def test_unknown_query_number_rejected(env):
    with pytest.raises(ValueError):
        run_query(23, env["pdt"])
