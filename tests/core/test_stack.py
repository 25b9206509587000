"""Unit tests for layer-stacking helpers."""

import random

from repro.core import (
    PDT,
    image_rows,
    merge_rows_layers,
    merge_scan_layers,
    total_delta,
)
from repro.storage import StableTable

from .helpers import TableDriver, apply_random_ops, int_schema


def make_stack(seed=3, layers=2):
    schema = int_schema()
    rows = [(k * 10, k, f"s{k}") for k in range(20)]
    table = StableTable.bulk_load("t", schema, rows)
    stack = []
    image = rows
    rng = random.Random(seed)
    for _ in range(layers):
        pdt = PDT(schema, fanout=4)
        driver = TableDriver(schema, image, [pdt])
        apply_random_ops(driver, rng, 15, key_range=400)
        image = driver.expected_rows()
        stack.append(pdt)
    return table, stack, image, rows


class TestStackHelpers:
    def test_image_rows(self):
        table, stack, image, _ = make_stack()
        assert image_rows(table, stack) == image

    def test_merge_rows_layers(self):
        table, stack, image, rows = make_stack()
        assert merge_rows_layers(rows, stack) == image

    def test_total_delta(self):
        table, stack, image, rows = make_stack()
        assert total_delta(stack) == len(image) - len(rows)

    def test_empty_layers_are_skipped(self):
        table, stack, image, _ = make_stack()
        schema = table.schema
        padded = [PDT(schema), stack[0], PDT(schema), stack[1], PDT(schema)]
        got = []
        for _, arrays in merge_scan_layers(table, padded, batch_rows=7):
            got.extend(
                tuple(arrays[c][i] for c in schema.column_names)
                for i in range(len(arrays["k"]))
            )
        assert got == image

    def test_no_layers_is_plain_scan(self):
        table, _, _, rows = make_stack()
        got = []
        for _, arrays in merge_scan_layers(table, [], batch_rows=8):
            got.extend(
                tuple(arrays[c][i] for c in table.schema.column_names)
                for i in range(len(arrays["k"]))
            )
        assert got == rows

    def test_range_scan_through_stack(self):
        table, stack, image, rows = make_stack()
        start, stop = 5, 15
        got = []
        for _, arrays in merge_scan_layers(
            table, stack, start=start, stop=stop, batch_rows=4
        ):
            got.extend(
                tuple(arrays[c][i] for c in table.schema.column_names)
                for i in range(len(arrays["k"]))
            )
        # The window holds the image tuples keyed in
        # (key[start-1], key[stop-1]] of the stable image.
        low, high = rows[start - 1][0], rows[stop - 1][0]
        assert got == [r for r in image if low < r[0] <= high]
