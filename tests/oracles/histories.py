"""Random update histories whose hostile shapes sit at window bounds.

A stable SID window ends at a stable tuple. When a lower layer turned that
tuple into a ghost, a higher layer's inserts around its key sit exactly
*at* the bound in the higher layer's SID domain — that layer cannot see
the ghost. :func:`random_history` builds such stacks: 1-3 PDT layers
filled bottom-up by the oracle's :class:`ScalarUpdater`, with deletes
biased to granule-closing rows and inserts around them.
:func:`random_ops` is its op generator, for suites that apply the same
histories through a ``Database``.

Stable rows hold the even key numbers ``0, 2, ...`` and carry the number
in their last column; the key space is twice the row count. Rows have two
non-key columns, ``b`` and ``a``, and modifies pick either, so a stable
tuple can collect a two-entry modify chain in one layer.
"""

from repro import DataType, PDT, Schema
from repro.storage import StableTable

from .scalar_resolve import ScalarUpdater


def make_schema(n_key_cols):
    cols = [(f"k{i}", DataType.INT64) for i in range(n_key_cols)]
    cols += [("b", DataType.INT64), ("a", DataType.INT64)]
    return Schema.build(*cols,
                        sort_key=tuple(f"k{i}" for i in range(n_key_cols)))


def value_columns(schema):
    """The non-key columns, in schema order."""
    return [c for c in schema.column_names if c not in schema.sort_key]


def key_of(number, n_key_cols):
    """Order-preserving key for a key number. Two-column keys share their
    leading value four at a time, so locating one needs both columns."""
    if n_key_cols == 1:
        return (number,)
    return (number // 4, number % 4)


def stable_row(number, n_key_cols):
    """The stable row of a key number: its key, ``b = -number``, then the
    number itself."""
    return key_of(number, n_key_cols) + (-number, number)


def random_row(rng, schema, number):
    """A row to insert at a key number: random non-key values."""
    return key_of(number, len(schema.sort_key)) + tuple(
        rng.randrange(1000) for _ in value_columns(schema))


def make_stable(schema, numbers):
    n = len(schema.sort_key)
    return StableTable.bulk_load(
        "t", schema, [stable_row(k, n) for k in numbers])


def random_ops(rng, schema, live, closers, key_space, count):
    """``count`` rolls of valid ``("ins"|"del"|"mod", ...)`` batch ops over
    the key numbers in ``live`` (updated in place). Deletes favour the
    ``closers`` still live and inserts the keys around them; a deleted
    key is a candidate for re-insertion; a modify sets any non-key
    column."""
    n = len(schema.sort_key)
    columns = value_columns(schema)
    ops = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.45:
            around = rng.choice(closers) + rng.randrange(-3, 4) \
                if closers and rng.random() < 0.5 \
                else rng.randrange(-2, key_space + 3)
            if around in live:
                continue
            ops.append(("ins", random_row(rng, schema, around)))
            live.add(around)
        elif live and roll < 0.85:
            boundary = [k for k in closers if k in live]
            k = rng.choice(boundary) \
                if boundary and rng.random() < 0.5 \
                else rng.choice(sorted(live))
            ops.append(("del", key_of(k, n)))
            live.discard(k)
        elif live:
            ops.append(("mod", key_of(rng.choice(sorted(live)), n),
                        rng.choice(columns), rng.randrange(1000)))
    return ops


def random_history(rng, stable, index, n_layers, ops_per_layer):
    """1-3 layers filled bottom-up with :func:`random_ops` by the oracle's
    updater (so the production resolver has no hand in the fixture), the
    closers being the last row of every ``index`` granule. Returns the
    layers and the live key numbers."""
    numbers = [r[-1] for r in stable.rows()]
    live = set(numbers)
    closers = numbers[index.granularity - 1::index.granularity]
    layers = []
    for _ in range(n_layers):
        layers.append(PDT(stable.schema, fanout=4))
        updater = ScalarUpdater(stable, layers, index)
        for op in random_ops(rng, stable.schema, live, closers,
                             2 * len(numbers), ops_per_layer):
            if op[0] == "ins":
                updater.insert(op[1])
            elif op[0] == "del":
                updater.delete_by_key(op[1])
            else:
                updater.modify_by_key(op[1], op[2], op[3])
    return layers, live


def replay(model, ops, schema):
    """Apply batch ops to ``model`` (SK tuple -> row tuple) in place and
    return it."""
    n = len(schema.sort_key)
    for op in ops:
        if op[0] == "ins":
            model[tuple(op[1][:n])] = tuple(op[1])
        elif op[0] == "del":
            del model[tuple(op[1])]
        else:
            row = list(model[tuple(op[1])])
            row[schema.column_names.index(op[2])] = op[3]
            model[tuple(op[1])] = tuple(row)
    return model
