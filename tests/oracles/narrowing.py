"""The key narrowing of a stable SID window, restated a key at a time.

``merge_scan_layers(..., low=, high=)`` reads the window's first stored
block and narrows the window inside it: the start moves up to the
block's first SID keyed ``>= low``, and the stop down to one past its
first SID keyed ``> high`` when that lies in the block (a stop at the
table end leaves the upper end open). Bounds may be sort-key prefixes.
This is the same rule with a Python loop over ``StableTable.sk_at``, the
independent side of the narrowed-window suites.
"""


def narrowed_window(stable, start, stop, low, high, batch_rows=None):
    """``(start, stop)`` of the window ``[start, stop)`` narrowed to the
    inclusive key bounds ``[low, high]`` (None: open) inside its first
    stored block — its first scan batch, when ``batch_rows`` cuts the
    scan finer."""
    n = stable.num_rows
    start = min(start, n)
    stop = n if stop is None or stop >= n else max(stop, start)
    if start == stop or (low is None and high is None):
        return start, stop
    lead = stable.schema.sort_key[0]
    first, arrays = next(stable.scan(columns=[lead], start=start, stop=stop,
                                     batch_rows=batch_rows))
    end = first + len(arrays[lead])
    if low is not None:
        while start < end and stable.sk_at(start)[:len(low)] < tuple(low):
            start += 1
    if high is not None:
        past = start
        while past < end and stable.sk_at(past)[:len(high)] <= tuple(high):
            past += 1
        if past < end:
            stop = past + 1
    return start, stop
