"""Array evaluation of the mechanisms over many tapes at once.

The Monte Carlo cross-checks run millions of tapes, and the exact oracle
runs every margin ``q + x - (T + e)`` that each query value can take over
the noise box, to find the margins on which it gives each answer; that
rules out a per-tape Python run.  One kernel, ``run_status_gaps``, replays
all three mechanisms column-by-column over tape arrays, one array of draws
per query role, using the very same
arithmetic expressions and comparison directions as the per-tape runs.  The
run state after each answer, and where the run stops, come from
``run_state_table``, which the exact oracle reads too; the adaptive guard in
it is evaluated from the exact rational budget.  The kernel's agreement with
the per-tape implementations is asserted by dedicated equivalence tests
(exhaustively on small boxes, sampled on large ones), so distribution-level
results always rest on the step-by-step mechanisms, not on this file alone.

Per-tape answers are encoded positionally: 0 = not emitted (run had ended),
1 = below threshold, and for positive answers ``branch_code + 4 * gap``
where branch_code is 2 for plain/first and 3 for second.  The kernel leaves
``gaps`` at exactly 0 wherever ``status`` is below ``STATUS_TOP``, so the
code of every answer is ``status + 4 * gaps`` with no mask.  Integer
workloads with integer tapes make the gap exact, so encoded rows are exact
output identifiers.  ``int_row_keys`` folds each encoded row into one exact int64
key: the columns are packed in a mixed radix of their spans, and the
running key is replaced by its dense rank whenever the next column would
overflow int64, so equal keys mean equal rows for every input, and keys
order like the rows.  ``key_groups`` gives those ranks, and groups keys for
counting, and the exact oracle's codes over its margins for their boxes:
through a table over the key span where the span is at most twice the key
count, as it is for Monte Carlo sub-blocks, and through a sort where it is
wider, as after a rank step on wide columns.  Monte Carlo holds a chunk's
draws whole but runs the kernel and this keying a sub-block of the
sampler's ``_DRAW_BLOCK`` rows at a time, then groups the sub-blocks'
distinct rows once more; the chunk size alone fixes the draw order, and so
the results.

Real-valued outputs cannot be int-encoded; ``canonical_rows`` gives them
the per-tape canonical keys instead.  It works a column at a time: numpy
rounds each gap column (Python's ``round`` takes the few elements near a
decimal tie), one list comprehension builds the column's answer keys, and
the rows are zipped from the columns.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import BOT_KEY, TOP_KEY, Branch, Workload
from .mechanisms import ADAPTIVE_GAP, SVT_CLASSIC, SVT_GAP

STATUS_ABSENT = 0
STATUS_BOT = 1
STATUS_TOP = 2  # plain SVT positives and adaptive first-branch positives
STATUS_TOP_SECOND = 3


def run_state_table(mechanism: str, w: Workload, budget) -> tuple[np.ndarray, np.ndarray, int | None]:
    """The run state as two read-only tables, ``step[status]``, what an
    answer of that status adds to the state, and ``stop[state]``, whether
    the run has ended once the state is reached; and ``limit``, the state
    from which ``stop`` holds at every state, or None when it has no such
    threshold.

    The plain variants count their positives and stop at ``k``.  The
    adaptive state is ``j1 * (n + 1) + j2`` after j1 first-branch and j2
    second-branch positives, and it stops where the per-tape run's integer
    guard (``budget.guard_units``, in Python ints so nothing overflows)
    does, bit for bit."""
    return _state_table(len(w), w.k, budget.guard_units if mechanism == ADAPTIVE_GAP else None)


@lru_cache(maxsize=1024)
def _state_table(n: int, k: int, guard: tuple | None):
    if guard is None:
        step, stop = np.array([0, 0, 1, 1]), np.arange(n + 1) >= k
    else:
        first, second, headroom = guard
        step = np.array([0, 0, n + 1, 1])
        stop = np.array([j1 * first + j2 * second > headroom for j1 in range(n + 1) for j2 in range(n + 1)])
    step.setflags(write=False)  # the cache hands the same arrays to every caller
    stop.setflags(write=False)
    limit = np.count_nonzero(~stop)
    return step, stop, limit if stop[limit:].all() else None


def run_status_gaps(mechanism: str, w: Workload, side, budget, eta0, draws):
    """Run the mechanism's loop over tape arrays.

    ``eta0`` is a scalar or (G,) threshold draws and ``draws`` one (G, n)
    array of per-query draws per query role, in role order.  The first
    attempt must clear the noisy threshold by ``sigma``, which is 0 for the
    plain variants whatever ``w.sigma`` holds; a second attempt, where the
    layout has one, is tested at margin 0 wherever the first failed.
    Returns ``status`` (G, n) uint8 and ``gaps`` (G, n) in the arithmetic
    dtype of the inputs, 0 wherever status is below STATUS_TOP.
    """
    values = w.values(side)
    first_draws, *rest = map(np.asarray, draws)
    G, n = first_draws.shape
    if n != len(values) or any(d.shape != (G, n) for d in rest):
        raise ValueError(f"expected (G, {len(values)}) draws, one column per query, got {[np.shape(d) for d in draws]}")
    second_draws = rest[0] if rest else None  # the second attempt's, where the layout has one
    sigma = w.sigma if mechanism == ADAPTIVE_GAP else 0
    step, stop, limit = run_state_table(mechanism, w, budget)
    step_first, step_second = step[STATUS_TOP:].tolist()
    status = np.empty((G, n), dtype=np.uint8, order="F")
    gap_dtype = np.result_type(
        first_draws.dtype, *(d.dtype for d in rest), np.asarray(eta0).dtype, np.asarray(values).dtype, np.asarray(w.threshold).dtype
    )
    gaps = np.zeros((G, n), dtype=gap_dtype, order="F")
    noisy_threshold = w.threshold + eta0  # scalar or (G,)
    # with a threshold ``limit`` (the plain variants' k), one comparison
    # replaces the table lookup, which costs about 20 times as much
    go = ~stop if limit is None else None
    state = np.zeros(G, dtype=np.min_scalar_type(len(stop) - 1))
    alive = np.ones(G, dtype=bool)
    for i, q in enumerate(values):
        first_gap = q + first_draws[:, i] - noisy_threshold
        first = first_gap >= sigma
        first &= alive
        np.add(alive, first, out=status[:, i], dtype=np.uint8)
        np.copyto(gaps[:, i], first_gap, where=first)
        if second_draws is not None:
            second_gap = q + second_draws[:, i] - noisy_threshold
            second = second_gap >= 0
            second &= alive
            second &= ~first
            status[:, i] += 2 * second.view(np.uint8)
            np.copyto(gaps[:, i], second_gap, where=second)
        if i < n - 1:
            state += np.multiply(first, step_first, dtype=state.dtype)
            if second_draws is not None:
                state += np.multiply(second, step_second, dtype=state.dtype)
            alive &= state < limit if limit is not None else go.take(state)
    return status, gaps


def encode_int_rows(mechanism: str, status: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Positional int64 encoding of integer-valued outputs (see module doc).

    Relies on the kernel's contract that ``gaps`` is 0 wherever ``status``
    is below ``STATUS_TOP``, so ``status + 4 * gaps`` needs no mask."""
    if mechanism == SVT_CLASSIC:
        return status.astype(np.int64)
    g = np.asarray(gaps)
    if g.dtype.kind == "f":
        gi = np.rint(g).astype(np.int64)
        if not np.array_equal(gi, g):
            raise ValueError("non-integer gaps cannot be int-encoded")
        g = gi
    codes = np.multiply(g, 4, dtype=np.int64)
    codes += status
    return codes


_INT64_MAX = int(np.iinfo(np.int64).max)


def key_groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the elements of a 1-D int64 key array by value, groups in key
    order: each element's group (the dense rank of its key) and, per group,
    the index of one element that stands for it.

    Where the keys span ``max - min + 1`` at most twice their number, the
    rank comes from a table over the span: a presence mask of the offsets
    ``key - min``, its running sum, and the rank of each offset read back
    into the offset array in place.  Wider spans take one unstable sort, an
    adjacent-difference mask and a binary search.  Both give the same
    groups, so the same representatives."""
    n = len(keys)
    lo, hi = (int(keys.min()), int(keys.max())) if n else (0, -1)
    span = hi - lo + 1  # in Python ints, so it cannot wrap
    if 0 < span <= 2 * n:
        inverse = keys - lo
        present = np.zeros(span, dtype=bool)
        present[inverse] = True
        rank = np.cumsum(present, dtype=np.int64)
        groups = int(rank[-1])
        rank -= 1
        # "clip" takes unbuffered, so the ranks overwrite the offsets they
        # are read by without a second array of n; no offset needs clipping
        np.take(rank, inverse, out=inverse, mode="clip")
        del present, rank  # freed before the scatter below, like the sort's arrays
    else:
        s = np.sort(keys)
        first = np.empty(n, dtype=bool)
        first[:1] = True
        np.not_equal(s[1:], s[:-1], out=first[1:])
        uniq = s[first]
        del s, first  # freed before the scatter below allocates as much again
        inverse = np.searchsorted(uniq, keys)
        groups = len(uniq)
    rows = np.empty(groups, dtype=np.int64)
    rows[inverse] = np.arange(n)  # any element of a group stands for it
    return inverse, rows


def int_row_keys(codes: np.ndarray) -> np.ndarray:
    """One int64 key per row of a 2-D integer array, equal exactly for equal
    rows and ordered like the rows lexicographically.

    Columns are packed left to right, each shifted to start at 0 and
    multiplied in by its span ``max - min + 1``.  When that product would
    pass int64, the running key is first replaced by its dense rank, which
    is below the row count; a column whose own span is still too large is
    ranked too.  Both ranks keep the order, so the key stays exact."""
    codes = np.asarray(codes, dtype=np.int64)
    rows, cols = codes.shape
    key = np.zeros(rows, dtype=np.int64)
    radix = 1  # every key lies in [0, radix)
    for j in range(cols):
        col = codes[:, j]
        lo = int(col.min())
        span = int(col.max()) - lo + 1
        if radix * span > _INT64_MAX:
            key, groups = key_groups(key)
            radix = len(groups)
            if radix * span > _INT64_MAX:
                col, groups = key_groups(col)
                span, lo = len(groups), 0
        key = key * span + (col - lo)
        radix *= span
    return key


_TOP_NAMES = {  # a positive answer's key by its branch code (code & 3), per mechanism
    SVT_CLASSIC: (None, None, TOP_KEY, TOP_KEY),
    SVT_GAP: (None, None, Branch.PLAIN.value, Branch.PLAIN.value),
    ADAPTIVE_GAP: (None, None, Branch.FIRST.value, Branch.SECOND.value),
}


def decode_row(mechanism: str, row) -> tuple:
    """Inverse of encode_int_rows for one row of Python ints (``tolist()``
    of a code row), yielding the answers the per-tape run emits."""
    names = _TOP_NAMES[mechanism]
    with_gap = mechanism != SVT_CLASSIC
    out = []
    for c in row:
        if c == STATUS_ABSENT:
            break
        if c == STATUS_BOT:
            out.append(BOT_KEY)
        elif with_gap:
            out.append((names[c & 3], c >> 2))
        else:
            out.append(names[c & 3])
    return tuple(out)


def _round_gaps(top: np.ndarray, gaps: np.ndarray, ndigits: int) -> np.ndarray:
    """``round(g, ndigits)`` of every float gap where ``top`` holds.

    numpy scales by ``10**ndigits``, takes ``rint`` and scales back.  That
    equals Python's correctly rounded ``round`` wherever the scaled value
    is more than 2 ulp from a half-integer (so below 2**50): the scaling
    error of half an ulp cannot move it across a tie, and the division back
    is correctly rounded like ``round``'s own decimal-to-double step.  The
    few other elements, and all of them when ``10**ndigits`` is not an
    exact double, go through ``round`` itself."""
    if 0 <= ndigits <= 22:  # 10**ndigits is an exact double
        scale = 10.0**ndigits
        with np.errstate(over="ignore", invalid="ignore"):
            y = gaps * scale
            r = np.rint(y)
            out = r / scale
            # not shown to be more than 2 ulp from a tie: this takes in
            # every |y| >= 2**50, and inf and NaN by the negation
            slow = ~(0.5 - np.abs(y - r) > 2 * np.spacing(np.abs(y)))
        slow &= top
    else:
        out, slow = gaps.copy(), top
    for i, j in zip(*np.nonzero(slow)):
        out[i, j] = round(float(gaps[i, j]), ndigits)
    return out


def _gap_columns(status: np.ndarray, gaps, ndigits: int | None):
    """Each column of ``gaps`` in turn as a list of the numbers the keys
    hold: ``round(g, ndigits)``, then ``int`` where a rounded float is
    integral."""
    g = np.asarray(gaps)
    if g.dtype.kind != "f":
        for col in g.T.tolist():
            yield col if ndigits is None or ndigits >= 0 else [round(v, ndigits) for v in col]
        return
    top = status >= STATUS_TOP
    g = g.astype(np.float64)
    if ndigits is not None:
        g = _round_gaps(top, g, ndigits)
    integral = np.floor(g) == g
    integral &= np.isfinite(g)
    integral &= top
    for j in range(g.shape[1]):
        col = g[:, j].tolist()
        for i in np.flatnonzero(integral[:, j]).tolist():
            col[i] = int(col[i])
        yield col


def _column_keys(mechanism: str, status: np.ndarray, gaps, gap_ndigits: int | None) -> list:
    """``canonical_rows`` without the ``svt`` grouping."""
    n = status.shape[1]
    status_cols = status.T.tolist()
    if mechanism == SVT_CLASSIC:
        cols = [[TOP_KEY if s >= STATUS_TOP else BOT_KEY for s in sc] for sc in status_cols]
    else:
        names = _TOP_NAMES[mechanism]
        cols = [
            [(names[s], g) if s >= STATUS_TOP else BOT_KEY for s, g in zip(sc, gc)]
            for sc, gc in zip(status_cols, _gap_columns(status, gaps, gap_ndigits))
        ]
    absent = status == STATUS_ABSENT
    lengths = np.where(absent.any(axis=1), absent.argmax(axis=1), n).tolist()
    return [row[:length] for row, length in zip(zip(*cols), lengths)]


def canonical_rows(mechanism: str, status, gaps, gap_ndigits: int | None = None) -> list:
    """The key ``OutputSequence.canonical(gap_ndigits)`` gives for every row.

    Keys are built a column at a time: one list of answer keys per column
    (gaps as ``_gap_columns`` rounds them), zipped into row tuples and each
    cut at its first ``STATUS_ABSENT``.  ``svt`` keys carry no gaps, so its
    rows are grouped by ``int_row_keys`` and only the distinct keys built."""
    status = np.asarray(status)
    if mechanism == SVT_CLASSIC and len(status):
        inverse, rows = key_groups(int_row_keys(status))
        keys = _column_keys(mechanism, status[rows], None, None)
        return [keys[i] for i in inverse.tolist()]
    return _column_keys(mechanism, status, gaps, gap_ndigits)
