"""Minimal encoding-length merging dynamic programs (Section 4.2, Algorithms 1-2).

Two clusters ``C_x`` and ``C_y`` are described by the token sequences of their
optimal patterns (characters + wildcards) and their sizes (number of records).
Merging the clusters means finding a common subsequence of the two patterns to
keep as the merged pattern; every token that is *not* kept becomes residual data
for the records of the cluster it came from, and every new field incurs one
VARCHAR length descriptor per record of the merged cluster.

Two implementations are provided:

* :func:`monotonic_merge` — the O(n*m) dynamic program of Algorithms 1 and 2,
  valid for monotonic encoder sets (Definition 4); it additionally performs a
  traceback so the merged token sequence is returned alongside the encoding
  length increment.
* :func:`generic_merge` — the unrestricted dynamic program sketched at the start
  of Section 4.2 that enumerates all previous states and all encoders.  It is
  exponentially more expensive and exists as a reference for cross-checking the
  monotonic algorithm on small inputs (and for the non-monotonic encoder tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice
from operator import ne
from typing import Sequence

from repro.core.encoders import select_encoder
from repro.core.pattern import WILDCARD, collapse_wildcards

# traceback moves; x and y are False and True because a row's moves are read off
# as ``score != from_x`` (equal scores prefer x), then its pattern cells marked.
_FROM_X = 0
_FROM_Y = 1
_FROM_DIAGONAL = 2

#: compares unequal to every token, so a wildcard row never keeps a character
_NO_MATCH = object()


@dataclass(frozen=True)
class MergeResult:
    """Outcome of merging two cluster patterns."""

    increment: int
    """Encoding length increment (Definition 3) of the merge."""

    tokens: list
    """Merged pattern token sequence (characters and :data:`WILDCARD`)."""

    def __iter__(self):
        yield self.increment
        yield self.tokens


def _next_row(
    previous: list, previous_pattern: dict, token_x, x_step: int, weight: int,
    tokens_y: Sequence, y_costs: list, both_step: int,
) -> tuple[list, dict, list]:
    """One row of Algorithm 1, with Algorithm 2 (UpdateState) folded in.

    A cell is either *residual* (its last token went to the residual
    subsequence) or *pattern* (its last token was kept).  Turning one more
    token into residual data costs the token itself (``x_step`` / ``y_costs``:
    one payload byte per record of its own cluster for a literal, the release
    of an already-paid descriptor for a wildcard) and, when it leaves a pattern
    cell, ``both_step`` for the new field's length descriptor in every record
    of the merged cluster.  Rows therefore hold each cell's *leaving* score
    (score plus ``both_step`` for a pattern cell), which is all a neighbour
    needs; the few pattern cells keep their own score in a ``{j: score}`` dict
    for the diagonal step.  Returns the row, its pattern cells and ``from_x``,
    every cell's score had it been reached by consuming ``token_x``.
    """
    if token_x is WILDCARD:
        token_x, x_step = _NO_MATCH, -x_step
    from_x = [value + x_step for value in previous]
    left = from_x[0]
    row = [left]
    pattern: dict = {}
    append = row.append
    for token_y, up, y_cost in zip(tokens_y, islice(from_x, 1, None), y_costs):
        left += y_cost
        if up < left:
            left = up
        if token_y == token_x:
            # The character can be kept at no extra cost; on ties keeping wins,
            # then x over y (equal scores, so only the move differs).
            j = len(row)
            diagonal = previous_pattern.get(j - 1)
            if diagonal is None:
                diagonal = previous[j - 1]
            diagonal -= weight
            if diagonal <= left:
                pattern[j] = diagonal
                left = diagonal + both_step
        append(left)
    return row, pattern, from_x


def monotonic_merge(
    tokens_x: Sequence, tokens_y: Sequence, size_x: int, size_y: int
) -> MergeResult:
    """Minimal encoding-length merge for monotonic encoders (Algorithm 1).

    Among all merges with the minimal encoding-length increment the one that
    keeps the *most* literal characters in the pattern is preferred: under the
    VARCHAR cost model used during clustering, keeping an isolated matching
    character is cost-neutral, but the extra literal pays off later when field
    encoders are specialised (Definition 2), so ties are broken towards it.

    Parameters
    ----------
    tokens_x, tokens_y:
        Token sequences of the two cluster patterns (characters / WILDCARD).
    size_x, size_y:
        Number of records in the two clusters.

    Returns
    -------
    MergeResult
        The encoding-length increment and the merged token sequence.
    """
    n = len(tokens_x)
    m = len(tokens_y)

    # The DP optimises lexicographically: primary key is the encoding-length
    # increment, secondary key (as a tie-breaker) is a weighted count of kept
    # pattern literals, maximised.  Separator characters (non-alphanumeric)
    # carry more weight than alphanumeric ones: keeping an isolated digit from
    # two unrelated number fields is encoding-length neutral but fragments the
    # field (hurting encoder specialisation), whereas keeping a separator marks
    # a real field boundary.  Both keys are folded into one integer score
    # ``EL * scale - kept_weight`` with ``scale`` larger than any possible
    # weight total, which keeps the inner loop to simple integer comparisons
    # and lets the increment be read back as ``ceil(score / scale)``.
    scale = 4 * (n + m) + 2
    x_step = size_x * scale
    y_step = size_y * scale
    both_step = (size_x + size_y) * scale

    # Row 0: consuming a prefix of one pattern alone turns it into residuals.
    y_costs = [-y_step if token is WILDCARD else y_step for token in tokens_y]
    row = list(accumulate(y_costs, initial=both_step))
    pattern = {0: 0}
    # One byte per cell, rows of m + 1; a pattern cell is a _FROM_DIAGONAL one.
    move = bytearray([_FROM_DIAGONAL]) + bytes([_FROM_Y]) * m
    for token_x in tokens_x:
        weight = 0 if token_x is WILDCARD else 1 if token_x.isalnum() else 4
        row, pattern, from_x = _next_row(row, pattern, token_x, x_step, weight, tokens_y, y_costs, both_step)
        moves = bytearray(map(ne, row, from_x))
        for j in pattern:
            moves[j] = _FROM_DIAGONAL
        move += moves

    tokens = _traceback(tokens_x, tokens_y, move, m + 1, n, m)
    increment = -(-pattern.get(m, row[m]) // scale)
    return MergeResult(increment=increment, tokens=tokens)


def _traceback(tokens_x: Sequence, tokens_y: Sequence, move: bytearray, width: int, n: int, m: int) -> list:
    """Recover the merged pattern from the traceback table."""
    tokens: list = []
    i, j = n, m
    while i > 0 or j > 0:
        direction = move[i * width + j]
        if i > 0 and j > 0 and direction == _FROM_DIAGONAL:
            tokens.append(tokens_x[i - 1])
            i -= 1
            j -= 1
        elif i > 0 and (direction == _FROM_X or j == 0):
            tokens.append(WILDCARD)
            i -= 1
        else:
            tokens.append(WILDCARD)
            j -= 1
    tokens.reverse()
    return collapse_wildcards(tokens)


def merge_increment_bounded(
    tokens_x: Sequence, tokens_y: Sequence, size_x: int, size_y: int, bound: int
) -> int | None:
    """Like :func:`monotonic_merge` but abandons the DP once every state in a row
    exceeds ``bound`` (step 3 of the Section 5.1 pruning strategy).

    Returns the increment, or ``None`` if the computation was pruned.  No
    traceback information is kept and no literal-count tie-break is applied,
    which makes this variant the cheap primitive used while scanning for the
    closest cluster pair.
    """
    for increment, peak in _bounded_rows(tokens_x, tokens_y, size_x, size_y):
        if peak > bound:
            return None
    return increment


def merge_increment_peak(tokens_x: Sequence, tokens_y: Sequence, size_x: int, size_y: int) -> tuple[int, float]:
    """The bounded DP run to its end: ``(increment, peak)``.

    :func:`merge_increment_bounded` returns ``None`` under every bound below
    ``peak`` (the highest row minimum) and ``increment`` under every other, so
    one call answers all later bounds for an unchanged pair of clusters.
    """
    for increment, peak in _bounded_rows(tokens_x, tokens_y, size_x, size_y):
        pass
    return increment, peak


def _bounded_rows(tokens_x: Sequence, tokens_y: Sequence, size_x: int, size_y: int):
    """Row by row: the last cell's score and the highest row minimum so far
    (``-inf`` after row 0, which no bound is checked against)."""
    m = len(tokens_y)
    size_both = size_x + size_y
    y_costs = [-size_y if token is WILDCARD else size_y for token in tokens_y]
    row = list(accumulate(y_costs, initial=size_both))
    pattern = {0: 0}
    peak = float("-inf")
    yield pattern.get(m, row[m]), peak
    for token_x in tokens_x:
        row, pattern, _from_x = _next_row(row, pattern, token_x, size_x, 0, tokens_y, y_costs, size_both)
        # a pattern cell's own score lies below the leaving score ``row`` holds
        peak = max(peak, min(min(row), min(pattern.values(), default=row[0])))
        yield pattern.get(m, row[m]), peak


def generic_merge(
    records_x: Sequence[str], records_y: Sequence[str], tokens_x: Sequence, tokens_y: Sequence
) -> MergeResult:
    """Reference DP for arbitrary (possibly non-monotonic) encoder sets.

    Implements the unrestricted state transition of Section 4.2: every state
    ``state[i][j]`` is reached from *any* earlier state ``state[i-k][j-l]`` by
    turning the skipped token ranges into a single new field whose encoder is
    chosen optimally (via :func:`repro.core.encoders.select_encoder`) for the
    concrete residual values that the records of both clusters would store.

    The cost model evaluates the real encoders on the real residual strings, so
    this function needs the cluster *records*, not just the sizes.  Complexity is
    O(|F| * (N+M) * n^2 * m^2); it is only intended for small inputs (tests and
    cross-validation of :func:`monotonic_merge`).
    """
    n = len(tokens_x)
    m = len(tokens_y)

    def field_cost(x_piece: Sequence, y_piece: Sequence) -> int:
        """Cost of storing the skipped token ranges as one field for all records."""
        x_text = "".join("" if token is WILDCARD else token for token in x_piece)
        y_text = "".join("" if token is WILDCARD else token for token in y_piece)
        values = [x_text] * len(records_x) + [y_text] * len(records_y)
        encoder = select_encoder(values)
        return sum(encoder.cost(value) for value in values)

    infinity = float("inf")
    state = [[infinity] * (m + 1) for _ in range(n + 1)]
    parent: list[list[tuple[int, int] | None]] = [[None] * (m + 1) for _ in range(n + 1)]
    state[0][0] = 0.0

    for i in range(n + 1):
        for j in range(m + 1):
            if state[i][j] is infinity:
                continue
            # Keep the next characters if they match (zero cost, stays in pattern).
            if i < n and j < m and tokens_x[i] == tokens_y[j] and tokens_x[i] is not WILDCARD:
                if state[i][j] < state[i + 1][j + 1]:
                    state[i + 1][j + 1] = state[i][j]
                    parent[i + 1][j + 1] = (i, j)
            # Open a field covering tokens_x[i:i+k] and tokens_y[j:j+l].
            for k in range(0, n - i + 1):
                for l in range(0, m - j + 1):
                    if k == 0 and l == 0:
                        continue
                    cost = state[i][j] + field_cost(tokens_x[i : i + k], tokens_y[j : j + l])
                    if cost < state[i + k][j + l]:
                        state[i + k][j + l] = cost
                        parent[i + k][j + l] = (i, j)

    tokens: list = []
    i, j = n, m
    while (i, j) != (0, 0):
        origin = parent[i][j]
        assert origin is not None
        pi, pj = origin
        if i - pi == 1 and j - pj == 1 and tokens_x[pi] == tokens_y[pj] and tokens_x[pi] is not WILDCARD:
            tokens.append(tokens_x[pi])
        else:
            tokens.append(WILDCARD)
        i, j = pi, pj
    tokens.reverse()
    return MergeResult(increment=int(state[n][m]), tokens=collapse_wildcards(tokens))
