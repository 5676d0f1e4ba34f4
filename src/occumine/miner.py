"""Depth-first pattern search over the support-ordered set-enumeration tree.

The set-up takes item supports from the database, which counted them
when it was built, then reads the occurrences of the items with the
minimum support once, into the columns every single-item list is filled
from.  The search keeps a vertical list per visited node and extends a
node by joining its list with the single-item list of each
later sibling's last item.  Support pruning is always on: a node (and its
subtree) whose support count is below the minimum is never visited,
which is sound because support is anti-monotone.  Three more pruning
strategies are switchable; they only change how much of the tree is
traversed, never which patterns come out, because every emission
re-checks the probability and occupancy thresholds.

* occupancy-bound pruning: skip a node's subtree when an upper bound on
  any qualifying descendant's utility occupancy falls below the minimum.
* probability pruning: skip a node's subtree when its summed probability
  is below the minimum, sound by the same anti-monotonicity argument.
* join abort: skip a list join whose joint support, counted on the tid
  bitsets before any row is built, is below the minimum.

The search is one loop inside :func:`mine` over an explicit stack of
sibling frames, so no recursion limit caps its depth.  It counts in
:class:`MiningStats` what it drops, by reason: a child below the support
or the probability minimum, a node cut by the occupancy bound, and an
aborted join.  Only :func:`upper_bound` reads a node's remaining
utility, once per call, and the search calls it only for a node whose
occupancy is below the minimum, so under a preset without the bound no
ruo is gathered.  The search calls ``construct``, ``upper_bound`` and the
set-up functions through this module's globals, so a wrapper set on one
of those names sees every call.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from operator import add

from .errors import DatabaseValidationError
from .lists import PatternList, PatternSummary, build_single_item_lists, construct, item_columns
from .measures import total_order
from .model import MiningStats, PatternRecord, Thresholds, UncertainDatabase, validate_database


@dataclass(frozen=True)
class StrategySet:
    """Which pruning strategies a run may use, besides support pruning,
    which every run uses."""

    bound_prune: bool = True
    probability_prune: bool = True
    join_abort: bool = True


#: Every strategy on: the full algorithm.
FULL = StrategySet(True, True, True)
#: Support and occupancy-bound pruning only.
S12 = StrategySet(True, False, False)
#: Support and probability pruning only.
S13 = StrategySet(False, True, False)
#: Support pruning only.
S1 = StrategySet(False, False, False)

PRESETS: dict[str, StrategySet] = {"full": FULL, "s12": S12, "s13": S13, "s1": S1}


@dataclass(frozen=True)
class MiningOutcome:
    """The discovered patterns (sorted by id-sorted item tuple) plus counters."""

    patterns: tuple[PatternRecord, ...]
    stats: MiningStats


def upper_bound(plist: PatternList, min_sup_count: int) -> float:
    """Bound the utility occupancy of any qualifying extension of a node.

    Any extension with at least ``min_sup_count`` supporting transactions
    averages per-transaction shares that are each at most this node's
    uo + ruo there, so the mean of the ``min_sup_count`` largest uo + ruo
    values dominates it.  Lists shorter than the minimum still divide by
    ``min_sup_count``: the missing transactions contribute nothing to any
    extension's numerator.
    """
    top = sorted(map(add, plist.uo, plist.ruo), reverse=True)[:min_sup_count]
    return sum(top) / min_sup_count


def mine(
    db: UncertainDatabase,
    thresholds: Thresholds,
    strategies: StrategySet = FULL,
    *,
    on_node: Callable[[PatternList, PatternSummary], object] | None = None,
) -> MiningOutcome:
    """Mine every pattern meeting the support, occupancy, and probability
    thresholds of ``thresholds``.

    The result is independent of ``strategies``; only the traversal cost
    recorded in the stats changes.  ``on_node``, when given, is called as
    ``on_node(plist, summary)`` once per visited node, in visit order,
    before the node is emitted or expanded; it changes neither the result
    nor the stats.  A caller that wants a node's :func:`upper_bound`
    computes it in the hook.

    Raises :class:`DatabaseValidationError` if ``db`` is invalid.  The
    check runs only while ``db`` has no verdict recorded, and its result
    is recorded: a parsed database is never checked here, and a
    hand-built one is checked once.
    """
    violations = db.verdict
    if violations is None:
        violations = db.record_verdict(validate_database(db))
    if violations:
        raise DatabaseValidationError(violations)

    stats = MiningStats()
    started = time.perf_counter()
    min_sup, min_pro, beta = thresholds.cutoffs(len(db))

    # Items below the minimum support can head no qualifying pattern, so
    # they are always dropped.  Items below the probability minimum are
    # dropped only under probability pruning; otherwise they stay in the
    # order (and in ruo values) and the final filter handles them.  An
    # item's probability is summed once, with its columns, and its list's
    # summary holds that sum.
    columns = item_columns(db, [i for i, c in db.item_supports.items() if c >= min_sup])
    if strategies.probability_prune:
        columns = {item: column for item, column in columns.items() if column[3] >= min_pro}
    order = total_order(db, columns)
    singles = build_single_item_lists(columns, order)
    stats.constructed_lists += len(singles)
    found: list[PatternRecord] = []

    # Depth first from an explicit stack, so the depth is not capped by the
    # interpreter's recursion limit.  A frame is [siblings, next index];
    # a node's surviving children are pushed as a frame of their own and
    # searched before its next sibling.
    stack: list[list] = [[[singles[item] for item in order.items], 0]]
    while stack:
        frame = stack[-1]
        extensions, index = frame
        if index == len(extensions):
            stack.pop()
            continue
        frame[1] = index + 1
        xa_list, xa_sum = extensions[index]
        stats.visited_nodes += 1
        if on_node is not None:
            on_node(xa_list, xa_sum)

        # Roots and children were filtered on this summary's support (and,
        # under probability pruning, probability); emission re-checks.
        if xa_sum.probability >= min_pro and xa_sum.occupancy >= beta:
            found.append(
                PatternRecord(
                    items=xa_list.items,
                    support=xa_sum.support,
                    probability=xa_sum.probability,
                    utility_occupancy=xa_sum.occupancy,
                )
            )

        # A visited node has at least min_sup rows and ruo is never
        # negative, so its bound is at least its occupancy: a node whose
        # occupancy reaches beta cannot be pruned, and its ruo is not
        # gathered.
        if (
            strategies.bound_prune
            and xa_sum.occupancy < beta
            and upper_bound(xa_list, min_sup) < beta
        ):
            stats.pruned_bound += 1
            continue

        children: list[tuple[PatternList, PatternSummary]] = []
        for xb_list, _ in extensions[index + 1 :]:
            stats.candidate_joins += 1
            joined = construct(
                xa_list,
                singles[xb_list.items[-1]][0],
                min_sup,
                join_abort=strategies.join_abort,
            )
            if joined is None:
                stats.joins_aborted += 1
                continue
            child_list, child_sum = joined
            if not child_list.tids:
                stats.pruned_support += 1
                continue
            stats.constructed_lists += 1
            if child_sum.support < min_sup:
                stats.pruned_support += 1
                continue
            if strategies.probability_prune and child_sum.probability < min_pro:
                stats.pruned_probability += 1
                continue
            children.append(joined)
        if children:
            stack.append([children, 0])

    patterns = tuple(sorted(found, key=PatternRecord.sort_key))
    stats.patterns_found = len(patterns)
    stats.elapsed_seconds = time.perf_counter() - started
    return MiningOutcome(patterns=patterns, stats=stats)
