"""Depth-first pattern search over the support-ordered set-enumeration tree.

The set-up is two calls: :func:`~occumine.measures.total_order` ranks
the items with the minimum support, by the supports the database counted
when it was built, and :func:`~occumine.lists.build_single_item_lists`
reads their occurrences once into their single-item lists, dropping,
under probability pruning, every item below the probability minimum
first.  The search keeps a vertical list per visited node and extends a
node by joining its list with the single-item list of each
later sibling's last item.  Support pruning is always on: a join whose
joint support, counted on the tid bitsets, is below the minimum builds
no rows, so a node (and its subtree) below the minimum is never
visited, which is sound because support is anti-monotone.  Two more
pruning strategies are switchable; they only change how much of the
tree is traversed, never which patterns come out, because every
emission re-checks the probability and occupancy thresholds.

* occupancy-bound pruning: skip a node's subtree when an upper bound on
  any qualifying descendant's utility occupancy falls below the minimum.
* probability pruning: skip a node's subtree when its summed probability
  is below the minimum, sound by the same anti-monotonicity argument.

The search is one loop inside :func:`mine` over an explicit stack of
sibling frames, so no recursion limit caps its depth.  A frame holds the
siblings left to visit, last first: the node taken from its end leaves
its join candidates behind, and a node that empties it is a leaf.  The
search counts in :class:`MiningStats` what it drops, by reason: a join
below the support minimum, a child below the probability minimum, and a
node whose subtree the occupancy bound cut.  Only :func:`upper_bound`
reads a node's remaining utility, once per call, and the search calls it
only for a node whose occupancy is below the minimum and that is not a
leaf, so under a preset without the bound no ruo is gathered.  A leaf is
never joined either, so it is built summary-only, with no columns.  An
emitted node is kept as its items and its
:class:`~occumine.model.PatternSummary`, and
:func:`~occumine.model.pattern_records`, the oracle's builder too, turns
the pairs into the sorted records once the search ends.  The
search calls ``construct``, ``upper_bound`` and the set-up functions
through this module's globals, so a wrapper set on one of those names
sees every call.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from operator import add

from .errors import DatabaseValidationError
from .lists import PatternList, build_single_item_lists, construct
from .measures import total_order
from .model import MiningStats, PatternRecord, PatternSummary, Thresholds, UncertainDatabase
from .model import pattern_records, validate_database


@dataclass(frozen=True)
class StrategySet:
    """Which pruning strategies a run may use, besides support pruning,
    which every run uses; its four values are the four presets."""

    bound_prune: bool = True
    probability_prune: bool = True


#: Every strategy on: the full algorithm.
FULL = StrategySet(True, True)
#: Support and occupancy-bound pruning only.
S12 = StrategySet(True, False)
#: Support and probability pruning only.
S13 = StrategySet(False, True)
#: Support pruning only.
S1 = StrategySet(False, False)

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
    extension's numerator.  Summed in another order than an extension's
    occupancy, the bound can land ulps below it in floats, so the search
    prunes only below ``min_bound`` (:meth:`Thresholds.cutoffs`).
    Raises ``ValueError`` if ``min_sup_count`` is below 1.
    """
    if min_sup_count < 1:
        raise ValueError(f"min_sup_count must be >= 1, got {min_sup_count}")
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

    The records equal :func:`~occumine.measures.oracle_mine`'s, floats
    included, under every ``strategies``; only the traversal cost recorded
    in the stats changes.  ``on_node``, when given, is called as
    ``on_node(plist, summary)``, with the node's list and its
    :class:`~occumine.model.PatternSummary`, once per visited node, in
    visit order, before the node is emitted or expanded; it changes
    neither the result nor the stats.  Each frame of the search holds the
    siblings left to visit, last first; a node that empties its frame is a
    leaf, which is never bounded and which a plain run builds
    summary-only, but every list the hook is given is built in full.  A
    caller that wants a node's :func:`upper_bound` computes it in the hook.

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
    min_sup, min_pro, min_uo, min_bound = thresholds.cutoffs(len(db))

    # Items below the minimum support can head no qualifying pattern, so
    # they are always dropped.  Items below the probability minimum are
    # dropped only under probability pruning; otherwise they stay in the
    # lists (and in ruo values) and the final filter handles them.
    order = total_order(db, [i for i, c in db.item_supports.items() if c >= min_sup])
    singles = build_single_item_lists(
        db, order.items, min_pro if strategies.probability_prune else None
    )
    stats.constructed_lists += len(singles)
    found: list[tuple[tuple[str, ...], PatternSummary]] = []

    # Depth first from an explicit stack, so the depth is not capped by the
    # interpreter's recursion limit.  A frame holds the siblings left to
    # visit, last first; a node's surviving children are pushed as a frame
    # of their own and searched before its next sibling.
    stack = [list(reversed(singles.values()))]
    while stack:
        frame = stack[-1]
        if not frame:
            stack.pop()
            continue
        xa_list, xa_sum = frame.pop()
        stats.visited_nodes += 1
        if on_node is not None:
            on_node(xa_list, xa_sum)

        # Roots and children were filtered on this summary's support (and,
        # under probability pruning, probability); emission re-checks.
        if xa_sum.probability >= min_pro and xa_sum.occupancy >= min_uo:
            found.append((xa_list.items, xa_sum))

        # A node whose frame is left empty is a leaf: it has no later
        # sibling to join, so no subtree to cut.  A visited node has at
        # least min_sup rows and ruo is never negative, so its bound is at
        # least its occupancy: a node whose occupancy reaches min_uo cannot
        # be pruned, and its ruo is not gathered.
        if (
            strategies.bound_prune
            and frame
            and xa_sum.occupancy < min_uo
            and upper_bound(xa_list, min_sup) < min_bound
        ):
            stats.pruned_bound += 1
            continue

        # Joined last first, as the frame holds them, so the children kept
        # form the next frame as they are.  Until one survives, each would be
        # a leaf, so it is built summary-only unless the hook is to see it.
        children: list[tuple[PatternList, PatternSummary]] = []
        summary_only = on_node is None
        stats.candidate_joins += len(frame)
        for xb_list, _ in frame:
            joined = construct(
                xa_list, singles[xb_list.items[-1]][0], min_sup, summary_only=summary_only
            )
            if joined is None:
                stats.pruned_support += 1
                continue
            stats.constructed_lists += 1
            if strategies.probability_prune and joined[1].probability < min_pro:
                stats.pruned_probability += 1
                continue
            children.append(joined)
            summary_only = False
        if children:
            stack.append(children)

    patterns = pattern_records(found)
    stats.patterns_found = len(patterns)
    stats.elapsed_ms = (time.perf_counter() - started) * 1000.0
    return MiningOutcome(patterns=patterns, stats=stats)
