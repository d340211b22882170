#ifndef TIP_ENGINE_INDEX_INTERVAL_INDEX_H_
#define TIP_ENGINE_INDEX_INTERVAL_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "engine/storage/heap_table.h"

namespace tip::engine {

/// The key an interval access method's support function reads from one
/// value, once and without a NOW. Under transaction time NOW the value
/// covers at most
///
///   [min(start, NOW + now_start), max(end, NOW + now_end)]
///
/// where an absent absolute part is INT64_MAX (start) or INT64_MIN (end)
/// and an absent NOW part drops out; a start after the end means the
/// value covers no time under that NOW. The bound may be loose (an
/// Element's spans the gaps between its periods), so callers re-check
/// candidates exactly. The value grounds without error only for NOW in
/// [now_min, now_max]; outside that range the key says nothing.
struct IntervalKey {
  int64_t start = INT64_MAX;
  int64_t end = INT64_MIN;
  std::optional<int64_t> now_start;  // offsets from NOW, in seconds
  std::optional<int64_t> now_end;
  int64_t now_min = INT64_MIN;
  int64_t now_max = INT64_MAX;

  /// The key of a value covering [start, end] under every NOW.
  static IntervalKey Absolute(int64_t start, int64_t end) {
    IntervalKey key;
    key.start = start;
    key.end = end;
    return key;
  }

  bool Admits(int64_t now) const { return now_min <= now && now <= now_max; }

  /// The interval covered at `now`; StartAt > EndAt when none.
  /// Requires Admits(now), which keeps NOW + offset in range.
  int64_t StartAt(int64_t now) const {
    return now_start ? std::min(start, now + *now_start) : start;
  }
  int64_t EndAt(int64_t now) const {
    return now_end ? std::max(end, now + *now_end) : end;
  }
  bool OverlapsAt(int64_t now, int64_t qs, int64_t qe) const {
    const int64_t s = StartAt(now);
    const int64_t e = EndAt(now);
    return s <= e && s <= qe && qs <= e;
  }

  friend bool operator==(const IntervalKey&, const IntervalKey&) = default;
};

/// One indexed entry: a row and its key.
struct IntervalEntry {
  IntervalKey key;
  RowId row;
};

/// A static interval tree over closed int64 intervals, answering
/// "which entries overlap [qs, qe]?" in O(log n + k). This plays the
/// role of the period-timestamp index DataBlade of Bliujute et al.
/// (ICDE'99), which the paper cites as related work: TIP's Element
/// columns are indexed by their bounding period.
///
/// Each entry is filed under its key's bounds over every NOW, unbounded
/// on a side with a NOW part, and a hit filed unbounded is decided by
/// its key at the probe's NOW. A key that covers no time under any NOW
/// (an empty Element) is filed at INT64_MAX, past every chronon.
///
/// The tree is the classic centered structure: each node holds the
/// intervals containing its center, sorted both by start and by end,
/// with strictly-left / strictly-right subtrees. The entries are stored
/// once, grouped by node; a node's end order indexes its group.
class IntervalIndex {
 public:
  /// Builds the tree from scratch, in place. O(n log n).
  static IntervalIndex Build(std::vector<IntervalEntry> entries);

  /// Appends the rows of the entries whose keys overlap [qs, qe] at
  /// transaction time `now` (order unspecified). Requires qs <= qe, and
  /// that every key with a NOW part admits `now`.
  void FindOverlapping(int64_t qs, int64_t qe, int64_t now,
                       std::vector<RowId>* out) const {
    if (!nodes_.empty()) Query(0, qs, qe, now, out);
  }

  /// Every entry, whatever the NOW (order unspecified).
  const std::vector<IntervalEntry>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }

 private:
  /// What probes read of an entry, kept apart from the key they seldom
  /// need: the interval it is filed under, and its row.
  struct Filed {
    int64_t start;
    int64_t end;
    RowId row;
  };
  /// The entries containing `center`: [begin, end) of entries_ and
  /// filed_, ascending by start, and by_end_[begin, end), their
  /// positions descending by end.
  struct Node {
    int64_t center;
    uint32_t begin;
    uint32_t end;
    int32_t left;   // node of the intervals entirely < center; -1: none
    int32_t right;  // node of the intervals entirely > center; -1: none
  };

  static Filed FiledUnder(const IntervalEntry& e);
  /// Files entries_[begin, end) under a new subtree; returns its node.
  int32_t BuildNode(size_t begin, size_t end);
  void Query(int32_t n, int64_t qs, int64_t qe, int64_t now,
             std::vector<RowId>* out) const;

  std::vector<IntervalEntry> entries_;  // grouped by node
  std::vector<Filed> filed_;            // parallel to entries_
  std::vector<uint32_t> by_end_;
  std::vector<Node> nodes_;  // nodes_[0] is the root
};

}  // namespace tip::engine

#endif  // TIP_ENGINE_INDEX_INTERVAL_INDEX_H_
