#include "engine/index/interval_index.h"

#include <algorithm>
#include <numeric>

namespace tip::engine {

IntervalIndex IntervalIndex::Build(std::vector<IntervalEntry> entries) {
  IntervalIndex index;
  index.entries_ = std::move(entries);
  index.by_end_.resize(index.entries_.size());
  index.BuildNode(0, index.entries_.size());
  index.filed_.reserve(index.entries_.size());
  for (const IntervalEntry& e : index.entries_) {
    index.filed_.push_back(FiledUnder(e));
  }
  return index;
}

IntervalIndex::Filed IntervalIndex::FiledUnder(const IntervalEntry& e) {
  const int64_t lo = e.key.now_start ? INT64_MIN : e.key.start;
  const int64_t hi = e.key.now_end ? INT64_MAX : e.key.end;
  if (lo > hi) return {INT64_MAX, INT64_MAX, e.row};
  return {lo, hi, e.row};
}

int32_t IntervalIndex::BuildNode(size_t begin, size_t end) {
  if (begin == end) return -1;
  const auto first = entries_.begin() + static_cast<ptrdiff_t>(begin);
  const auto last = entries_.begin() + static_cast<ptrdiff_t>(end);
  auto filed_start = [](const IntervalEntry& e) { return FiledUnder(e).start; };
  auto filed_end = [](const IntervalEntry& e) { return FiledUnder(e).end; };

  // Use the median interval start as the center; this keeps the tree
  // balanced for the common case of roughly uniform starts.
  int64_t center;
  {
    std::vector<int64_t> starts;
    starts.reserve(end - begin);
    for (auto it = first; it != last; ++it) starts.push_back(filed_start(*it));
    auto mid = starts.begin() + static_cast<ptrdiff_t>(starts.size() / 2);
    std::nth_element(starts.begin(), mid, starts.end());
    center = *mid;
  }

  // Group the range in place: intervals entirely below the center, those
  // containing it (never none: the median start's interval is one),
  // those entirely above.
  const auto here = std::partition(first, last, [&](const IntervalEntry& e) {
    return filed_end(e) < center;
  });
  const auto above = std::partition(here, last, [&](const IntervalEntry& e) {
    return filed_start(e) <= center;
  });
  std::sort(here, above, [&](const IntervalEntry& a, const IntervalEntry& b) {
    return filed_start(a) < filed_start(b);
  });
  const auto here_begin = static_cast<uint32_t>(here - entries_.begin());
  const auto here_end = static_cast<uint32_t>(above - entries_.begin());
  const auto by_end = by_end_.begin();
  std::iota(by_end + here_begin, by_end + here_end, here_begin);
  std::sort(by_end + here_begin, by_end + here_end,
            [&](uint32_t a, uint32_t b) {
              return filed_end(entries_[a]) > filed_end(entries_[b]);
            });

  const auto node = static_cast<int32_t>(nodes_.size());
  nodes_.push_back(Node{center, here_begin, here_end, -1, -1});
  const int32_t left = BuildNode(begin, here_begin);
  const int32_t right = BuildNode(here_end, end);
  nodes_[static_cast<size_t>(node)].left = left;
  nodes_[static_cast<size_t>(node)].right = right;
  return node;
}

void IntervalIndex::Query(int32_t n, int64_t qs, int64_t qe, int64_t now,
                          std::vector<RowId>* out) const {
  // A hit filed under a finite interval is exact; one filed unbounded
  // has a NOW part, or covers no time, and its key decides.
  auto emit = [&](uint32_t i) {
    const Filed& f = filed_[i];
    if ((f.start != INT64_MIN && f.end != INT64_MAX) ||
        entries_[i].key.OverlapsAt(now, qs, qe)) {
      out->push_back(f.row);
    }
  };
  while (n >= 0) {
    const Node& node = nodes_[static_cast<size_t>(n)];
    if (qe < node.center) {
      // Only intervals starting at or before qe can overlap the query.
      for (uint32_t i = node.begin; i < node.end; ++i) {
        if (filed_[i].start > qe) break;
        emit(i);
      }
      n = node.left;
    } else if (qs > node.center) {
      // Only intervals ending at or after qs can overlap the query.
      for (uint32_t k = node.begin; k < node.end; ++k) {
        if (filed_[by_end_[k]].end < qs) break;
        emit(by_end_[k]);
      }
      n = node.right;
    } else {
      // The query straddles the center: every interval here overlaps.
      for (uint32_t i = node.begin; i < node.end; ++i) emit(i);
      Query(node.left, qs, qe, now, out);
      n = node.right;
    }
  }
}

}  // namespace tip::engine
