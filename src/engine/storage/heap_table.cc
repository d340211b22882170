#include "engine/storage/heap_table.h"

namespace tip::engine {

namespace {

// How many slots ahead of its read a cursor asks the CPU to start
// loading a row's values: each row's values are their own allocation,
// so a scan that reads them in order otherwise waits on a cache miss
// per row.
constexpr uint32_t kPrefetchRows = 8;

// Asks the CPU to load the cache lines that hold `row`'s values.
void PrefetchValues(const Row& row) {
  const char* begin = reinterpret_cast<const char*>(row.data());
  const char* end = begin + row.size() * sizeof(Datum);
  for (const char* line = begin; line < end; line += 64) {
    __builtin_prefetch(line);
  }
}

}  // namespace

RowId HeapTable::Insert(Row row) {
  if (pages_.empty() || pages_.back()->rows.size() >= kRowsPerPage) {
    pages_.push_back(std::make_unique<Page>());
    pages_.back()->rows.reserve(kRowsPerPage);
  }
  Page& page = *pages_.back();
  const uint32_t page_no = static_cast<uint32_t>(pages_.size() - 1);
  const uint32_t slot = static_cast<uint32_t>(page.rows.size());
  page.rows.push_back(std::move(row));
  page.live.push_back(true);
  AddRowHash(page.rows.back());
  ++live_rows_;
  const RowId id = MakeRowId(page_no, slot);
  RecordWrite(id);
  return id;
}

Status HeapTable::Delete(RowId id) {
  const uint32_t page_no = RowIdPage(id);
  const uint32_t slot = RowIdSlot(id);
  if (page_no >= pages_.size() || slot >= pages_[page_no]->rows.size() ||
      !pages_[page_no]->live[slot]) {
    return Status::NotFound("row id not found");
  }
  SubRowHash(pages_[page_no]->rows[slot]);
  pages_[page_no]->live[slot] = false;
  pages_[page_no]->rows[slot].clear();  // release value storage eagerly
  --live_rows_;
  RecordWrite(id);
  return Status::OK();
}

Status HeapTable::Update(RowId id, Row row) {
  const uint32_t page_no = RowIdPage(id);
  const uint32_t slot = RowIdSlot(id);
  if (page_no >= pages_.size() || slot >= pages_[page_no]->rows.size() ||
      !pages_[page_no]->live[slot]) {
    return Status::NotFound("row id not found");
  }
  SubRowHash(pages_[page_no]->rows[slot]);
  pages_[page_no]->rows[slot] = std::move(row);
  AddRowHash(pages_[page_no]->rows[slot]);
  RecordWrite(id);
  return Status::OK();
}

std::vector<Row> HeapTable::SnapshotLiveRows() const {
  std::vector<Row> rows;
  rows.reserve(live_rows_);
  Cursor cursor = Scan();
  RowId id;
  const Row* row;
  while (cursor.Next(&id, &row)) rows.push_back(*row);
  return rows;
}

void HeapTable::ResetTo(std::vector<Row> rows) {
  pages_.clear();
  live_rows_ = 0;
  content_checksum_ = 0;
  ++version_;  // Insert bumps it too, but rows may be empty
  for (Row& row : rows) Insert(std::move(row));
  log_start_ = version_;  // row ids were reassigned: nothing can catch up
}

void HeapTable::RecordWrite(RowId id) {
  ++version_;
  if (change_log_.empty()) change_log_.resize(kChangeLogCapacity);
  change_log_[version_ % kChangeLogCapacity] = id;
}

bool HeapTable::ChangedSince(uint64_t since,
                             std::vector<RowId>* out) const {
  const uint64_t oldest =
      std::max(log_start_, version_ - std::min<uint64_t>(
                                          version_, kChangeLogCapacity));
  if (since < oldest || since > version_) return false;
  for (uint64_t v = since + 1; v <= version_; ++v) {
    out->push_back(change_log_[v % kChangeLogCapacity]);
  }
  return true;
}

void HeapTable::set_row_hasher(RowHasher hasher) {
  row_hasher_ = std::move(hasher);
  content_checksum_ = 0;
  Cursor cursor = Scan();
  RowId id;
  const Row* row;
  while (cursor.Next(&id, &row)) AddRowHash(*row);
}

void HeapTable::AddRowHash(const Row& row) {
  if (row_hasher_) content_checksum_ += row_hasher_(row);
}

void HeapTable::SubRowHash(const Row& row) {
  if (row_hasher_) content_checksum_ -= row_hasher_(row);
}

const Row* HeapTable::Get(RowId id) const {
  const uint32_t page_no = RowIdPage(id);
  const uint32_t slot = RowIdSlot(id);
  if (page_no >= pages_.size() || slot >= pages_[page_no]->rows.size() ||
      !pages_[page_no]->live[slot]) {
    return nullptr;
  }
  return &pages_[page_no]->rows[slot];
}

bool HeapTable::Cursor::Next(RowId* id, const Row** row) {
  while (page_ < page_end_ && page_ < table_->pages_.size()) {
    const Page& page = *table_->pages_[page_];
    while (slot_ < page.rows.size()) {
      const uint32_t slot = slot_++;
      if (slot + kPrefetchRows < page.rows.size()) {
        PrefetchValues(page.rows[slot + kPrefetchRows]);
      }
      if (page.live[slot]) {
        *id = MakeRowId(page_, slot);
        *row = &page.rows[slot];
        return true;
      }
    }
    ++page_;
    slot_ = 0;
  }
  return false;
}

}  // namespace tip::engine
