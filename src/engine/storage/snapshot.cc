#include "engine/storage/snapshot.h"

#include <cctype>
#include <cstring>
#include <vector>

#include "common/crc32.h"
#include "common/durable_fs.h"
#include "common/fault_injection.h"
#include "engine/database.h"
#include "engine/storage/wire_format.h"

namespace tip::engine {

namespace {

using wire::PutString;
using wire::PutU32;
using wire::PutU64;
using wire::Reader;

constexpr char kMagicV2[] = "TIPSNAP2";
constexpr size_t kMagicLen = 8;
constexpr char kFooterMagic[] = "TIPFOOT1";

// Structural sanity caps. A legitimate snapshot never gets near these;
// a garbage length field almost always does, so they turn attempted
// huge allocations into clean Corruption errors.
constexpr uint64_t kMaxTables = 1u << 20;
constexpr uint64_t kMaxColumns = 1u << 16;
constexpr uint64_t kMaxIndexes = 1u << 16;

/// Serializes one table into a section body.
Status AppendTableBody(const Database& db, const std::string& name,
                       std::string* out) {
  const TypeRegistry& types = db.types();
  TIP_ASSIGN_OR_RETURN(const Table* table, db.catalog().GetTable(name));
  PutString(table->name(), out);
  PutU64(table->columns().size(), out);
  for (const Column& col : table->columns()) {
    PutString(col.name, out);
    PutString(types.Get(col.type).name, out);
  }
  PutU64(table->interval_indexes().size(), out);
  for (const IntervalIndexDef& index : table->interval_indexes()) {
    PutString(index.name, out);
    PutU64(index.column, out);
  }
  PutU64(table->heap().row_count(), out);
  HeapTable::Cursor cursor = table->heap().Scan();
  RowId id;
  const Row* row;
  while (cursor.Next(&id, &row)) {
    for (const Datum& value : *row) {
      if (value.is_null()) {
        out->push_back(0);
        continue;
      }
      out->push_back(1);
      PutString(types.Serialize(value), out);
    }
  }
  return Status::OK();
}

/// Parses one table section body and creates the table. The body must
/// be consumed exactly. On success appends the created table's name to
/// `created` so a later failure can undo the whole load.
Status ApplyTableBody(Database* db, std::string_view body,
                      std::vector<std::string>* created) {
  Reader reader(body);
  const TypeRegistry& types = db->types();

  TIP_ASSIGN_OR_RETURN(std::string_view name, reader.String());
  TIP_ASSIGN_OR_RETURN(uint64_t column_count, reader.U64());
  // Each column needs at least two length prefixes; a count the
  // remaining bytes cannot possibly hold is garbage, and must be caught
  // BEFORE reserve() turns it into a giant allocation.
  if (column_count > kMaxColumns ||
      column_count * 16 > reader.remaining()) {
    return Status::Corruption("snapshot column count out of bounds");
  }
  std::vector<Column> columns;
  columns.reserve(column_count);
  for (uint64_t c = 0; c < column_count; ++c) {
    TIP_ASSIGN_OR_RETURN(std::string_view col_name, reader.String());
    TIP_ASSIGN_OR_RETURN(std::string_view type_name, reader.String());
    Result<TypeId> type = types.FindByName(type_name);
    if (!type.ok()) {
      return Status::NotFound(
          "snapshot uses type '" + std::string(type_name) +
          "', which is not installed (install the DataBlade first?)");
    }
    columns.push_back({std::string(col_name), *type});
  }
  if (columns.empty()) {
    return Status::Corruption("snapshot table has no columns");
  }
  TIP_ASSIGN_OR_RETURN(Table * table,
                       db->catalog().CreateTable(name, std::move(columns)));
  created->push_back(table->name());

  TIP_ASSIGN_OR_RETURN(uint64_t index_count, reader.U64());
  if (index_count > kMaxIndexes || index_count * 16 > reader.remaining()) {
    return Status::Corruption("snapshot index count out of bounds");
  }
  for (uint64_t i = 0; i < index_count; ++i) {
    TIP_ASSIGN_OR_RETURN(std::string_view index_name, reader.String());
    TIP_ASSIGN_OR_RETURN(uint64_t column, reader.U64());
    if (column >= table->columns().size()) {
      return Status::Corruption("snapshot index column out of range");
    }
    // Recreate through the same path CREATE INDEX uses so the access
    // method's key function is re-attached.
    const std::string sql = "CREATE INDEX " + std::string(index_name) +
                            " ON " + table->name() + " (" +
                            table->columns()[column].name +
                            ") USING interval";
    TIP_ASSIGN_OR_RETURN(ResultSet created_index, db->Execute(sql));
    (void)created_index;
  }

  TIP_ASSIGN_OR_RETURN(uint64_t row_count, reader.U64());
  // Each row carries at least one flag byte per column.
  const uint64_t min_bytes_per_row = table->columns().size();
  if (min_bytes_per_row != 0 &&
      row_count > reader.remaining() / min_bytes_per_row) {
    return Status::Corruption("snapshot row count out of bounds");
  }
  for (uint64_t r = 0; r < row_count; ++r) {
    Row row;
    row.reserve(table->columns().size());
    for (const Column& col : table->columns()) {
      TIP_ASSIGN_OR_RETURN(std::string_view flag, reader.Bytes(1));
      if (flag[0] == 0) {
        row.push_back(Datum::NullOf(col.type));
        continue;
      }
      if (flag[0] != 1) {
        return Status::Corruption("snapshot null flag is neither 0 nor 1");
      }
      TIP_ASSIGN_OR_RETURN(std::string_view payload, reader.String());
      const TypeOps& ops = types.Get(col.type).ops;
      Result<Datum> value = ops.deserialize ? ops.deserialize(payload)
                                            : ops.parse(payload);
      if (!value.ok()) return value.status();
      row.push_back(std::move(*value));
    }
    table->heap().Insert(std::move(row));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes in snapshot table section");
  }
  return Status::OK();
}

/// Undo for a failed load: drops the tables the load created, restoring
/// the all-or-nothing contract.
void DropCreated(Database* db, const std::vector<std::string>& created) {
  for (const std::string& name : created) {
    (void)db->catalog().DropTable(name);
  }
}

/// Best-effort table name from a (possibly corrupt) section body: the
/// body starts with a length-prefixed name, and a single flipped byte
/// elsewhere in the section leaves that prefix intact, so salvage can
/// usually still say *which* table it lost. Empty when the prefix
/// itself is implausible.
std::string GuessSectionName(std::string_view body) {
  Reader reader(body);
  Result<std::string_view> name = reader.String();
  if (!name.ok() || name->empty() || name->size() > 256) return "";
  for (const char c : *name) {
    if (!std::isprint(static_cast<unsigned char>(c))) return "";
  }
  return std::string(*name);
}

/// The footer check: length-prefixed, so a reader can confirm the file
/// really ends where the writer intended. The first problem, or "".
std::string CheckFooter(Reader* reader, uint64_t table_count,
                        uint64_t payload_bytes) {
  Result<uint64_t> footer_len = reader->U64();
  Result<std::string_view> footer =
      footer_len.ok() ? reader->Bytes(*footer_len) : footer_len.status();
  if (!footer.ok()) return "footer missing or truncated";
  Reader f(*footer);
  Result<std::string_view> magic = f.Bytes(kMagicLen);
  if (!magic.ok() ||
      std::memcmp(magic->data(), kFooterMagic, kMagicLen) != 0) {
    return "footer magic mismatch";
  }
  Result<uint64_t> tables = f.U64();
  Result<uint64_t> payload = tables.ok() ? f.U64() : tables.status();
  Result<uint32_t> crc = payload.ok() ? f.U32() : payload.status();
  if (!crc.ok()) return "footer truncated";
  if (Crc32(footer->substr(0, footer->size() - 4)) != *crc) {
    return "footer checksum mismatch";
  }
  if (*tables != table_count || *payload != payload_bytes) {
    return "footer disagrees with contents (footer: " +
           std::to_string(*tables) + " tables, " + std::to_string(*payload) +
           " payload bytes; file: " + std::to_string(table_count) +
           " tables, " + std::to_string(payload_bytes) + " payload bytes)";
  }
  if (!f.AtEnd() || !reader->AtEnd()) return "trailing bytes after footer";
  return "";
}

}  // namespace

std::string SnapshotDamage::what() const {
  if (section == kNoSection) return "snapshot " + cause;
  return "snapshot section " + std::to_string(section) +
         (table.empty() ? "" : " ('" + table + "')") + " " + cause;
}

Result<SnapshotScan> ScanSnapshot(std::string_view bytes) {
  if (bytes.size() < kMagicLen ||
      std::memcmp(bytes.data(), kMagicV2, kMagicLen) != 0) {
    return Status::Corruption("not a TIP snapshot");
  }
  SnapshotScan scan;
  Reader reader(bytes.substr(kMagicLen));
  Result<uint64_t> table_count = reader.U64();
  if (!table_count.ok() || *table_count > kMaxTables) {
    return Status::Corruption("snapshot table count missing or implausible "
                              "at byte offset " + std::to_string(kMagicLen));
  }
  scan.table_count = *table_count;
  for (uint64_t t = 0; t < scan.table_count; ++t) {
    const uint64_t section_at = kMagicLen + reader.pos();
    Result<uint64_t> len = reader.U64();
    Result<uint32_t> crc = len.ok() ? reader.U32() : len.status();
    const uint64_t body_at = kMagicLen + reader.pos();
    Result<std::string_view> body =
        crc.ok() ? reader.Bytes(*len) : crc.status();
    if (!body.ok()) {
      // No later boundary can be trusted: the rest is lost.
      scan.damage.push_back({static_cast<size_t>(t), "", section_at,
                             "truncated, remaining sections lost"});
      return scan;
    }
    if (Crc32(*body) != *crc) {
      scan.damage.push_back(
          {static_cast<size_t>(t), GuessSectionName(*body), body_at,
           "checksum mismatch (" + std::to_string(body->size()) +
               " bytes)"});
      continue;
    }
    scan.sections.push_back({*body, static_cast<size_t>(t), body_at});
  }
  const uint64_t payload_bytes = kMagicLen + reader.pos();
  std::string footer = CheckFooter(&reader, scan.table_count, payload_bytes);
  if (!footer.empty()) {
    scan.damage.push_back(
        {SnapshotDamage::kNoSection, "", payload_bytes, std::move(footer)});
  }
  return scan;
}

Result<std::string> SaveSnapshot(const Database& db) {
  std::string out(kMagicV2, kMagicLen);
  const std::vector<std::string> names = db.catalog().TableNames();
  PutU64(names.size(), &out);
  for (const std::string& name : names) {
    std::string body;
    TIP_RETURN_IF_ERROR(AppendTableBody(db, name, &body));
    PutU64(body.size(), &out);
    PutU32(Crc32(body), &out);
    out.append(body);
  }
  std::string footer(kFooterMagic, kMagicLen);
  PutU64(names.size(), &footer);
  PutU64(out.size(), &footer);
  PutU32(Crc32(footer), &footer);
  PutU64(footer.size(), &out);
  out.append(footer);
  return out;
}

Status SaveSnapshotToFile(const Database& db, std::string_view path) {
  TIP_ASSIGN_OR_RETURN(std::string bytes, SaveSnapshot(db));

  // Crash safety: write + fsync a temp file, atomically rename it over
  // the destination, then fsync the parent directory (the rename alone
  // is not durable on ext4/XFS). A crash at any point leaves either the
  // old snapshot or the complete new one — never a torn file — and the
  // fault points let tests kill the save at each step.
  return fs::AtomicWriteFile(std::string(path), bytes, "snapshot");
}

Status LoadSnapshot(Database* db, std::string_view bytes) {
  // Phase 1: verify all framing and checksums before touching the
  // catalog, so most corrupt files fail with the database untouched.
  TIP_ASSIGN_OR_RETURN(SnapshotScan scan, ScanSnapshot(bytes));
  for (size_t i = 0; i < scan.sections.size() && scan.damage.empty(); ++i) {
    const SnapshotScan::Section& section = scan.sections[i];
    if (!fault::MaybeFail("snapshot.section").ok()) {
      scan.damage.push_back({section.index, GuessSectionName(section.body),
                             section.offset, "injected section fault"});
    }
  }
  if (!scan.damage.empty()) {
    const SnapshotDamage& first = scan.damage.front();
    return Status::Corruption(first.what() + " at byte offset " +
                              std::to_string(first.offset));
  }

  // Phase 2: apply. Section contents can still fail (unknown type,
  // name collision), in which case everything created so far is
  // dropped.
  std::vector<std::string> created;
  for (const SnapshotScan::Section& section : scan.sections) {
    Status s = ApplyTableBody(db, section.body, &created);
    if (!s.ok()) {
      DropCreated(db, created);
      return Annotate(s, "snapshot section " +
                             std::to_string(section.index) +
                             " (byte offset " +
                             std::to_string(section.offset) + ")");
    }
  }
  return Status::OK();
}

Status LoadSnapshotFromFile(Database* db, std::string_view path) {
  Result<std::string> bytes = fs::ReadFile(std::string(path));
  Status s = bytes.ok() ? LoadSnapshot(db, *bytes) : bytes.status();
  return s.ok() ? s : Annotate(s, "snapshot '" + std::string(path) + "'");
}

Status SalvageSnapshot(Database* db, std::string_view bytes,
                       SalvageReport* report) {
  SalvageReport local;
  if (report == nullptr) report = &local;
  *report = SalvageReport{};
  TIP_ASSIGN_OR_RETURN(SnapshotScan scan, ScanSnapshot(bytes));
  report->damage = std::move(scan.damage);
  for (const SnapshotScan::Section& section : scan.sections) {
    // Per-table isolation: a section that fails to apply is dropped
    // (with its half-created table) without giving up on the rest.
    Status s = fault::MaybeFail("snapshot.section").ok()
                   ? Status::OK()
                   : Status::Corruption("injected section fault");
    std::vector<std::string> created;
    if (s.ok()) s = ApplyTableBody(db, section.body, &created);
    if (!s.ok()) {
      DropCreated(db, created);
      report->damage.push_back({section.index, GuessSectionName(section.body),
                                section.offset, std::string(s.message())});
      continue;
    }
    report->tables_recovered += 1;
  }
  report->tables_skipped = scan.table_count - report->tables_recovered;
  for (const SnapshotDamage& damage : report->damage) {
    report->detail += damage.what() + "\n";
  }
  return Status::OK();
}

}  // namespace tip::engine
