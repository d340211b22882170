#include "engine/storage/recovery.h"

#include <dirent.h>
#include <unistd.h>

#include <cstring>

#include "common/crc32.h"
#include "common/durable_fs.h"
#include "common/fault_injection.h"
#include "engine/database.h"
#include "engine/sql/parser.h"
#include "engine/storage/wire_format.h"

namespace tip::engine {

namespace {

constexpr char kCheckpointMagic[] = "TIPCKPT1";
constexpr size_t kCheckpointMagicLen = 8;
constexpr char kCheckpointFile[] = "CHECKPOINT";

// Same sanity cap the snapshot loader uses: a garbage count field must
// become a clean Corruption, never an allocation attempt.
constexpr uint64_t kMaxRowsPerRecord = 1ull << 32;
constexpr uint64_t kMaxFunctions = 1ull << 16;

Result<Row> ReadRowImage(wire::Reader* reader, const Table& table,
                         const TypeRegistry& types) {
  Row row;
  row.reserve(table.columns().size());
  for (const Column& col : table.columns()) {
    TIP_ASSIGN_OR_RETURN(Datum value, DecodeRowField(reader, col.type, types));
    row.push_back(std::move(value));
  }
  return row;
}

/// RowIds of `table`'s live rows in scan order — the mapping the
/// mutate record's ordinals index into. Rebuilt per record: cheap
/// relative to replay as a whole and always consistent with the state
/// the preceding records produced.
std::vector<RowId> LiveRowIds(const Table& table) {
  std::vector<RowId> ids;
  ids.reserve(table.heap().row_count());
  HeapTable::Cursor cursor = table.heap().Scan();
  RowId id;
  const Row* row;
  while (cursor.Next(&id, &row)) ids.push_back(id);
  return ids;
}

Status ApplyInsert(Database* db, std::string_view body) {
  wire::Reader reader(body);
  TIP_ASSIGN_OR_RETURN(std::string_view table_name, reader.String());
  TIP_ASSIGN_OR_RETURN(Table * table, db->catalog().GetTable(table_name));
  TIP_ASSIGN_OR_RETURN(uint64_t n, reader.U64());
  if (n > kMaxRowsPerRecord) {
    return Status::Corruption("WAL insert row count is implausible for "
                              "table '" + table->name() + "'");
  }
  for (uint64_t i = 0; i < n; ++i) {
    TIP_ASSIGN_OR_RETURN(Row row, ReadRowImage(&reader, *table, db->types()));
    table->heap().Insert(std::move(row));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes in WAL insert record for "
                              "table '" + table->name() + "'");
  }
  return Status::OK();
}

Status ApplyMutate(Database* db, std::string_view body) {
  wire::Reader reader(body);
  TIP_ASSIGN_OR_RETURN(std::string_view table_name, reader.String());
  TIP_ASSIGN_OR_RETURN(Table * table, db->catalog().GetTable(table_name));

  TIP_ASSIGN_OR_RETURN(uint64_t n_del, reader.U64());
  if (n_del > kMaxRowsPerRecord) {
    return Status::Corruption("WAL delete count is implausible");
  }
  std::vector<uint64_t> delete_ordinals(n_del);
  for (uint64_t i = 0; i < n_del; ++i) {
    TIP_ASSIGN_OR_RETURN(delete_ordinals[i], reader.U64());
  }

  TIP_ASSIGN_OR_RETURN(uint64_t n_upd, reader.U64());
  if (n_upd > kMaxRowsPerRecord) {
    return Status::Corruption("WAL update count is implausible");
  }
  std::vector<std::pair<uint64_t, Row>> updates;
  updates.reserve(n_upd);
  for (uint64_t i = 0; i < n_upd; ++i) {
    TIP_ASSIGN_OR_RETURN(uint64_t ordinal, reader.U64());
    TIP_ASSIGN_OR_RETURN(Row row, ReadRowImage(&reader, *table, db->types()));
    updates.emplace_back(ordinal, std::move(row));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes in WAL mutate record for "
                              "table '" + table->name() + "'");
  }

  // Every ordinal addresses the *pre-statement* state, so resolve them
  // all before touching the heap (tombstoning does not move RowIds, but
  // resolving up front also makes the ordering below irrelevant to
  // correctness — it merely mirrors live execution: deletes, then
  // updates).
  const std::vector<RowId> live = LiveRowIds(*table);
  auto resolve = [&](uint64_t ordinal) -> Result<RowId> {
    if (ordinal >= live.size()) {
      return Status::Corruption(
          "WAL mutate ordinal " + std::to_string(ordinal) +
          " out of range (" + std::to_string(live.size()) +
          " live rows in table '" + table->name() + "')");
    }
    return live[ordinal];
  };
  for (uint64_t ordinal : delete_ordinals) {
    TIP_ASSIGN_OR_RETURN(RowId id, resolve(ordinal));
    TIP_RETURN_IF_ERROR(table->heap().Delete(id));
  }
  for (auto& [ordinal, row] : updates) {
    TIP_ASSIGN_OR_RETURN(RowId id, resolve(ordinal));
    TIP_RETURN_IF_ERROR(table->heap().Update(id, std::move(row)));
  }
  return Status::OK();
}

}  // namespace

// The WAL pays this image per logged row, so the prefix is a single
// byte for typical values where the old flag + u64 length pair cost
// nine — about a third of the whole record for narrow rows, and the
// fsync flushes every byte of it.
void EncodeRowImage(const Row& row, const TypeRegistry& types,
                    std::string* out) {
  for (const Datum& value : row) EncodeRowField(value, types, out);
}

void EncodeRowField(const Datum& value, const TypeRegistry& types,
                    std::string* out) {
  if (value.is_null()) {
    wire::PutVarint(0, out);
    return;
  }
  // Serialize straight into the body: this runs once per value per
  // logged statement or sent row, and the per-value temporary Serialize
  // would hand back is measurable. The one-byte prefix guess is patched
  // with a memmove in the rare case the value needs a longer one.
  const size_t prefix_pos = out->size();
  out->push_back(0);
  types.SerializeTo(value, out);
  const uint64_t len = out->size() - prefix_pos - 1;
  if (len + 1 < 0x80) {
    (*out)[prefix_pos] = static_cast<char>(len + 1);
  } else {
    std::string prefix;
    wire::PutVarint(len + 1, &prefix);
    out->replace(prefix_pos, 1, prefix);
  }
}

Result<Datum> DecodeRowField(wire::Reader* reader, TypeId type,
                             const TypeRegistry& types) {
  TIP_ASSIGN_OR_RETURN(uint64_t prefix, reader->Varint());
  if (prefix == 0) return Datum::NullOf(type);
  TIP_ASSIGN_OR_RETURN(std::string_view payload, reader->Bytes(prefix - 1));
  const TypeOps& ops = types.Get(type).ops;
  return ops.deserialize ? ops.deserialize(payload) : ops.parse(payload);
}

std::string EncodeInsertBody(const std::string& table,
                             const std::vector<Row>& rows,
                             const TypeRegistry& types) {
  std::string body;
  wire::PutString(table, &body);
  wire::PutU64(rows.size(), &body);
  for (const Row& row : rows) EncodeRowImage(row, types, &body);
  return body;
}

std::string EncodeMutateBody(
    const std::string& table, const std::vector<uint64_t>& delete_ordinals,
    const std::vector<std::pair<uint64_t, const Row*>>& updates,
    const TypeRegistry& types) {
  std::string body;
  wire::PutString(table, &body);
  wire::PutU64(delete_ordinals.size(), &body);
  for (uint64_t ordinal : delete_ordinals) wire::PutU64(ordinal, &body);
  wire::PutU64(updates.size(), &body);
  for (const auto& [ordinal, row] : updates) {
    wire::PutU64(ordinal, &body);
    EncodeRowImage(*row, types, &body);
  }
  return body;
}

std::string EncodeDdlBody(std::string_view sql) { return std::string(sql); }

Status ApplyWalRecord(Database* db, const WalRecord& record) {
  switch (record.kind) {
    case WalRecordKind::kInsert:
      TIP_RETURN_IF_ERROR(fault::MaybeFail("recovery.apply"));
      return ApplyInsert(db, record.body);
    case WalRecordKind::kMutate:
      TIP_RETURN_IF_ERROR(fault::MaybeFail("recovery.apply"));
      return ApplyMutate(db, record.body);
    case WalRecordKind::kDdl: {
      TIP_RETURN_IF_ERROR(fault::MaybeFail("recovery.apply"));
      Result<ResultSet> result = db->Execute(record.body);
      return result.status();
    }
    case WalRecordKind::kTxnBegin:
    case WalRecordKind::kTxnCommit:
    case WalRecordKind::kTxnAbort:
      // Brackets carry no state; WalkBrackets consumes them to decide
      // which records to apply. One reaching this applier means the
      // walk mis-parsed the bracket structure.
      return Status::Corruption("transaction bracket record applied as data");
  }
  return Status::Corruption("unknown WAL record kind " +
                            std::to_string(static_cast<int>(record.kind)));
}

std::string WalRecordTableName(const WalRecord& record) {
  switch (record.kind) {
    case WalRecordKind::kInsert:
    case WalRecordKind::kMutate: {
      wire::Reader reader(record.body);
      Result<std::string_view> name = reader.String();
      if (!name.ok()) return "";
      return std::string(*name);
    }
    case WalRecordKind::kDdl: {
      Result<Statement> stmt = ParseStatement(record.body);
      if (!stmt.ok()) return "";
      return stmt->table;
    }
    case WalRecordKind::kTxnBegin:
    case WalRecordKind::kTxnCommit:
    case WalRecordKind::kTxnAbort:
      return "";
  }
  return "";
}

Result<std::optional<CheckpointMeta>> ReadCheckpointMeta(
    const std::string& dir) {
  const std::string path = dir + "/" + kCheckpointFile;
  Result<std::string> bytes = fs::ReadFile(path);
  if (!bytes.ok()) {
    if (bytes.status().code() == StatusCode::kNotFound) {
      return std::optional<CheckpointMeta>();
    }
    return bytes.status();
  }
  // The metadata file is tiny and rewritten atomically, so unlike the
  // WAL tail there is no benign way for it to be damaged: anything
  // short of full validation is Corruption.
  if (bytes->size() < kCheckpointMagicLen + 4 ||
      std::memcmp(bytes->data(), kCheckpointMagic, kCheckpointMagicLen) != 0) {
    return Status::Corruption("'" + path + "' is not a TIP checkpoint");
  }
  const std::string_view framed(*bytes);
  uint32_t crc;
  std::memcpy(&crc, bytes->data() + bytes->size() - 4, 4);
  if (Crc32(framed.substr(0, framed.size() - 4)) != crc) {
    return Status::Corruption("checkpoint metadata checksum mismatch in '" +
                              path + "' (" + std::to_string(bytes->size()) +
                              " bytes)");
  }
  wire::Reader reader(framed.substr(kCheckpointMagicLen,
                                    framed.size() - kCheckpointMagicLen - 4));
  auto parse = [&]() -> Result<CheckpointMeta> {
    CheckpointMeta meta;
    TIP_ASSIGN_OR_RETURN(meta.lsn, reader.U64());
    TIP_ASSIGN_OR_RETURN(std::string_view file, reader.String());
    meta.snapshot_file = std::string(file);
    TIP_ASSIGN_OR_RETURN(uint64_t n_fn, reader.U64());
    if (n_fn > kMaxFunctions) {
      return Status::Corruption("checkpoint function count is implausible");
    }
    meta.function_ddl.reserve(n_fn);
    for (uint64_t i = 0; i < n_fn; ++i) {
      TIP_ASSIGN_OR_RETURN(std::string_view ddl, reader.String());
      meta.function_ddl.emplace_back(ddl);
    }
    if (!reader.AtEnd()) {
      return Status::Corruption("trailing bytes in checkpoint metadata");
    }
    if (meta.snapshot_file.empty() ||
        meta.snapshot_file.find('/') != std::string::npos) {
      return Status::Corruption("checkpoint names an implausible snapshot "
                                "file '" + meta.snapshot_file + "'");
    }
    return meta;
  };
  Result<CheckpointMeta> meta = parse();
  if (!meta.ok()) {
    return Annotate(meta.status(),
                    "'" + path + "' (offset " +
                        std::to_string(kCheckpointMagicLen + reader.pos()) +
                        ")");
  }
  return std::optional<CheckpointMeta>(std::move(*meta));
}

Status WriteCheckpointMeta(const std::string& dir,
                           const CheckpointMeta& meta) {
  std::string bytes(kCheckpointMagic, kCheckpointMagicLen);
  wire::PutU64(meta.lsn, &bytes);
  wire::PutString(meta.snapshot_file, &bytes);
  wire::PutU64(meta.function_ddl.size(), &bytes);
  for (const std::string& ddl : meta.function_ddl) {
    wire::PutString(ddl, &bytes);
  }
  wire::PutU32(Crc32(bytes), &bytes);
  return fs::AtomicWriteFile(dir + "/" + kCheckpointFile, bytes,
                             "checkpoint.meta");
}

void RemoveStaleSnapshots(const std::string& dir, const std::string& keep) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  std::vector<std::string> stale;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string_view name(entry->d_name);
    if (name.size() < 13) continue;  // "snapshot." + x + ".tip"
    if (name.substr(0, 9) != "snapshot.") continue;
    if (name.substr(name.size() - 4) != ".tip" &&
        name.substr(name.size() - 8) != ".tip.tmp") {
      continue;
    }
    if (name == keep) continue;
    stale.emplace_back(name);
  }
  ::closedir(d);
  for (const std::string& name : stale) {
    ::unlink((dir + "/" + name).c_str());
  }
}

}  // namespace tip::engine
