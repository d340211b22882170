#include "engine/database.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/durable_fs.h"
#include "common/fault_injection.h"
#include "common/string_util.h"
#include "engine/exec/exec_node.h"
#include "engine/exec/planner.h"
#include "engine/exec/row_utils.h"
#include "engine/sql/ast.h"
#include "engine/sql/lexer.h"
#include "engine/sql/parser.h"
#include "engine/storage/integrity.h"
#include "engine/storage/recovery.h"
#include "engine/storage/snapshot.h"

namespace tip::engine {

namespace {

// Renders the value of a SET statement as a plain word: a bare
// identifier, a string literal, or an integer.
Result<std::string> SetValueWord(const Expr& value) {
  switch (value.kind) {
    case ExprKind::kColumnRef:
      if (value.qualifier.empty()) return ToLowerAscii(value.text);
      break;
    case ExprKind::kLiteral:
      switch (value.literal_kind) {
        case LiteralKind::kString:
          return value.text;
        case LiteralKind::kInt:
          return std::to_string(value.int_value);
        case LiteralKind::kBool:
          return std::string(value.bool_value ? "on" : "off");
        default:
          break;
      }
      break;
    default:
      break;
  }
  return Status::InvalidArgument("unsupported SET value");
}

Result<bool> ParseOnOff(const std::string& word) {
  if (word == "on" || word == "true" || word == "1") return true;
  if (word == "off" || word == "false" || word == "0") return false;
  return Status::InvalidArgument("expected ON or OFF, got '" + word + "'");
}

Result<int64_t> ParseCount(const std::string& word) {
  if (word.empty()) {
    return Status::InvalidArgument("expected a non-negative integer");
  }
  int64_t v = 0;
  for (char ch : word) {
    if (ch < '0' || ch > '9') {
      return Status::InvalidArgument(
          "expected a non-negative integer, got '" + word + "'");
    }
    v = v * 10 + (ch - '0');
    if (v > 1000000000) {
      return Status::InvalidArgument("value out of range: '" + word + "'");
    }
  }
  return v;
}

// The one loop that drains a SELECT's plan: each output row goes to
// the sink in one reused Row (which a collecting sink moves from),
// after a guard check, and the bytes the sink keeps for it are charged
// to the memory budget.
Status RunPlan(const PlannedSelect& plan, EvalContext& eval,
               ResultSink* sink) {
  std::vector<ResultColumn> columns;
  columns.reserve(plan.column_names.size());
  for (size_t i = 0; i < plan.column_names.size(); ++i) {
    columns.push_back({plan.column_names[i], plan.column_types[i]});
  }
  sink->Columns(std::move(columns));
  ExecState state;
  state.eval = &eval;
  TIP_RETURN_IF_ERROR(plan.root->Open(state));
  Row row;
  for (;;) {
    TIP_RETURN_IF_ERROR(eval.CheckGuard());
    TIP_ASSIGN_OR_RETURN(bool has_row, plan.root->Next(state, &row));
    if (!has_row) break;
    TIP_RETURN_IF_ERROR(eval.ReserveMemory(sink->Add(&row)));
  }
  sink->Finish(0, std::string());
  return Status::OK();
}

}  // namespace

Result<RecoveryMode> ParseRecoveryMode(std::string_view word) {
  if (word == "strict") return RecoveryMode::kStrict;
  if (word == "salvage") return RecoveryMode::kSalvage;
  return Status::InvalidArgument("unknown recovery mode '" +
                                 std::string(word) +
                                 "' (want strict or salvage)");
}

Database::Database() {
  Status status = RegisterBuiltins(this);
  // Builtin registration can only fail on duplicate registration, which
  // would be a programming error in the engine itself.
  (void)status;
  assert(status.ok());
  // Per-table content checksums: every heap maintains an incremental
  // sum of per-row hashes, where the hash is CRC-32 over the same row
  // image the WAL logs — the write path and the log can never disagree
  // about what bytes a row "is". "integrity.rowhash" is the fault
  // matrix's checksum corruption site: a fired fault perturbs the hash
  // exactly as a flipped bit in the row image would.
  catalog_.SetRowHasher([this](const Row& row) {
    std::string image;
    EncodeRowImage(row, types_, &image);
    uint64_t hash = Crc32(image);
    if (!fault::MaybeFail("integrity.rowhash").ok()) hash ^= 1;
    return hash;
  });
  // Cached plans hold raw pointers into these registries (Table*,
  // Routine*, Cast*, AggregateDef*), so every mutation must bump the
  // catalog version before a cached variant is trusted again. Installed
  // for the lifetime of the database; bumps during DataBlade install or
  // recovery replay are harmless (plans simply re-plan once).
  auto bump = [this] { BumpCatalogVersion(); };
  catalog_.SetChangeListener(bump);
  routines_.SetChangeListener(bump);
  casts_.SetChangeListener(bump);
  aggregates_.SetChangeListener(bump);
}

Status Database::RegisterIntervalKeyFn(TypeId type, IntervalKeyFn fn) {
  if (interval_key_fns_.count(type) > 0) {
    return Status::AlreadyExists("interval key function already registered "
                                 "for this type");
  }
  interval_key_fns_.emplace(type, std::move(fn));
  // A new access method changes which plans an index scan is legal for.
  BumpCatalogVersion();
  return Status::OK();
}

TxContext Database::CurrentTx(const SessionContext* session) const {
  std::lock_guard<std::mutex> lock(session_mu_);
  const SessionContext* s = Sess(session);
  // The paper grounds NOW against the *transaction* time: while the
  // session's transaction is open its pinned context is authoritative,
  // and a NOW override flipped meanwhile waits for it to close.
  if (s->txn_pin.has_value()) return *s->txn_pin;
  if (s->now.has_value()) return TxContext(*s->now);
  return TxContext::FromSystemClock();
}

void Database::SetNowOverride(std::optional<Chronon> now,
                              SessionContext* session) {
  std::lock_guard<std::mutex> lock(session_mu_);
  Sess(session)->now = now;
}

void Database::CancelActiveStatements() {
  std::lock_guard<std::mutex> lock(session_mu_);
  for (auto& entry : active_guards_) entry.first->Cancel();
}

void Database::CancelSessionStatements(const SessionContext* session) {
  const SessionContext* s = Sess(session);
  std::lock_guard<std::mutex> lock(session_mu_);
  for (auto& [guard, owner] : active_guards_) {
    if (owner == s) guard->Cancel();
  }
}

Result<ResultSet> Database::Execute(std::string_view sql) {
  return Execute(sql, nullptr, nullptr);
}

Result<ResultSet> Database::Execute(std::string_view sql,
                                    const Params& params) {
  return Execute(sql, &params, nullptr);
}

Result<ResultSet> Database::Execute(std::string_view sql,
                                    const Params* params,
                                    SessionContext* session) {
  // With the plan cache on, repeated statement texts skip the lexer and
  // parser and SELECTs reuse their planned operator tree.
  TIP_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedPlan> plan,
                       Prepare(sql));
  return ExecutePrepared(*plan, params, session);
}

Result<std::shared_ptr<const PreparedPlan>> Database::Prepare(
    std::string_view sql) {
  const bool use_cache = plan_cache_enabled_;
  std::string key;
  if (use_cache) {
    // The text alone is the key: every planned variant is keyed on the
    // settings fingerprint, so sessions with different settings share
    // one entry and plan their own variants under it.
    key = sql;
    if (std::shared_ptr<PreparedPlan> cached = plan_cache_.Lookup(key)) {
      return std::shared_ptr<const PreparedPlan>(std::move(cached));
    }
  }
  TIP_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  auto plan =
      std::make_shared<PreparedPlan>(std::string(sql), std::move(stmt));
  // Only SELECTs carry reusable operator trees; other kinds would just
  // occupy cache slots to save a parse.
  if (use_cache && plan->stmt().kind == Statement::Kind::kSelect) {
    plan_cache_.Insert(key, plan, &plan_cache_stats_);
  }
  return std::shared_ptr<const PreparedPlan>(std::move(plan));
}

Result<ResultSet> Database::ExecutePrepared(const PreparedPlan& plan,
                                            const Params* params,
                                            SessionContext* session) {
  CollectingSink sink;
  TIP_RETURN_IF_ERROR(ExecutePrepared(plan, params, session, &sink));
  return sink.Take();
}

Status Database::ExecutePrepared(const PreparedPlan& plan,
                                 const Params* params,
                                 SessionContext* session, ResultSink* sink) {
  // Non-SELECT statements reuse the parsed AST but re-plan per
  // execution: DML binds against live table state anyway, and DDL/SET
  // are not on any hot path.
  return ApplyTxnErrorContract(
      plan.stmt().kind == Statement::Kind::kSelect
          ? ExecutePreparedSelect(plan, params, session, sink)
          : ExecuteStatement(plan.stmt(), params, plan.sql(), session,
                             sink),
      session);
}

Result<ResultSet> Database::ExecuteScript(std::string_view script) {
  ScriptStatements statements = SplitStatements(script);
  if (!statements.rest.empty()) {
    statements.complete.push_back(statements.rest);
  }
  if (statements.complete.empty()) {
    return Status::InvalidArgument("empty script");
  }
  ResultSet last;
  for (std::string_view statement : statements.complete) {
    TIP_ASSIGN_OR_RETURN(last, Execute(statement));
  }
  return last;
}

StatementClass Database::Classify(const Statement& stmt) const {
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
    case Statement::Kind::kExplain:
      // A SELECT is a reader unless it calls a routine that changes
      // database state: tip_checkpoint() rotates the WAL,
      // tip_sync_wal() flushes the group-commit tail and tip_verify()
      // drops a rotted index — mutations a shared holder must not
      // make — and a CREATE FUNCTION routine may call one of them.
      return CallsSerialOnlyRoutine(*stmt.select, routines_)
                 ? StatementClass::kWriter
                 : StatementClass::kReader;
    // Transaction control only moves this session's own pin; the
    // writer slot is claimed (under the exclusive gate) by the first
    // write statement, not by BEGIN.
    case Statement::Kind::kBegin:
    case Statement::Kind::kCommit:
    case Statement::Kind::kRollback:
      return StatementClass::kReader;
    case Statement::Kind::kSet:
      // Session-scoped options touch only the caller's SessionContext;
      // everything else (wal_mode, plan_cache, fault_inject, the join
      // toggles...) flips state every session reads.
      if (stmt.option == "now" || stmt.option == "statement_timeout_ms" ||
          stmt.option == "memory_limit_kb" ||
          stmt.option == "parallel_workers") {
        return StatementClass::kReader;
      }
      return StatementClass::kWriter;
    default:
      // DML, DDL, CHECK (it may drop a rotted index for a rebuild).
      return StatementClass::kWriter;
  }
}

bool Database::IsTxnFatal(StatusCode code) {
  switch (code) {
    // The guard contract: cancel/timeout/memory inside a transaction
    // aborts it — the client asked for the statement to stop, and the
    // transaction's remaining statements would run against a NOW and a
    // state the client no longer believes in.
    case StatusCode::kCancelled:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kResourceExhausted:
    // I/O failures (a poisoned or unwritable WAL): how much of the
    // statement became durable is unknowable, so the bracket must go.
    case StatusCode::kInternal:
    case StatusCode::kCorruption:
      return true;
    default:
      // Validation errors (parse, unknown table, type mismatch...):
      // statement-level atomicity already left the tables untouched,
      // so the transaction can continue — the SQL error contract.
      return false;
  }
}

Status Database::ApplyTxnErrorContract(Status status,
                                       SessionContext* session) {
  SessionContext* s = Sess(session);
  // Only the transaction's own thread may trip the auto-abort: a
  // concurrent read-only statement on another thread (a stats poll that
  // got cancelled, say) must not tear down a transaction it is not part
  // of — and must not touch the writer slot, which belongs to the
  // owner's thread.
  if (!status.ok() && IsTxnFatal(status.code()) &&
      s->txn_thread.load(std::memory_order_acquire) ==
          std::this_thread::get_id() &&
      InTransaction(s)) {
    // Roll the whole transaction back; the statement's own error stays
    // the one reported (the rollback is a consequence, and its only
    // failure mode — a WAL rewind error — poisons the log, which later
    // statements will surface).
    (void)RollbackTransaction(s);
  }
  return status;
}

Database::GuardArm::GuardArm(Database* db, EvalContext* eval,
                             SessionContext* session)
    : db_(db) {
  SessionContext* s = db->Sess(session);
  guard_.SetTimeout(s->statement_timeout_ms.load());
  guard_.SetMemoryLimit(s->memory_limit_kb.load() * 1024);
  guard_.set_events(&db->guard_events_);
  eval->guard = &guard_;
  std::lock_guard<std::mutex> lock(db->session_mu_);
  db->active_guards_.emplace(&guard_, s);
}

Database::GuardArm::~GuardArm() {
  std::lock_guard<std::mutex> lock(db_->session_mu_);
  db_->active_guards_.erase(&guard_);
}

PlannerContext Database::MakePlannerContext(const Params* params,
                                            SessionContext* session) {
  SessionContext* s = Sess(session);
  PlannerContext pctx;
  pctx.types = &types_;
  pctx.routines = &routines_;
  pctx.casts = &casts_;
  pctx.aggregates = &aggregates_;
  pctx.catalog = &catalog_;
  pctx.params = params;
  pctx.interval_key_fns = &interval_key_fns_;
  pctx.enable_hash_join = enable_hash_join_;
  pctx.enable_interval_join = enable_interval_join_;
  pctx.parallel_workers = s->parallel_workers.load();
  pctx.parallel_stats = &parallel_stats_;
  return pctx;
}

std::string Database::SettingsFingerprint(
    const SessionContext* session) const {
  const SessionContext* s = Sess(session);
  // Everything the planner reads besides the catalog. The worker count
  // is per-session, so sessions with different settings key (and plan)
  // separately.
  std::string fp;
  fp += enable_hash_join_ ? "hj1 " : "hj0 ";
  fp += enable_interval_join_ ? "ij1 " : "ij0 ";
  fp += "pw";
  fp += std::to_string(s->parallel_workers.load(std::memory_order_relaxed));
  return fp;
}

Result<std::shared_ptr<PreparedPlan::Variant>> Database::PlanPreparedVariant(
    const PreparedPlan& plan, const Params* params, uint64_t version,
    std::string settings_fingerprint, std::string param_signature,
    SessionContext* session) {
  auto variant = std::make_shared<PreparedPlan::Variant>();
  variant->catalog_version = version;
  variant->settings_fingerprint = std::move(settings_fingerprint);
  variant->param_signature = std::move(param_signature);
  PlannerContext pctx = MakePlannerContext(params, session);
  // Prepared mode: `:name` placeholders bind to ordinal slots instead
  // of folding the bound values in, so the tree survives rebinding.
  pctx.param_slots = &variant->slot_names;
  TIP_ASSIGN_OR_RETURN(variant->plan,
                       PlanSelect(*plan.stmt().select, pctx, nullptr));
  return variant;
}

Status Database::ExecutePreparedSelect(const PreparedPlan& plan,
                                       const Params* params,
                                       SessionContext* session,
                                       ResultSink* sink) {
  SessionContext* s = Sess(session);
  const uint64_t version = catalog_version();
  std::string settings = SettingsFingerprint(s);
  std::string signature = ParamSignature(params);
  std::shared_ptr<PreparedPlan::Variant> variant =
      plan.FindVariant(version, settings, signature, &plan_cache_stats_);

  // The cached tree carries per-run state (cursors, hash tables), so it
  // serves one execution at a time; a concurrent execution of the same
  // handle plans a private transient tree instead of waiting.
  std::unique_lock<std::mutex> exec_lock;
  if (variant != nullptr) {
    exec_lock = std::unique_lock<std::mutex>(variant->exec_mu,
                                             std::try_to_lock);
    if (!exec_lock.owns_lock()) variant.reset();
    // else: catalog_version was re-validated under FindVariant's lock;
    // DDL is serialized externally against running statements, so the
    // version cannot move while we execute.
  }
  const bool hit = variant != nullptr && exec_lock.owns_lock();
  if (!hit) {
    TIP_ASSIGN_OR_RETURN(
        variant, PlanPreparedVariant(plan, params, version,
                                     std::move(settings),
                                     std::move(signature), s));
    // Lock before publication so no other execution can take the tree
    // between AddVariant and our run.
    exec_lock = std::unique_lock<std::mutex>(variant->exec_mu);
    plan.AddVariant(variant, &plan_cache_stats_);
  }
  // SET plan_cache off counts neither: the cache is not consulted.
  if (plan_cache_enabled_) {
    (hit ? plan_cache_stats_.hits : plan_cache_stats_.misses)
        .fetch_add(1, std::memory_order_relaxed);
  }

  // Resolve the name→value map into the plan's ordinal slots once per
  // execution; BoundParam indexes the vector per evaluation without
  // touching the map again.
  std::vector<Datum> slots;
  slots.reserve(variant->slot_names.size());
  for (const std::string& name : variant->slot_names) {
    auto it = params->find(name);
    if (it == params->end()) {
      // Unreachable while the signature covers the whole map, but fail
      // closed rather than executing with a hole in the slot vector.
      return Status::InvalidArgument("unbound parameter :" + name);
    }
    slots.push_back(it->second);
  }

  // A fresh EvalContext per execution is what re-grounds NOW: nothing
  // NOW-dependent was folded at plan time, so the new TxContext — from
  // this session, not a global field — is the only grounding the run
  // sees. Two sessions with different SET NOW values can execute the
  // same cached plan concurrently and read different groundings.
  EvalContext eval(CurrentTx(s));
  eval.params = &slots;
  GuardArm guard_arm(this, &eval, s);

  return RunPlan(variant->plan, eval, sink);
}

Status Database::ExecuteStatement(const Statement& stmt, const Params* params,
                                  std::string_view sql,
                                  SessionContext* session, ResultSink* sink) {
  SessionContext* s = Sess(session);
  PlannerContext pctx = MakePlannerContext(params, s);

  EvalContext eval(CurrentTx(s));

  // A write statement inside this session's transaction materializes
  // the single writer slot (undo log + WAL bracket) before touching
  // anything; the caller has serialized writers, so claiming is safe.
  switch (stmt.kind) {
    case Statement::Kind::kInsert:
    case Statement::Kind::kUpdate:
    case Statement::Kind::kDelete:
      TIP_RETURN_IF_ERROR(ClaimWriterTxn(s));
      break;
    default:
      break;
  }

  // Every statement executes under a stack-owned lifecycle guard:
  // deadline, cancel flag and memory budget travel to the operators via
  // the EvalContext. The guard is visible to other threads (for
  // Connection::Cancel) only while registered, and RAII deregistration
  // covers every return path below.
  GuardArm guard_arm(this, &eval, s);

  TIP_ASSIGN_OR_RETURN(ResultSet result,
                       ExecuteCommand(stmt, sql, s, pctx, eval));
  // The rows of a command's result (EXPLAIN, CHECK) are built already,
  // so handing them over charges nothing more.
  sink->Columns(std::move(result.columns));
  for (Row& row : result.rows) sink->Add(&row);
  sink->Finish(result.affected_rows, std::move(result.message));
  return Status::OK();
}

Result<ResultSet> Database::ExecuteCommand(const Statement& stmt,
                                           std::string_view sql,
                                           SessionContext* s,
                                           const PlannerContext& pctx,
                                           EvalContext& eval) {
  switch (stmt.kind) {
    case Statement::Kind::kExplain: {
      TIP_ASSIGN_OR_RETURN(PlannedSelect plan,
                           PlanSelect(*stmt.select, pctx, nullptr));
      std::string text;
      plan.root->Explain(0, &text);
      ResultSet result;
      result.columns.push_back({"plan", TypeId::kString});
      for (std::string_view line : SplitString(text, '\n')) {
        if (line.empty()) continue;
        result.rows.push_back(Row{Datum::String(std::string(line))});
      }
      return result;
    }

    case Statement::Kind::kCreateTable: {
      TIP_RETURN_IF_ERROR(RefuseInTransaction("CREATE TABLE"));
      std::vector<Column> columns;
      for (const ColumnDef& def : stmt.columns) {
        TIP_ASSIGN_OR_RETURN(TypeId type,
                             types_.FindByName(def.type_name));
        columns.push_back({def.name, type});
      }
      TIP_ASSIGN_OR_RETURN(Table * table,
                           catalog_.CreateTable(stmt.table,
                                                std::move(columns)));
      (void)table;
      TIP_RETURN_IF_ERROR(LogAppliedDdl(
          sql, [this, &stmt] { (void)catalog_.DropTable(stmt.table); }));
      ResultSet result;
      result.message = "CREATE TABLE";
      return result;
    }

    case Statement::Kind::kDropTable: {
      TIP_RETURN_IF_ERROR(RefuseInTransaction("DROP TABLE"));
      // Validate before logging: the drop itself cannot fail once the
      // table is known to exist, so log-then-apply is safe (there is no
      // undo for a drop). A quarantined table (including a name-only
      // entry whose storage never survived salvage) bypasses the
      // corrupt-table lookup error: DROP is the repair verb that clears
      // the quarantine.
      if (!catalog_.IsQuarantined(stmt.table)) {
        TIP_ASSIGN_OR_RETURN(Table * doomed, catalog_.GetTable(stmt.table));
        (void)doomed;
      }
      if (ShouldLogWal()) {
        TIP_RETURN_IF_ERROR(
            AppendWal(WalRecordKind::kDdl, EncodeDdlBody(sql)));
      }
      TIP_RETURN_IF_ERROR(catalog_.DropTable(stmt.table));
      ResultSet result;
      result.message = "DROP TABLE";
      return result;
    }

    case Statement::Kind::kInsert: {
      TIP_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(stmt.table));
      const std::vector<Column>& columns = table->columns();
      // Map insert columns to schema positions.
      std::vector<size_t> targets;
      if (stmt.insert_columns.empty()) {
        for (size_t i = 0; i < columns.size(); ++i) targets.push_back(i);
      } else {
        for (const std::string& name : stmt.insert_columns) {
          int idx = table->FindColumn(name);
          if (idx < 0) {
            return Status::NotFound("unknown column '" + name +
                                    "' in INSERT");
          }
          targets.push_back(static_cast<size_t>(idx));
        }
      }
      // Evaluate every value row before touching the heap: a statement
      // aborted mid-way (cancel, timeout, memory budget, eval error)
      // must leave the table exactly as it was.
      std::vector<Row> staged;
      staged.reserve(stmt.insert_rows.size());
      for (const std::vector<ExprPtr>& value_row : stmt.insert_rows) {
        TIP_RETURN_IF_ERROR(eval.CheckGuard());
        if (value_row.size() != targets.size()) {
          return Status::InvalidArgument(
              "INSERT value count does not match column count");
        }
        Row row(columns.size(), Datum::Null());
        TupleCtx tuple;
        for (size_t i = 0; i < targets.size(); ++i) {
          TIP_ASSIGN_OR_RETURN(BoundExprPtr bound,
                               BindScalar(*value_row[i], pctx, nullptr));
          TIP_ASSIGN_OR_RETURN(
              bound, CoerceTo(std::move(bound),
                              columns[targets[i]].type, pctx));
          TIP_RETURN_IF_ERROR(
              exec_util::EvalInto(*bound, tuple, eval, &row[targets[i]]));
        }
        TIP_RETURN_IF_ERROR(
            eval.ReserveMemory(exec_util::ApproxRowBytes(row)));
        staged.push_back(std::move(row));
      }
      // Write-ahead: the record hits the log (and, per wal_mode, disk)
      // before the heap changes; past this point the statement cannot
      // fail, so the log never holds a record for a failed statement.
      if (ShouldLogWal() && !staged.empty()) {
        TIP_RETURN_IF_ERROR(EnsureTxnWalBracket());
        TIP_RETURN_IF_ERROR(
            AppendWal(WalRecordKind::kInsert,
                      EncodeInsertBody(table->name(), staged, types_)));
      }
      CaptureTxnUndo(table);
      for (Row& row : staged) table->heap().Insert(std::move(row));
      ResultSet result;
      result.affected_rows = static_cast<int64_t>(staged.size());
      return result;
    }

    case Statement::Kind::kUpdate:
    case Statement::Kind::kDelete: {
      TIP_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(stmt.table));
      Scope scope;
      for (const Column& col : table->columns()) {
        scope.bindings.push_back({table->name(), col.name, col.type});
      }
      BoundExprPtr where;
      if (stmt.where != nullptr) {
        TIP_ASSIGN_OR_RETURN(where, BindScalar(*stmt.where, pctx, &scope));
        if (where->type() != TypeId::kBool &&
            where->type() != TypeId::kNull) {
          return Status::TypeError("WHERE requires a BOOLEAN expression");
        }
      }
      // For UPDATE: bind SET expressions against the row scope.
      std::vector<std::pair<size_t, BoundExprPtr>> sets;
      for (const auto& [name, expr] : stmt.update_sets) {
        int idx = table->FindColumn(name);
        if (idx < 0) {
          return Status::NotFound("unknown column '" + name +
                                  "' in UPDATE");
        }
        TIP_ASSIGN_OR_RETURN(BoundExprPtr bound,
                             BindScalar(*expr, pctx, &scope));
        TIP_ASSIGN_OR_RETURN(
            bound,
            CoerceTo(std::move(bound),
                     table->columns()[static_cast<size_t>(idx)].type,
                     pctx));
        sets.emplace_back(static_cast<size_t>(idx), std::move(bound));
      }

      // Phase 1: find the changed rows against a stable table, through
      // the morsel driver. Guard checks live here only — once phase 2
      // starts applying, the statement runs to completion so an abort
      // cannot leave a half-updated table. A WHERE or SET expression
      // with a subquery or a serial-only routine keeps the scan on this
      // thread.
      size_t cap = s->parallel_workers.load();
      auto keeps_serial = [&](const Expr& e) {
        return HasSubquery(e) || CallsSerialOnlyRoutine(e, routines_);
      };
      if (stmt.where != nullptr && keeps_serial(*stmt.where)) cap = 1;
      for (const auto& [name, expr] : stmt.update_sets) {
        if (keeps_serial(*expr)) cap = 1;
      }
      const bool is_delete = stmt.kind == Statement::Kind::kDelete;
      // Rows are addressed in the WAL by live ordinal (position in the
      // scan), not RowId: snapshot restore compacts tombstones, so the
      // same logical row replays under a different RowId but the same
      // ordinal.
      TIP_ASSIGN_OR_RETURN(
          MutationScan found,
          ScanForMutation(
              *table, where.get(), is_delete ? nullptr : &sets, cap,
              cap >= 2 ? parallel_stats_.ForTable(table->name()) : nullptr,
              eval));
      // Write-ahead, between the last failure point and the apply.
      if (ShouldLogWal() && !found.ids.empty()) {
        TIP_RETURN_IF_ERROR(EnsureTxnWalBracket());
        std::vector<uint64_t> delete_ordinals;
        std::vector<std::pair<uint64_t, const Row*>> updates;
        if (is_delete) {
          delete_ordinals = std::move(found.ordinals);
        } else {
          updates.reserve(found.rows.size());
          for (size_t i = 0; i < found.rows.size(); ++i) {
            updates.emplace_back(found.ordinals[i], &found.rows[i]);
          }
        }
        TIP_RETURN_IF_ERROR(AppendWal(
            WalRecordKind::kMutate,
            EncodeMutateBody(table->name(), delete_ordinals, updates,
                             types_)));
      }
      CaptureTxnUndo(table);
      // Phase 2: apply.
      for (size_t i = 0; i < found.ids.size(); ++i) {
        TIP_RETURN_IF_ERROR(
            is_delete ? table->heap().Delete(found.ids[i])
                      : table->heap().Update(found.ids[i],
                                             std::move(found.rows[i])));
      }
      ResultSet result;
      result.affected_rows = static_cast<int64_t>(found.ids.size());
      return result;
    }

    case Statement::Kind::kSet: {
      TIP_ASSIGN_OR_RETURN(std::string word, SetValueWord(*stmt.value));
      ResultSet result;
      if (stmt.option == "now") {
        // The pinned TxContext is authoritative mid-transaction:
        // re-grounding NOW here would silently make the transaction's
        // remaining statements disagree with its earlier ones. Only
        // *this* session's transaction matters — SET NOW is
        // session-scoped, so another session's open transaction is
        // none of its business.
        if (InTransaction(s)) {
          return Status::InvalidArgument(
              "SET NOW is not allowed inside a transaction; "
              "COMMIT or ROLLBACK first");
        }
        if (word == "default" || word == "system") {
          SetNowOverride(std::nullopt, s);
          result.message = "SET NOW DEFAULT";
          return result;
        }
        TIP_ASSIGN_OR_RETURN(Chronon now, Chronon::Parse(word));
        SetNowOverride(now, s);
        result.message = "SET NOW " + now.ToString();
        return result;
      }
      if (stmt.option == "hash_join") {
        TIP_ASSIGN_OR_RETURN(enable_hash_join_, ParseOnOff(word));
        result.message = "SET HASH_JOIN";
        return result;
      }
      if (stmt.option == "interval_join") {
        TIP_ASSIGN_OR_RETURN(enable_interval_join_, ParseOnOff(word));
        result.message = "SET INTERVAL_JOIN";
        return result;
      }
      if (stmt.option == "parallel_workers") {
        TIP_ASSIGN_OR_RETURN(int64_t n, ParseCount(word));
        if (n < 1) {
          return Status::InvalidArgument(
              "parallel_workers must be at least 1");
        }
        s->parallel_workers = static_cast<size_t>(n);
        result.message = "SET PARALLEL_WORKERS " + std::to_string(n);
        return result;
      }
      if (stmt.option == "statement_timeout_ms") {
        TIP_ASSIGN_OR_RETURN(int64_t n, ParseCount(word));
        s->statement_timeout_ms = n;
        result.message = "SET STATEMENT_TIMEOUT_MS " + std::to_string(n);
        return result;
      }
      if (stmt.option == "memory_limit_kb") {
        TIP_ASSIGN_OR_RETURN(int64_t n, ParseCount(word));
        s->memory_limit_kb = static_cast<size_t>(n);
        result.message = "SET MEMORY_LIMIT_KB " + std::to_string(n);
        return result;
      }
      if (stmt.option == "wal_mode") {
        // The commit record carries the mode the transaction's
        // statements were acknowledged under; switching mid-bracket
        // (especially across `off`, which checkpoints) would tear it.
        TIP_RETURN_IF_ERROR(RefuseInTransaction("SET WAL_MODE"));
        TIP_ASSIGN_OR_RETURN(WalMode mode, ParseWalMode(word));
        TIP_RETURN_IF_ERROR(set_wal_mode(mode));
        result.message = "SET WAL_MODE " + std::string(WalModeName(mode));
        return result;
      }
      if (stmt.option == "wal_group_size") {
        TIP_ASSIGN_OR_RETURN(int64_t n, ParseCount(word));
        if (n < 1) {
          return Status::InvalidArgument(
              "wal_group_size must be at least 1");
        }
        set_wal_group_size(static_cast<uint64_t>(n));
        result.message = "SET WAL_GROUP_SIZE " + std::to_string(n);
        return result;
      }
      if (stmt.option == "plan_cache") {
        TIP_ASSIGN_OR_RETURN(bool on, ParseOnOff(word));
        set_plan_cache_enabled(on);
        result.message = "SET PLAN_CACHE";
        return result;
      }
      if (stmt.option == "plan_cache_size") {
        TIP_ASSIGN_OR_RETURN(int64_t n, ParseCount(word));
        if (n < 1) {
          return Status::InvalidArgument(
              "plan_cache_size must be at least 1");
        }
        set_plan_cache_size(static_cast<size_t>(n));
        result.message = "SET PLAN_CACHE_SIZE " + std::to_string(n);
        return result;
      }
      if (stmt.option == "scrub") {
        // Background scrub scheduling: while on, every checkpoint also
        // CHECKs one table round-robin (see ScrubTick).
        TIP_ASSIGN_OR_RETURN(bool on, ParseOnOff(word));
        set_scrub_enabled(on);
        result.message = on ? "SET SCRUB ON" : "SET SCRUB OFF";
        return result;
      }
      if (stmt.option == "fault_inject") {
        // 'point:n[,point:every:n|point:prob:p|point:kill:n...]' arms
        // deterministic fault points; 'seed:n' reseeds prob triggers;
        // 'off' clears them all. Same grammar as TIP_FAULT_INJECT.
        TIP_RETURN_IF_ERROR(fault::ApplySpec(word));
        result.message = "SET FAULT_INJECT " + word;
        return result;
      }
      return Status::InvalidArgument("unknown option '" + stmt.option +
                                     "'");
    }

    case Statement::Kind::kCreateIndex: {
      TIP_RETURN_IF_ERROR(RefuseInTransaction("CREATE INDEX"));
      TIP_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(stmt.table));
      if (!EqualsIgnoreCase(stmt.index_method, "interval")) {
        return Status::NotImplemented("unknown index method '" +
                                      stmt.index_method + "'");
      }
      int idx = table->FindColumn(stmt.index_column);
      if (idx < 0) {
        return Status::NotFound("unknown column '" + stmt.index_column +
                                "'");
      }
      const TypeId col_type =
          table->columns()[static_cast<size_t>(idx)].type;
      auto it = interval_key_fns_.find(col_type);
      if (it == interval_key_fns_.end()) {
        return Status::TypeError(
            "type '" + types_.Get(col_type).name +
            "' has no interval access method (is the DataBlade "
            "installed?)");
      }
      TIP_RETURN_IF_ERROR(table->CreateIntervalIndex(
          stmt.index_name, static_cast<size_t>(idx), it->second));
      TIP_RETURN_IF_ERROR(LogAppliedDdl(sql, [table, &stmt] {
        (void)table->DropIndex(stmt.index_name);
      }));
      // Index DDL happens on the Table, below the Catalog listener's
      // sight: bump explicitly so cached scans re-plan onto the index.
      BumpCatalogVersion();
      ResultSet result;
      result.message = "CREATE INDEX";
      return result;
    }

    case Statement::Kind::kCreateFunction: {
      TIP_RETURN_IF_ERROR(RefuseInTransaction("CREATE FUNCTION"));
      const std::string name = ToLowerAscii(stmt.function_name);
      std::vector<Column> params;
      std::vector<TypeId> param_types;
      for (const ColumnDef& def : stmt.function_params) {
        TIP_ASSIGN_OR_RETURN(TypeId type, types_.FindByName(def.type_name));
        params.push_back({ToLowerAscii(def.name), type});
        param_types.push_back(type);
      }
      TIP_ASSIGN_OR_RETURN(TypeId return_type,
                           types_.FindByName(stmt.function_return));
      TIP_ASSIGN_OR_RETURN(ExprPtr body_ast,
                           ParseExpression(stmt.function_body));

      // The routine binds its body on every call, so later DDL (drops,
      // new overloads) cannot leave it holding stale plan state — the
      // SPL interpreter model. The body must bind over exactly the
      // parameters and coerce to the declared return type.
      std::shared_ptr<const Expr> body(body_ast.release());
      auto bind = [body, params = std::move(params), return_type](
                      const PlannerContext& ctx) -> Result<BoundExprPtr> {
        Scope scope;
        for (const Column& p : params) {
          scope.bindings.push_back({"", p.name, p.type});
        }
        TIP_ASSIGN_OR_RETURN(BoundExprPtr bound,
                             BindScalar(*body, ctx, &scope));
        return CoerceTo(std::move(bound), return_type, ctx);
      };
      // Check that now, but not on replay: the statement passed when it
      // first ran, and a checkpoint replays it where a routine or table
      // the body names may be missing (dropped, or redefined and so
      // created later). Live, that fails only calls of this function.
      if (!replaying_) TIP_RETURN_IF_ERROR(bind(pctx).status());
      Database* db = this;
      Routine routine;
      routine.name = name;
      routine.params = param_types;
      routine.result = return_type;
      routine.serial_only = true;  // the body may call a serial-only routine
      routine.fn = [db, bind](DatumRefs args,
                              EvalContext& eval_ctx) -> Result<Datum> {
        PlannerContext call_ctx;
        call_ctx.types = &db->types();
        call_ctx.routines = &db->routines();
        call_ctx.casts = &db->casts();
        call_ctx.aggregates = &db->aggregates();
        call_ctx.catalog = &db->catalog();
        call_ctx.interval_key_fns = nullptr;
        TIP_ASSIGN_OR_RETURN(BoundExprPtr bound, bind(call_ctx));
        Row arg_row;
        arg_row.reserve(args.size());
        for (size_t i = 0; i < args.size(); ++i) arg_row.push_back(args[i]);
        TupleCtx tuple{&arg_row, nullptr};
        Datum result;
        TIP_RETURN_IF_ERROR(
            exec_util::EvalInto(*bound, tuple, eval_ctx, &result));
        return result;
      };
      TIP_RETURN_IF_ERROR(routines_.Register(std::move(routine)));
      TIP_RETURN_IF_ERROR(LogAppliedDdl(sql, [this, &name, &param_types] {
        (void)routines_.Remove(name, param_types);
      }));
      sql_functions_.push_back({name, std::move(param_types),
                                std::string(sql)});
      ResultSet result;
      result.message = "CREATE FUNCTION";
      return result;
    }

    case Statement::Kind::kDropFunction: {
      TIP_RETURN_IF_ERROR(RefuseInTransaction("DROP FUNCTION"));
      const std::string name = ToLowerAscii(stmt.function_name);
      auto named = [&name](const SqlFunction& f) { return f.name == name; };
      if (std::ranges::none_of(sql_functions_, named)) {
        return Status::NotFound(
            "function '" + name +
            "' does not exist or was not created with CREATE FUNCTION");
      }
      if (ShouldLogWal()) {
        TIP_RETURN_IF_ERROR(
            AppendWal(WalRecordKind::kDdl, EncodeDdlBody(sql)));
      }
      // Only the overloads CREATE FUNCTION made: a DataBlade routine
      // of the same name stays.
      for (const SqlFunction& f : sql_functions_) {
        if (named(f)) TIP_RETURN_IF_ERROR(routines_.Remove(name, f.params));
      }
      std::erase_if(sql_functions_, named);
      ResultSet result;
      result.message = "DROP FUNCTION";
      return result;
    }

    case Statement::Kind::kDropIndex: {
      TIP_RETURN_IF_ERROR(RefuseInTransaction("DROP INDEX"));
      TIP_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(stmt.table));
      bool exists = false;
      for (const IntervalIndexDef& def : table->interval_indexes()) {
        if (EqualsIgnoreCase(def.name, stmt.index_name)) {
          exists = true;
          break;
        }
      }
      if (!exists) {
        return Status::NotFound("index '" + stmt.index_name +
                                "' does not exist");
      }
      if (ShouldLogWal()) {
        TIP_RETURN_IF_ERROR(
            AppendWal(WalRecordKind::kDdl, EncodeDdlBody(sql)));
      }
      TIP_RETURN_IF_ERROR(table->DropIndex(stmt.index_name));
      // See kCreateIndex: the Catalog listener does not see index DDL.
      BumpCatalogVersion();
      ResultSet result;
      result.message = "DROP INDEX";
      return result;
    }

    case Statement::Kind::kBegin: {
      TIP_RETURN_IF_ERROR(BeginTransaction(s));
      ResultSet result;
      result.message = "BEGIN";
      return result;
    }

    case Statement::Kind::kCommit: {
      TIP_RETURN_IF_ERROR(CommitTransaction(s));
      ResultSet result;
      result.message = "COMMIT";
      return result;
    }

    case Statement::Kind::kRollback: {
      TIP_RETURN_IF_ERROR(RollbackTransaction(s));
      ResultSet result;
      result.message = "ROLLBACK";
      return result;
    }

    case Statement::Kind::kCheck: {
      // CHECK TABLE t / CHECK DATABASE: online scrub. One row per
      // object; corruption is data, not an error status (the operator
      // wants the whole damage map, not the first hit) — but guard
      // trips (cancel/timeout) still abort the statement.
      ResultSet result;
      result.columns.push_back({"object", TypeId::kString});
      result.columns.push_back({"status", TypeId::kString});
      result.columns.push_back({"detail", TypeId::kString});
      uint64_t objects = 0;
      uint64_t corruptions = 0;

      std::vector<std::string> names;
      if (stmt.check_database) {
        names = catalog_.TableNames();
        // Name-only quarantine entries (tables whose storage never
        // came back from salvage) are not in TableNames but very much
        // part of the database's health.
        std::set<std::string> have;
        for (const std::string& name : names) have.insert(ToLowerAscii(name));
        for (const auto& [qname, cause] : catalog_.QuarantineList()) {
          if (have.count(qname) == 0) names.push_back(qname);
        }
      } else {
        names.push_back(stmt.table);
      }

      for (const std::string& name : names) {
        ++objects;
        Result<Table*> lookup = catalog_.GetTable(name);
        if (!lookup.ok()) {
          if (lookup.status().code() == StatusCode::kCorruption) {
            ++corruptions;
            result.rows.push_back(Row{
                Datum::String(name), Datum::String("quarantined"),
                Datum::String(std::string(lookup.status().message()))});
            continue;
          }
          return lookup.status();  // CHECK TABLE of an unknown table
        }
        TIP_ASSIGN_OR_RETURN(CheckFinding finding,
                             CheckTable(this, *lookup, &eval));
        if (!finding.ok) ++corruptions;
        result.rows.push_back(Row{Datum::String(name),
                                  Datum::String(finding.ok ? "ok" : "corrupt"),
                                  Datum::String(finding.detail)});
      }

      // CHECK DATABASE on a durable database also checks the live WAL,
      // read-only, as a strict re-attach would read it.
      if (stmt.check_database && wal_ != nullptr) {
        ++objects;
        TIP_RETURN_IF_ERROR(eval.CheckGuardNow());
        const CheckFinding wal = CheckWal(durable_dir_);
        if (!wal.ok) ++corruptions;
        result.rows.push_back(Row{Datum::String(wal.object),
                                  Datum::String(wal.ok ? "ok" : "corrupt"),
                                  Datum::String(wal.detail)});
      }

      RecordScrub(objects, corruptions);
      result.message = corruptions == 0
                           ? "CHECK OK"
                           : "CHECK FOUND " + std::to_string(corruptions) +
                                 " CORRUPT OBJECT(S)";
      return result;
    }

    case Statement::Kind::kSelect:
      break;  // ExecutePreparedSelect runs queries through RunPlan
  }
  return Status::Internal("unhandled statement kind");
}

Status Database::AppendWal(WalRecordKind kind, std::string_view body) {
  // Inside a transaction durability is deferred to the commit point:
  // records ride in async mode and the TXN_COMMIT append carries the
  // session's wal_mode, so a sync-mode transaction costs one fsync per
  // transaction, not one per statement.
  const WalMode mode =
      txn_ != nullptr ? WalMode::kAsync : wal_mode_.load();
  return wal_->Append(kind, body, mode).status();
}

Status Database::RefuseInTransaction(std::string_view what) const {
  // Any session's open transaction refuses these statements, read-only
  // pins included: a DDL or re-baseline under an open read transaction
  // would still yank state out from under its pinned view. The callers
  // run exclusively gated, so the count is stable across the check.
  if (open_txns_.load(std::memory_order_acquire) == 0) return Status::OK();
  return Status::InvalidArgument(std::string(what) +
                                 " is not allowed inside a transaction; "
                                 "COMMIT or ROLLBACK first");
}

Status Database::EnsureTxnWalBracket() {
  if (txn_ == nullptr || txn_->bracketed) return Status::OK();
  // Mark first: if the bracket append itself fails it rolls its own
  // frame back, and with `bracketed` still false nothing will try to
  // rewind to the mark.
  txn_->mark = wal_->Mark();
  TIP_RETURN_IF_ERROR(
      wal_->Append(WalRecordKind::kTxnBegin, "", WalMode::kAsync).status());
  txn_->bracketed = true;
  return Status::OK();
}

void Database::CaptureTxnUndo(Table* table) {
  if (txn_ == nullptr) return;
  if (txn_->undo.find(table->name()) != txn_->undo.end()) return;
  txn_->undo.emplace(table->name(), table->heap().SnapshotLiveRows());
}

Status Database::ClaimWriterTxn(SessionContext* session) {
  SessionContext* s = Sess(session);
  std::optional<TxContext> pin;
  {
    std::lock_guard<std::mutex> lock(session_mu_);
    pin = s->txn_pin;
  }
  // Auto-commit write: no transaction, nothing to claim.
  if (!pin.has_value()) return Status::OK();
  if (txn_ != nullptr) {
    if (txn_session_.load(std::memory_order_acquire) == s) {
      return Status::OK();
    }
    // Unreachable under a correctly-gated server — writers run
    // exclusively — but refuse rather than attribute this write to
    // another session's undo log.
    return Status::Internal(
        "another session's transaction holds the write slot");
  }
  auto txn = std::make_unique<TxnState>();
  txn->tx = *pin;
  txn_ = std::move(txn);
  txn_session_.store(s, std::memory_order_release);
  return Status::OK();
}

Status Database::BeginTransaction(SessionContext* session) {
  SessionContext* s = Sess(session);
  {
    std::lock_guard<std::mutex> lock(session_mu_);
    if (s->txn_pin.has_value()) {
      return Status::InvalidArgument("a transaction is already open");
    }
    // Pin NOW for the whole transaction. Inlined CurrentTx (which
    // would re-take session_mu_): the pin is not set yet, so the
    // override-or-clock arm is the one that applies.
    s->txn_pin = s->now.has_value() ? TxContext(*s->now)
                                    : TxContext::FromSystemClock();
  }
  s->txn_thread.store(std::this_thread::get_id(), std::memory_order_release);
  open_txns_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status Database::CommitTransaction(SessionContext* session) {
  SessionContext* s = Sess(session);
  if (!InTransaction(s)) {
    return Status::InvalidArgument("no transaction is open");
  }
  if (txn_ != nullptr && txn_session_.load(std::memory_order_acquire) == s) {
    if (txn_->bracketed) {
      // The commit record is appended under the session's wal_mode:
      // this is the point where the whole transaction reaches disk
      // (sync) or joins the group-commit batch. A commit that cannot
      // be logged is a rollback — the bracket must never be left
      // dangling.
      Status logged =
          wal_->Append(WalRecordKind::kTxnCommit, "", wal_mode_).status();
      if (!logged.ok()) {
        (void)RollbackTransaction(s);
        return logged;
      }
    }
    txn_.reset();
    txn_session_.store(nullptr, std::memory_order_release);
  }
  {
    std::lock_guard<std::mutex> lock(session_mu_);
    s->txn_pin.reset();
  }
  s->txn_thread.store(std::thread::id(), std::memory_order_release);
  open_txns_.fetch_sub(1, std::memory_order_acq_rel);
  durability_.txns_committed.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Database::RollbackTransaction(SessionContext* session) {
  SessionContext* s = Sess(session);
  if (!InTransaction(s)) {
    return Status::InvalidArgument("no transaction is open");
  }
  Status rewound = Status::OK();
  // Read-only transactions (the writer slot was never claimed, or
  // belongs to another session) have nothing to undo — dropping the
  // pin is the whole rollback.
  if (txn_ != nullptr && txn_session_.load(std::memory_order_acquire) == s) {
    // Memory first: restore every touched table's undo image. The heap
    // version counter advances, so interval indexes over these tables
    // lazily rebuild to the restored (pre-BEGIN) contents.
    for (auto& [name, rows] : txn_->undo) {
      Result<Table*> table = catalog_.GetTable(name);
      // DDL is refused inside transactions, so the table must still
      // exist; a miss here would be an engine bug, not a user error.
      if (table.ok()) (*table)->heap().ResetTo(std::move(rows));
    }
    // Then the log: rewind to the pre-bracket mark, un-assigning the
    // transaction's LSNs — tip_wal_stats() reads exactly as it did
    // before BEGIN. On failure the log is poisoned (fail-stop); the
    // in-memory rollback above already succeeded either way.
    if (txn_->bracketed) rewound = wal_->ResetToMark(txn_->mark);
    txn_.reset();
    txn_session_.store(nullptr, std::memory_order_release);
  }
  {
    std::lock_guard<std::mutex> lock(session_mu_);
    s->txn_pin.reset();
  }
  s->txn_thread.store(std::thread::id(), std::memory_order_release);
  open_txns_.fetch_sub(1, std::memory_order_acq_rel);
  durability_.txns_rolled_back.fetch_add(1, std::memory_order_relaxed);
  return rewound;
}

Status Database::LogAppliedDdl(std::string_view sql,
                               const std::function<void()>& undo) {
  if (!ShouldLogWal()) return Status::OK();
  Status logged = AppendWal(WalRecordKind::kDdl, EncodeDdlBody(sql));
  if (!logged.ok()) undo();
  return logged;
}

Status Database::AttachDurableDir(const std::string& dir,
                                  RecoveryReport* report,
                                  RecoveryMode mode) {
  RecoveryReport local;
  if (report == nullptr) report = &local;
  *report = RecoveryReport{};
  report->salvage = mode == RecoveryMode::kSalvage;
  {
    std::lock_guard<std::mutex> lock(integrity_mu_);
    corruption_manifest_.clear();
  }
  if (wal_ != nullptr) {
    return Status::InvalidArgument("a durable directory is already attached");
  }
  TIP_RETURN_IF_ERROR(RefuseInTransaction("ATTACH"));
  if (!catalog_.TableNames().empty()) {
    return Status::InvalidArgument(
        "attach the durable directory to a fresh database (install "
        "extensions first, create tables after)");
  }
  TIP_RETURN_IF_ERROR(fs::EnsureDir(dir));

  // Everything below re-executes recorded statements; none of them may
  // be logged again. RAII so every error return clears the flag.
  replaying_ = true;
  struct ReplayScope {
    Database* db;
    ~ReplayScope() { db->replaying_ = false; }
  } replay_scope{this};

  // Checkpoint metadata damage is fatal in both modes: the file is
  // tiny, CRC-guarded and atomically replaced — if it is unreadable
  // the deployment is broken, not bit-rotted, and salvaging "around"
  // it would mean guessing which snapshot is current.
  TIP_ASSIGN_OR_RETURN(std::optional<CheckpointMeta> meta,
                       ReadCheckpointMeta(dir));
  uint64_t checkpoint_lsn = 1;
  if (meta.has_value()) {
    checkpoint_lsn = meta->lsn;
    const std::string snap_path = dir + "/" + meta->snapshot_file;
    if (mode == RecoveryMode::kStrict) {
      TIP_RETURN_IF_ERROR(LoadSnapshotFromFile(this, snap_path));
    } else {
      // Salvage: try the strict load first (a clean file costs
      // nothing extra); only on corruption fall back to the
      // section-skipping salvage pass and quarantine what it lost.
      TIP_ASSIGN_OR_RETURN(std::string snap_bytes, fs::ReadFile(snap_path));
      Status loaded = LoadSnapshot(this, snap_bytes);
      if (!loaded.ok()) {
        if (loaded.code() != StatusCode::kCorruption) {
          return Annotate(loaded, "snapshot '" + snap_path + "'");
        }
        SalvageReport salvage;
        Status salvaged = SalvageSnapshot(this, snap_bytes, &salvage);
        if (!salvaged.ok()) {
          return Annotate(salvaged, "snapshot '" + snap_path + "'");
        }
        for (const SnapshotDamage& damage : salvage.damage) {
          report->manifest.push_back(
              {!damage.table.empty() ? damage.table
               : damage.section == SnapshotDamage::kNoSection
                   ? "snapshot"
                   : "snapshot section " + std::to_string(damage.section),
               snap_path, 0, damage.offset, damage.cause});
          if (!damage.table.empty()) {
            // The table's storage is gone; a name-only quarantine
            // entry makes later lookups (and WAL replay below) fail
            // with an explicit Corruption instead of NotFound.
            catalog_.Quarantine(damage.table,
                                "snapshot section unrecoverable: " +
                                    damage.cause);
          }
        }
      }
    }
    report->snapshot_loaded = true;
    for (const std::string& ddl : meta->function_ddl) {
      Result<ResultSet> created = Execute(ddl);
      if (!created.ok()) {
        // Fatal in both modes: the metadata's CRC held, so a failing
        // CREATE FUNCTION is an engine/extension mismatch, not rot.
        return Status::Corruption(
            "checkpointed CREATE FUNCTION failed to replay: " +
            created.status().ToString());
      }
    }
  }
  report->checkpoint_lsn = checkpoint_lsn;

  // The one stop rule (see AttachDurableDir's comment): the log keeps
  // exactly the records replay consumes, so new appends follow them.
  const std::string wal_path = dir + "/wal.log";
  Result<WalScan> scan = ScanWal(wal_path);
  WalReplay replay;
  if (scan.ok()) {
    replay = WalkBrackets(*scan, checkpoint_lsn);
    report->torn_tail = scan->torn_tail;
    report->torn_bytes_truncated =
        scan->torn_tail ? scan->bytes->size() - scan->end : 0;
  } else if (scan.status().code() == StatusCode::kNotFound) {
    report->created = !meta.has_value();
  }
  // A log that exists but cannot be read replays nothing here, and
  // Wal::Open below refuses it rather than create one over it.
  report->txns_replayed = replay.txns_committed;
  report->txn_records_discarded = replay.records_discarded;
  if (!replay.damage.empty()) {
    const std::string error =
        "WAL record lsn=" + std::to_string(replay.damage_lsn) + " in '" +
        wal_path + "' at byte offset " +
        std::to_string(replay.damage_offset) + ": " + replay.damage;
    if (mode != RecoveryMode::kSalvage) return Status::Corruption(error);
    report->manifest.push_back(
        {"wal", wal_path, replay.damage_lsn, replay.damage_offset,
         error + " (replay stopped here and the log is cut)"});
  }

  // Tables already quarantined (snapshot salvage above): their replay
  // records are skipped by name, so one lost section does not cascade
  // into replay failures for every later write to that table.
  std::set<std::string> dead_tables;
  for (const auto& [qname, qcause] : catalog_.QuarantineList()) {
    dead_tables.insert(qname);
  }

  // Applies one record under the recovery mode's corruption policy:
  // strict refuses the open; salvage quarantines the record's table
  // (when attributable) and keeps going. An unattributable failure —
  // a record too damaged to even name its table, or non-table DDL —
  // stays fatal in both modes.
  auto apply_one = [&](const WalRecord& record) -> Status {
    if (mode == RecoveryMode::kSalvage && !dead_tables.empty()) {
      const std::string target = ToLowerAscii(WalRecordTableName(record));
      if (!target.empty() && dead_tables.count(target) > 0) {
        ++report->records_skipped;
        return Status::OK();
      }
    }
    Status applied = ApplyWalRecord(this, record);
    if (applied.ok()) {
      ++report->wal_records_replayed;
      return Status::OK();
    }
    const std::string error = "WAL record lsn=" +
                              std::to_string(record.lsn) + " in '" +
                              wal_path + "' failed to replay: " +
                              applied.ToString();
    if (mode != RecoveryMode::kSalvage) return Status::Corruption(error);
    const std::string target = ToLowerAscii(WalRecordTableName(record));
    if (target.empty()) return Status::Corruption(error);
    catalog_.Quarantine(target, error);
    dead_tables.insert(target);
    ++report->records_skipped;
    report->manifest.push_back({target, wal_path, record.lsn, 0, error});
    return Status::OK();
  };
  for (const WalRecord* record : replay.apply) {
    TIP_RETURN_IF_ERROR(apply_one(*record));
  }
  TIP_ASSIGN_OR_RETURN(std::unique_ptr<Wal> wal,
                       Wal::Open(wal_path, scan, replay, checkpoint_lsn));

  // Warm every interval index once, after the last replayed write, so
  // the first probe after recovery finds it built.
  const TxContext tx = CurrentTx();
  for (const std::string& name : catalog_.TableNames()) {
    Result<Table*> table = catalog_.GetTable(name);
    if (!table.ok()) continue;
    for (const IntervalIndexDef& def : (*table)->interval_indexes()) {
      (void)(*table)->GetIntervalIndex(def.column, tx);
    }
  }

  durable_dir_ = dir;
  wal_ = std::move(wal);
  wal_->set_group_records(wal_group_size_);
  durability_.recoveries_run.fetch_add(1, std::memory_order_relaxed);
  durability_.records_replayed.fetch_add(report->wal_records_replayed,
                                         std::memory_order_relaxed);
  if (report->torn_tail) {
    durability_.torn_tail_truncations.fetch_add(1, std::memory_order_relaxed);
  }
  durability_.txn_records_discarded.fetch_add(report->txn_records_discarded,
                                              std::memory_order_relaxed);
  if (mode == RecoveryMode::kSalvage) {
    report->tables_quarantined = catalog_.quarantine_count();
    std::lock_guard<std::mutex> lock(integrity_mu_);
    corruption_manifest_ = report->manifest;
  }
  RemoveStaleSnapshots(dir, meta.has_value() ? meta->snapshot_file : "");
  // Recovery may have restored tables/functions through paths the
  // registry listeners already saw, but snapshot loading pokes catalog
  // state directly — one final bump settles any plan cached pre-attach.
  BumpCatalogVersion();
  return Status::OK();
}

Status Database::set_wal_mode(WalMode mode) {
  if (wal_ == nullptr || mode == wal_mode_) {
    wal_mode_ = mode;
    return Status::OK();
  }
  // Leaving a buffered mode must not abandon its pending tail: those
  // statements were acknowledged under the old contract.
  TIP_RETURN_IF_ERROR(wal_->Sync());
  // Crossing the `off` boundary in either direction re-baselines the
  // log with a checkpoint. Without it, records appended after an
  // unlogged gap encode mutate ordinals against a state that includes
  // the gap's writes — state the log never saw — and replay would
  // resolve them to the wrong rows. The checkpoint snapshots the
  // current state and rotates the log, so whatever is appended next
  // replays against exactly the state it was logged under. If the
  // checkpoint fails, refuse the transition: the old mode keeps its
  // (still consistent) contract.
  if (mode == WalMode::kOff || wal_mode_ == WalMode::kOff) {
    TIP_RETURN_IF_ERROR(Checkpoint());
    // The re-baseline rotated the log under a new contract; cached
    // plans are conservatively re-planned at the same boundary.
    BumpCatalogVersion();
  }
  wal_mode_ = mode;
  return Status::OK();
}

Status Database::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument("no durable directory attached");
  }
  // Any session's open transaction refuses the checkpoint: snapshotting
  // uncommitted rows — or rotating away an open bracket — would tear
  // it, and even a read-only pin deserves a stable view of the tables.
  if (open_txns_.load(std::memory_order_acquire) > 0) {
    return Status::InvalidArgument(
        "CHECKPOINT is not allowed inside a transaction; "
        "COMMIT or ROLLBACK first");
  }
  // A checkpoint while tables sit in quarantine would publish a
  // snapshot with the damaged tables simply absent — silently turning
  // an explicit, recoverable quarantine into permanent loss. The
  // operator must decide first: DROP the damaged tables (accepting the
  // loss), then checkpoint.
  if (catalog_.quarantine_count() > 0) {
    return Status::InvalidArgument(
        "CHECKPOINT refused: " + std::to_string(catalog_.quarantine_count()) +
        " table(s) quarantined; inspect tip_health(), DROP the damaged "
        "tables to accept the loss, then retry");
  }
  std::lock_guard<std::mutex> lock(checkpoint_mu_);
  TIP_RETURN_IF_ERROR(fault::MaybeFail("checkpoint.begin"));
  // `lsn` is the first LSN the snapshot does NOT cover. No writes can
  // interleave here (writers are serialized externally), so the
  // snapshot taken next covers exactly [.., lsn).
  const uint64_t lsn = wal_->next_lsn();
  const std::string file = "snapshot." + std::to_string(lsn) + ".tip";
  TIP_RETURN_IF_ERROR(SaveSnapshotToFile(*this, durable_dir_ + "/" + file));

  CheckpointMeta meta;
  meta.lsn = lsn;
  meta.snapshot_file = file;
  for (const SqlFunction& f : sql_functions_) {
    meta.function_ddl.push_back(f.ddl);
  }
  TIP_RETURN_IF_ERROR(fault::MaybeFail("checkpoint.commit"));
  TIP_RETURN_IF_ERROR(WriteCheckpointMeta(durable_dir_, meta));
  durability_.checkpoints.fetch_add(1, std::memory_order_relaxed);

  // Published. A failure past this point costs only disk space: the old
  // log's records sit below `lsn` and recovery skips them.
  Status rotated = wal_->Rotate(lsn);
  RemoveStaleSnapshots(durable_dir_, file);
  if (rotated.ok() && scrub_enabled_.load(std::memory_order_relaxed)) {
    // Background scrub: one table's CHECK per checkpoint interval. The
    // checkpoint has already published, so a scrub error (an index
    // rebuild failure, say) must not retroactively fail it; corrupt
    // findings land in the health counters and manifest instead.
    (void)ScrubTick();
  }
  return rotated;
}

Result<std::string> Database::ScrubTick() {
  std::vector<std::string> names = catalog_.TableNames();
  if (names.empty()) return std::string();
  std::sort(names.begin(), names.end());
  // The next table strictly after the cursor, wrapping to the front —
  // a stable round-robin walk even as tables come and go between ticks.
  std::string target;
  for (const std::string& name : names) {
    if (name > scrub_cursor_) {
      target = name;
      break;
    }
  }
  if (target.empty()) target = names.front();
  scrub_cursor_ = target;
  integrity_.scrub_ticks.fetch_add(1, std::memory_order_relaxed);

  Result<Table*> lookup = catalog_.GetTable(target);
  if (!lookup.ok()) {
    if (lookup.status().code() == StatusCode::kCorruption) {
      // Quarantined: already-known damage, still worth counting so
      // tip_health() shows the scrubber is revisiting it.
      RecordScrub(1, 1);
      return target;
    }
    // Dropped between TableNames and the lookup — nothing to scrub.
    return target;
  }
  TIP_ASSIGN_OR_RETURN(CheckFinding finding, CheckTable(this, *lookup,
                                                        nullptr));
  RecordScrub(1, finding.ok ? 0 : 1);
  if (!finding.ok) {
    std::lock_guard<std::mutex> lock(integrity_mu_);
    corruption_manifest_.push_back(
        {target, "(online scrub)", 0, 0, finding.detail});
  }
  return target;
}

Status Database::SyncWal() {
  if (wal_ == nullptr) return Status::OK();
  return wal_->Sync();
}

void Database::set_wal_group_size(uint64_t n) {
  wal_group_size_ = n == 0 ? 1 : n;
  if (wal_ != nullptr) wal_->set_group_records(wal_group_size_);
}

DurabilityStats Database::durability_stats() const {
  DurabilityStats stats;
  stats.checkpoints = durability_.checkpoints.load(std::memory_order_relaxed);
  stats.recoveries_run =
      durability_.recoveries_run.load(std::memory_order_relaxed);
  stats.records_replayed =
      durability_.records_replayed.load(std::memory_order_relaxed);
  stats.torn_tail_truncations =
      durability_.torn_tail_truncations.load(std::memory_order_relaxed);
  stats.txns_committed =
      durability_.txns_committed.load(std::memory_order_relaxed);
  stats.txns_rolled_back =
      durability_.txns_rolled_back.load(std::memory_order_relaxed);
  stats.txn_records_discarded =
      durability_.txn_records_discarded.load(std::memory_order_relaxed);
  if (wal_ != nullptr) {
    stats.wal = wal_->stats();
    stats.wal_next_lsn = wal_->next_lsn();
  }
  return stats;
}

IntegrityStats Database::integrity_stats() const {
  IntegrityStats stats;
  stats.scrubs_run = integrity_.scrubs_run.load(std::memory_order_relaxed);
  stats.objects_checked =
      integrity_.objects_checked.load(std::memory_order_relaxed);
  stats.corruptions_found =
      integrity_.corruptions_found.load(std::memory_order_relaxed);
  stats.tables_quarantined = catalog_.quarantine_count();
  stats.scrub_ticks = integrity_.scrub_ticks.load(std::memory_order_relaxed);
  return stats;
}

std::vector<CorruptionManifestEntry> Database::corruption_manifest() const {
  std::lock_guard<std::mutex> lock(integrity_mu_);
  return corruption_manifest_;
}

void Database::RecordScrub(uint64_t objects_checked,
                           uint64_t corruptions_found) {
  integrity_.scrubs_run.fetch_add(1, std::memory_order_relaxed);
  integrity_.objects_checked.fetch_add(objects_checked,
                                       std::memory_order_relaxed);
  integrity_.corruptions_found.fetch_add(corruptions_found,
                                         std::memory_order_relaxed);
}

}  // namespace tip::engine
