#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "common/string_util.h"
#include "engine/database.h"
#include "engine/metrics.h"
#include "engine/storage/integrity.h"

namespace tip::engine {

namespace {

// -- Scalar helpers ----------------------------------------------------------

Result<int64_t> CheckedAdd(int64_t a, int64_t b) {
  int64_t out;
  if (__builtin_add_overflow(a, b, &out)) {
    return Status::OutOfRange("integer addition overflow");
  }
  return out;
}

Result<int64_t> CheckedSub(int64_t a, int64_t b) {
  int64_t out;
  if (__builtin_sub_overflow(a, b, &out)) {
    return Status::OutOfRange("integer subtraction overflow");
  }
  return out;
}

Result<int64_t> CheckedMul(int64_t a, int64_t b) {
  int64_t out;
  if (__builtin_mul_overflow(a, b, &out)) {
    return Status::OutOfRange("integer multiplication overflow");
  }
  return out;
}

// SQL LIKE: '%' matches any run (including empty), '_' any one
// character. Iterative two-pointer matching with single-'%'
// backtracking — linear for patterns without nested wildcard overlap.
bool LikeMatch(std::string_view text, std::string_view pattern) {
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Routine MakeRoutine(std::string name, std::vector<TypeId> params,
                    TypeId result, RoutineFn fn) {
  Routine r;
  r.name = std::move(name);
  r.params = std::move(params);
  r.result = result;
  r.fn = std::move(fn);
  return r;
}

// Marks a routine that changes database state: a statement that calls
// it keeps its scans serial (see Routine::serial_only).
Routine SerialOnly(Routine r) {
  r.serial_only = true;
  return r;
}

Status RegisterArithmetic(Database* db) {
  RoutineRegistry& reg = db->routines();
  const TypeId i = TypeId::kInt, d = TypeId::kDouble, s = TypeId::kString;

  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "+", {i, i}, i,
      [](DatumRefs a, EvalContext&) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(int64_t v,
                             CheckedAdd(a[0].int_value(), a[1].int_value()));
        return Datum::Int(v);
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "+", {d, d}, d,
      [](DatumRefs a, EvalContext&) -> Result<Datum> {
        return Datum::Double(a[0].double_value() + a[1].double_value());
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "-", {i, i}, i,
      [](DatumRefs a, EvalContext&) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(int64_t v,
                             CheckedSub(a[0].int_value(), a[1].int_value()));
        return Datum::Int(v);
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "-", {d, d}, d,
      [](DatumRefs a, EvalContext&) -> Result<Datum> {
        return Datum::Double(a[0].double_value() - a[1].double_value());
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "*", {i, i}, i,
      [](DatumRefs a, EvalContext&) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(int64_t v,
                             CheckedMul(a[0].int_value(), a[1].int_value()));
        return Datum::Int(v);
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "*", {d, d}, d,
      [](DatumRefs a, EvalContext&) -> Result<Datum> {
        return Datum::Double(a[0].double_value() * a[1].double_value());
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "/", {i, i}, i,
      [](DatumRefs a, EvalContext&) -> Result<Datum> {
        if (a[1].int_value() == 0) {
          return Status::InvalidArgument("division by zero");
        }
        if (a[0].int_value() == INT64_MIN && a[1].int_value() == -1) {
          return Status::OutOfRange("integer division overflow");
        }
        return Datum::Int(a[0].int_value() / a[1].int_value());
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "/", {d, d}, d,
      [](DatumRefs a, EvalContext&) -> Result<Datum> {
        if (a[1].double_value() == 0.0) {
          return Status::InvalidArgument("division by zero");
        }
        return Datum::Double(a[0].double_value() / a[1].double_value());
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "neg", {i}, i,
      [](DatumRefs a, EvalContext&) -> Result<Datum> {
        if (a[0].int_value() == INT64_MIN) {
          return Status::OutOfRange("integer negation overflow");
        }
        return Datum::Int(-a[0].int_value());
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "neg", {d}, d,
      [](DatumRefs a, EvalContext&) -> Result<Datum> {
        return Datum::Double(-a[0].double_value());
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "mod", {i, i}, i,
      [](DatumRefs a, EvalContext&) -> Result<Datum> {
        if (a[1].int_value() == 0) {
          return Status::InvalidArgument("modulo by zero");
        }
        if (a[0].int_value() == INT64_MIN && a[1].int_value() == -1) {
          return Datum::Int(0);
        }
        return Datum::Int(a[0].int_value() % a[1].int_value());
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "abs", {i}, i,
      [](DatumRefs a, EvalContext&) -> Result<Datum> {
        if (a[0].int_value() == INT64_MIN) {
          return Status::OutOfRange("abs overflow");
        }
        return Datum::Int(a[0].int_value() < 0 ? -a[0].int_value()
                                               : a[0].int_value());
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "abs", {d}, d,
      [](DatumRefs a, EvalContext&) -> Result<Datum> {
        return Datum::Double(std::fabs(a[0].double_value()));
      })));

  // greatest / least over the orderable builtins (the layered baseline's
  // temporal-join translation leans on these).
  struct MinMaxSpec {
    TypeId type;
    bool greatest;
  };
  for (TypeId t : {i, d, s}) {
    for (bool greatest : {true, false}) {
      const TypeRegistry* types = &db->types();
      TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
          greatest ? "greatest" : "least", {t, t}, t,
          [types, greatest](DatumRefs a, EvalContext& ctx) -> Result<Datum> {
            TIP_ASSIGN_OR_RETURN(int c,
                                 types->Compare(a[0], a[1], ctx.tx));
            return (c >= 0) == greatest ? a[0] : a[1];
          })));
    }
  }

  // String routines.
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "||", {s, s}, s,
      [](DatumRefs a, EvalContext&) -> Result<Datum> {
        return Datum::String(a[0].string_value() + a[1].string_value());
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "length", {s}, i,
      [](DatumRefs a, EvalContext&) -> Result<Datum> {
        return Datum::Int(static_cast<int64_t>(a[0].string_value().size()));
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "lower", {s}, s,
      [](DatumRefs a, EvalContext&) -> Result<Datum> {
        return Datum::String(ToLowerAscii(a[0].string_value()));
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "upper", {s}, s,
      [](DatumRefs a, EvalContext&) -> Result<Datum> {
        return Datum::String(ToUpperAscii(a[0].string_value()));
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "like", {s, s}, TypeId::kBool,
      [](DatumRefs a, EvalContext&) -> Result<Datum> {
        return Datum::Bool(LikeMatch(a[0].string_value(),
                                     a[1].string_value()));
      })));
  return Status::OK();
}

Status RegisterCasts(Database* db) {
  CastRegistry& reg = db->casts();
  // INT widens to DOUBLE implicitly; narrowing is explicit.
  TIP_RETURN_IF_ERROR(reg.Register(
      TypeId::kInt, TypeId::kDouble, /*implicit=*/true,
      [](const Datum& v, EvalContext&) -> Result<Datum> {
        return Datum::Double(static_cast<double>(v.int_value()));
      }));
  TIP_RETURN_IF_ERROR(reg.Register(
      TypeId::kDouble, TypeId::kInt, /*implicit=*/false,
      [](const Datum& v, EvalContext&) -> Result<Datum> {
        const double x = v.double_value();
        if (!(x >= -9.2233720368547758e18 && x <= 9.2233720368547758e18)) {
          return Status::OutOfRange("DOUBLE value out of INT range");
        }
        return Datum::Int(static_cast<int64_t>(x));
      }));
  TIP_RETURN_IF_ERROR(reg.Register(
      TypeId::kString, TypeId::kInt, /*implicit=*/false,
      [](const Datum& v, EvalContext&) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(int64_t x, ParseInt64(v.string_value()));
        return Datum::Int(x);
      }));
  TIP_RETURN_IF_ERROR(reg.Register(
      TypeId::kString, TypeId::kDouble, /*implicit=*/false,
      [](const Datum& v, EvalContext&) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(double x, ParseDouble(v.string_value()));
        return Datum::Double(x);
      }));
  TIP_RETURN_IF_ERROR(reg.Register(
      TypeId::kInt, TypeId::kString, /*implicit=*/false,
      [](const Datum& v, EvalContext&) -> Result<Datum> {
        return Datum::String(std::to_string(v.int_value()));
      }));
  TIP_RETURN_IF_ERROR(reg.Register(
      TypeId::kBool, TypeId::kString, /*implicit=*/false,
      [](const Datum& v, EvalContext&) -> Result<Datum> {
        return Datum::String(v.bool_value() ? "true" : "false");
      }));
  return Status::OK();
}

// -- Aggregates --------------------------------------------------------------

class CountState final : public AggregateState {
 public:
  Status Step(const Datum&, EvalContext&) override {
    ++count_;
    return Status::OK();
  }
  Result<Datum> Final(EvalContext&) override { return Datum::Int(count_); }
  Status Merge(AggregateState&& other, EvalContext&) override {
    count_ += static_cast<CountState&>(other).count_;
    return Status::OK();
  }

 private:
  int64_t count_ = 0;
};

class SumIntState final : public AggregateState {
 public:
  Status Step(const Datum& v, EvalContext&) override {
    TIP_ASSIGN_OR_RETURN(sum_, CheckedAdd(sum_, v.int_value()));
    seen_ = true;
    return Status::OK();
  }
  Result<Datum> Final(EvalContext&) override {
    // SQL: SUM over the empty set is NULL.
    return seen_ ? Datum::Int(sum_) : Datum::NullOf(TypeId::kInt);
  }
  Status Merge(AggregateState&& other, EvalContext&) override {
    const SumIntState& o = static_cast<SumIntState&>(other);
    if (!o.seen_) return Status::OK();
    TIP_ASSIGN_OR_RETURN(sum_, CheckedAdd(sum_, o.sum_));
    seen_ = true;
    return Status::OK();
  }

 private:
  int64_t sum_ = 0;
  bool seen_ = false;
};

class SumDoubleState final : public AggregateState {
 public:
  Status Step(const Datum& v, EvalContext&) override {
    sum_ += v.double_value();
    seen_ = true;
    return Status::OK();
  }
  Result<Datum> Final(EvalContext&) override {
    return seen_ ? Datum::Double(sum_) : Datum::NullOf(TypeId::kDouble);
  }
  Status Merge(AggregateState&& other, EvalContext&) override {
    const SumDoubleState& o = static_cast<SumDoubleState&>(other);
    if (o.seen_) {
      sum_ += o.sum_;
      seen_ = true;
    }
    return Status::OK();
  }

 private:
  double sum_ = 0;
  bool seen_ = false;
};

class AvgState final : public AggregateState {
 public:
  Status Step(const Datum& v, EvalContext&) override {
    sum_ += v.double_value();
    ++count_;
    return Status::OK();
  }
  Result<Datum> Final(EvalContext&) override {
    if (count_ == 0) return Datum::NullOf(TypeId::kDouble);
    return Datum::Double(sum_ / static_cast<double>(count_));
  }
  Status Merge(AggregateState&& other, EvalContext&) override {
    const AvgState& o = static_cast<AvgState&>(other);
    sum_ += o.sum_;
    count_ += o.count_;
    return Status::OK();
  }

 private:
  double sum_ = 0;
  int64_t count_ = 0;
};

class MinMaxState final : public AggregateState {
 public:
  MinMaxState(const TypeRegistry* types, bool is_max)
      : types_(types), is_max_(is_max) {}

  Status Step(const Datum& v, EvalContext& ctx) override {
    if (!seen_) {
      best_ = v;
      seen_ = true;
      return Status::OK();
    }
    TIP_ASSIGN_OR_RETURN(int c, types_->Compare(v, best_, ctx.tx));
    if ((c > 0) == is_max_ && c != 0) best_ = v;
    return Status::OK();
  }
  Result<Datum> Final(EvalContext&) override {
    return seen_ ? best_ : Datum::Null();
  }
  Status Merge(AggregateState&& other, EvalContext& ctx) override {
    MinMaxState& o = static_cast<MinMaxState&>(other);
    if (!o.seen_) return Status::OK();
    return Step(o.best_, ctx);
  }

 private:
  const TypeRegistry* types_;
  bool is_max_;
  Datum best_;
  bool seen_ = false;
};

Status RegisterAggregates(Database* db) {
  AggregateRegistry& reg = db->aggregates();
  const TypeRegistry* types = &db->types();

  AggregateDef count;
  count.name = "count";
  count.any_param = true;
  count.result = TypeId::kInt;
  count.make_state = [] { return std::make_unique<CountState>(); };
  count.mergeable = true;
  TIP_RETURN_IF_ERROR(reg.Register(std::move(count)));

  AggregateDef sum_int;
  sum_int.name = "sum";
  sum_int.param = TypeId::kInt;
  sum_int.result = TypeId::kInt;
  sum_int.make_state = [] { return std::make_unique<SumIntState>(); };
  sum_int.mergeable = true;
  TIP_RETURN_IF_ERROR(reg.Register(std::move(sum_int)));

  AggregateDef sum_double;
  sum_double.name = "sum";
  sum_double.param = TypeId::kDouble;
  sum_double.result = TypeId::kDouble;
  sum_double.make_state = [] { return std::make_unique<SumDoubleState>(); };
  sum_double.mergeable = true;
  TIP_RETURN_IF_ERROR(reg.Register(std::move(sum_double)));

  AggregateDef avg;
  avg.name = "avg";
  avg.param = TypeId::kDouble;
  avg.result = TypeId::kDouble;
  avg.make_state = [] { return std::make_unique<AvgState>(); };
  avg.mergeable = true;
  TIP_RETURN_IF_ERROR(reg.Register(std::move(avg)));

  for (bool is_max : {false, true}) {
    AggregateDef def;
    def.name = is_max ? "max" : "min";
    def.any_param = true;
    def.result_same_as_param = true;
    def.make_state = [types, is_max] {
      return std::make_unique<MinMaxState>(types, is_max);
    };
    def.mergeable = true;
    TIP_RETURN_IF_ERROR(reg.Register(std::move(def)));
  }
  return Status::OK();
}

// -- Counter lists -----------------------------------------------------------
//
// One list per subsystem (see metrics.h), read from the live counters on
// every call. RegisterStats generates both SQL overloads of each
// subsystem's stats routine from its list.

uint64_t Load(const std::atomic<uint64_t>& counter) {
  return counter.load(std::memory_order_relaxed);
}

// The statement lifecycle guard: how often statements hit timeouts,
// cancels, memory budgets, or degraded a parallel plan to serial.
Metrics GuardMetrics(const Database& db) {
  const GuardEvents& ev = db.guard_events();
  return {{"timeouts", Load(ev.timeouts)},
          {"cancels", Load(ev.cancels)},
          {"oom", Load(ev.oom)},
          {"parallel_fallbacks", Load(ev.parallel_fallbacks)}};
}

// Durability: append and fsync traffic, group-commit effectiveness,
// transactions, and what recovery had to do.
Metrics WalMetrics(const Database& db) {
  const DurabilityStats st = db.durability_stats();
  return {{"records_appended", st.wal.records_appended},
          {"bytes_written", st.wal.bytes_written},
          {"fsyncs", st.wal.fsyncs},
          {"rotations", st.wal.rotations},
          {"max_batch_records", st.wal.max_batch_records},
          {"next_lsn", st.wal_next_lsn},
          {"checkpoints", st.checkpoints},
          {"recoveries_run", st.recoveries_run},
          {"records_replayed", st.records_replayed},
          {"torn_tail_truncations", st.torn_tail_truncations},
          {"txns_committed", st.txns_committed},
          {"txns_rolled_back", st.txns_rolled_back},
          {"txn_records_discarded", st.txn_records_discarded}};
}

// The prepared-statement plan cache. The stats query is itself a
// SELECT: with the cache on it takes one miss of its own the first time
// a session runs it.
Metrics PlanMetrics(const Database& db) {
  const PlanCacheStats& st = db.plan_cache_stats();
  return {{"hits", Load(st.hits)},
          {"misses", Load(st.misses)},
          {"invalidations", Load(st.invalidations)},
          {"evictions", Load(st.evictions)},
          {"entries", db.plan_cache_entries()},
          {"capacity", db.plan_cache_capacity()},
          {"catalog_version", db.catalog_version()}};
}

// Integrity: scrubs and what they found.
Metrics HealthMetrics(const Database& db) {
  const IntegrityStats st = db.integrity_stats();
  return {{"scrubs_run", st.scrubs_run},
          {"objects_checked", st.objects_checked},
          {"corruptions_found", st.corruptions_found},
          {"quarantined", st.tables_quarantined},
          {"scrub_ticks", st.scrub_ticks},
          {"manifest_entries", db.corruption_manifest().size()}};
}

// The TCP server front-end: session admission, wire volume, drains,
// fail-stop session deaths and the shared/exclusive gate. Gate waits
// accumulate in microseconds and are reported in milliseconds.
Metrics ServerMetrics(const Database& db) {
  const ServerStatsCounters& sv = db.server_stats();
  return {{"sessions_active", Load(sv.sessions_active)},
          {"sessions_peak", Load(sv.sessions_peak)},
          {"sessions_total", Load(sv.sessions_total)},
          {"sessions_rejected", Load(sv.sessions_rejected)},
          {"statements_served", Load(sv.statements_served)},
          {"bytes_in", Load(sv.bytes_in)},
          {"bytes_out", Load(sv.bytes_out)},
          {"drains", Load(sv.drains)},
          {"session_aborts", Load(sv.session_aborts)},
          {"cancels_received", Load(sv.cancels_received)},
          {"idle_timeouts", Load(sv.idle_timeouts)},
          {"wire_faults", Load(sv.wire_faults)},
          {"gate_shared", Load(sv.gate_shared)},
          {"gate_exclusive", Load(sv.gate_exclusive)},
          {"gate_upgrades", Load(sv.gate_upgrades)},
          {"gate_wait_shared_ms", Load(sv.gate_wait_shared_us) / 1000},
          {"gate_wait_exclusive_ms", Load(sv.gate_wait_exclusive_us) / 1000},
          {"gate_busy_shared", Load(sv.gate_busy_shared)},
          {"gate_busy_exclusive", Load(sv.gate_busy_exclusive)}};
}

/// Builds a subsystem's list from its stats routine's leading arguments
/// (only tip_index_stats has any: the table and index names).
using MetricsSource =
    std::function<Result<Metrics>(DatumRefs args)>;

// <routine>(args...)            -> every counter, `name=value ...`
// <routine>(args..., 'counter') -> one counter as INT
// `decorate`, when set, adds the subsystem's non-counter text around
// the formatted counters.
Status RegisterMetrics(
    RoutineRegistry& reg, const char* routine, std::vector<TypeId> params,
    const char* subsystem, MetricsSource source,
    std::function<std::string(std::string counters)> decorate = nullptr) {
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      routine, params, TypeId::kString,
      [source, decorate](DatumRefs a, EvalContext&) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(Metrics metrics, source(a));
        std::string text = FormatMetrics(metrics);
        return Datum::String(decorate ? decorate(std::move(text)) : text);
      })));
  params.push_back(TypeId::kString);
  return reg.Register(MakeRoutine(
      routine, std::move(params), TypeId::kInt,
      [source, subsystem](DatumRefs a, EvalContext&) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(Metrics metrics, source(a));
        TIP_ASSIGN_OR_RETURN(
            uint64_t value,
            FindMetric(metrics, subsystem, a.back().string_value()));
        return Datum::Int(static_cast<int64_t>(value));
      }));
}

// tip_index_stats('table', 'index'), tip_guard_stats(), tip_wal_stats(),
// tip_plan_stats(), tip_health() and tip_server_stats(), each with a
// one-counter overload. Queryable from any session, remote or embedded.
Status RegisterStats(Database* db) {
  RoutineRegistry& reg = db->routines();
  const TypeId s = TypeId::kString;
  auto whole = [db](Metrics (*list)(const Database&)) -> MetricsSource {
    return [db, list](DatumRefs) -> Result<Metrics> {
      return list(*db);
    };
  };

  TIP_RETURN_IF_ERROR(RegisterMetrics(
      reg, "tip_index_stats", {s, s}, "index",
      [db](DatumRefs a) -> Result<Metrics> {
        const std::string& index = a[1].string_value();
        TIP_ASSIGN_OR_RETURN(const Table* table,
                             db->catalog().GetTable(a[0].string_value()));
        for (const IntervalIndexDef& def : table->interval_indexes()) {
          if (EqualsIgnoreCase(def.name, index)) {
            return IndexMetrics(def.stats());
          }
        }
        return Status::NotFound("index '" + index +
                                "' does not exist on '" + table->name() +
                                "'");
      }));
  TIP_RETURN_IF_ERROR(RegisterMetrics(reg, "tip_guard_stats", {}, "guard",
                                      whole(GuardMetrics)));
  TIP_RETURN_IF_ERROR(RegisterMetrics(
      reg, "tip_wal_stats", {}, "wal", whole(WalMetrics),
      [db](std::string counters) {
        return "mode=" + std::string(WalModeName(db->wal_mode())) + " " +
               counters;
      }));
  TIP_RETURN_IF_ERROR(RegisterMetrics(reg, "tip_plan_stats", {}, "plan",
                                      whole(PlanMetrics)));
  // tip_health() follows its counters with the quarantine list and the
  // corruption manifest.
  TIP_RETURN_IF_ERROR(RegisterMetrics(
      reg, "tip_health", {}, "health", whole(HealthMetrics),
      [db](std::string out) {
        for (const auto& [name, cause] : db->catalog().QuarantineList()) {
          out += " [" + name + ": " + cause + "]";
        }
        for (const CorruptionManifestEntry& entry :
             db->corruption_manifest()) {
          out += " {" + entry.object + " @ " + entry.file;
          if (entry.lsn != 0) out += " lsn=" + std::to_string(entry.lsn);
          if (entry.offset != 0) {
            out += " offset=" + std::to_string(entry.offset);
          }
          out += ": " + entry.cause + "}";
        }
        return out;
      }));
  return RegisterMetrics(reg, "tip_server_stats", {}, "server",
                         whole(ServerMetrics));
}

// tip_sleep_ms(n) -> n after sleeping ~n milliseconds in 1ms slices,
// checking the statement guard between slices. Exists so tests and
// demos can hold a statement open long enough to cancel or time it out
// deterministically.
Status RegisterSleep(Database* db) {
  return db->routines().Register(MakeRoutine(
      "tip_sleep_ms", {TypeId::kInt}, TypeId::kInt,
      [](DatumRefs a, EvalContext& eval) -> Result<Datum> {
        const int64_t ms = a[0].int_value();
        for (int64_t slept = 0; slept < ms; ++slept) {
          TIP_RETURN_IF_ERROR(eval.CheckGuardNow());
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        TIP_RETURN_IF_ERROR(eval.CheckGuardNow());
        return Datum::Int(ms);
      }));
}

// tip_checkpoint() -> takes a checkpoint, returns the checkpoint count
// tip_sync_wal()   -> forces the WAL to stable storage
Status RegisterDurability(Database* db) {
  RoutineRegistry& reg = db->routines();

  // tip_checkpoint() lets the torture harness (and operators) force a
  // snapshot + WAL truncation through plain SQL over the C API.
  TIP_RETURN_IF_ERROR(reg.Register(SerialOnly(MakeRoutine(
      "tip_checkpoint", {}, TypeId::kInt,
      [db](DatumRefs, EvalContext&) -> Result<Datum> {
        TIP_RETURN_IF_ERROR(db->Checkpoint());
        return Datum::Int(
            static_cast<int64_t>(db->durability_stats().checkpoints));
      }))));

  // tip_sync_wal() forces the WAL to stable storage: the SQL form of
  // client::Connection::SyncWal on either transport.
  TIP_RETURN_IF_ERROR(reg.Register(SerialOnly(MakeRoutine(
      "tip_sync_wal", {}, TypeId::kInt,
      [db](DatumRefs, EvalContext&) -> Result<Datum> {
        TIP_RETURN_IF_ERROR(db->SyncWal());
        return Datum::Int(0);
      }))));
  return Status::OK();
}

// tip_verify()            -> one-line online scrub verdict (all tables)
// tip_verify_dir('path')  -> offline deep-scan of a durable directory
// The integrity subsystem's routines (its counters are tip_health()).
// tip_verify() is the scalar twin of CHECK DATABASE; tip_verify_dir()
// validates a directory *without* attaching it (no replay, no
// truncation — safe to point at a directory another process owns).
Status RegisterIntegrity(Database* db) {
  RoutineRegistry& reg = db->routines();
  const TypeId s = TypeId::kString;

  TIP_RETURN_IF_ERROR(reg.Register(SerialOnly(MakeRoutine(
      "tip_verify", {}, s,
      [db](DatumRefs, EvalContext& eval) -> Result<Datum> {
        uint64_t objects = 0;
        uint64_t corruptions = 0;
        std::string bad;
        for (const std::string& name : db->catalog().TableNames()) {
          ++objects;
          Result<Table*> table = db->catalog().GetTable(name);
          if (!table.ok()) {
            if (table.status().code() != StatusCode::kCorruption) {
              continue;  // dropped since TableNames — not corruption
            }
            ++corruptions;
            if (!bad.empty()) bad += "; ";
            bad += name + ": quarantined";
            continue;
          }
          TIP_ASSIGN_OR_RETURN(CheckFinding finding,
                               CheckTable(db, *table, &eval));
          if (!finding.ok) {
            ++corruptions;
            if (!bad.empty()) bad += "; ";
            bad += name + ": " + finding.detail;
          }
        }
        for (const auto& [qname, cause] : db->catalog().QuarantineList()) {
          Result<Table*> present = db->catalog().GetTableAnyState(qname);
          if (present.ok()) continue;  // counted above
          ++objects;
          ++corruptions;
          if (!bad.empty()) bad += "; ";
          bad += qname + ": quarantined (no storage)";
        }
        if (db->durable()) {
          ++objects;
          const CheckFinding wal = CheckWal(db->durable_dir());
          if (!wal.ok) {
            ++corruptions;
            if (!bad.empty()) bad += "; ";
            bad += "wal: " + wal.detail;
          }
        }
        db->RecordScrub(objects, corruptions);
        if (corruptions == 0) {
          return Datum::String("ok objects=" + std::to_string(objects));
        }
        return Datum::String("corrupt=" + std::to_string(corruptions) +
                             " objects=" + std::to_string(objects) + ": " +
                             bad);
      }))));

  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "tip_verify_dir", {s}, s,
      [](DatumRefs a, EvalContext&) -> Result<Datum> {
        OfflineVerifyReport report;
        TIP_RETURN_IF_ERROR(VerifyDurableDir(a[0].string_value(), &report));
        std::string out =
            report.clean() ? "clean" : std::string("corrupt");
        out += " snapshot_sections=" +
               std::to_string(report.snapshot_sections) +
               " wal_records=" + std::to_string(report.wal_records);
        if (report.torn_tail) out += " torn_tail";
        if (report.open_txn_tail) out += " open_txn_tail";
        for (const std::string& problem : report.problems) {
          out += " [" + problem + "]";
        }
        return Datum::String(out);
      })));
  return Status::OK();
}

}  // namespace

Status RegisterBuiltins(Database* db) {
  TIP_RETURN_IF_ERROR(RegisterArithmetic(db));
  TIP_RETURN_IF_ERROR(RegisterCasts(db));
  TIP_RETURN_IF_ERROR(RegisterAggregates(db));
  TIP_RETURN_IF_ERROR(RegisterStats(db));
  TIP_RETURN_IF_ERROR(RegisterSleep(db));
  TIP_RETURN_IF_ERROR(RegisterDurability(db));
  TIP_RETURN_IF_ERROR(RegisterIntegrity(db));
  return Status::OK();
}

}  // namespace tip::engine
