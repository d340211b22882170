#ifndef TIP_ENGINE_EXEC_PREPARED_PLAN_H_
#define TIP_ENGINE_EXEC_PREPARED_PLAN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/exec/planner.h"
#include "engine/sql/ast.h"
#include "engine/types/datum.h"

namespace tip::engine {

/// Counters for the prepared-statement / plan-cache layer, surfaced in
/// SQL as tip_plan_stats(). Atomics: concurrent read-only sessions bump
/// them while stats readers poll.
struct PlanCacheStats {
  /// Executions that reused a cached operator tree.
  std::atomic<uint64_t> hits{0};
  /// Executions that had to plan (first use, new parameter-type
  /// signature, changed session settings, or a busy cached tree).
  std::atomic<uint64_t> misses{0};
  /// Plan variants discarded because the catalog changed under them
  /// (DDL, function registration, ATTACH, wal_mode re-baseline).
  std::atomic<uint64_t> invalidations{0};
  /// Entries or variants dropped by capacity limits (LRU overflow).
  std::atomic<uint64_t> evictions{0};
};

/// A prepared statement: SQL parsed once, plus — for SELECTs — lazily
/// planned operator-tree variants that later executions reuse.
///
/// The text and AST are immutable after Prepare, so a handle can be
/// shared freely between the Database's text-keyed cache and any number
/// of client Statement handles. The variant list is an internal cache
/// guarded by a mutex; a variant is reused only when its catalog
/// version, session-settings fingerprint and parameter-type signature
/// all match the executing session's, so DDL or SET changes re-plan
/// instead of executing a tree holding dangling catalog pointers
/// (cached plans hold raw Table*/Routine*/Cast* resolved at plan time).
///
/// NOW-relative plans are *not* invalidated by time passing or SET NOW:
/// nothing NOW-dependent is folded at plan time — every execution
/// builds a fresh EvalContext whose TxContext re-grounds NOW, as the
/// interval index evaluates its NOW-free keys at each view's NOW.
class PreparedPlan {
 public:
  /// One planned incarnation of the statement. Operator trees are
  /// re-executable (Open fully re-initializes) but carry per-run
  /// cursors and hash tables, so exec_mu grants the tree to one
  /// execution at a time; contenders plan a transient tree instead.
  struct Variant {
    uint64_t catalog_version = 0;
    std::string settings_fingerprint;
    std::string param_signature;
    /// Ordinal slot → parameter name, in order of first use. Each
    /// execution fills its slot vector from this once, keeping the
    /// name→Datum map off the per-row hot path.
    std::vector<std::string> slot_names;
    PlannedSelect plan;
    std::mutex exec_mu;
  };

  PreparedPlan(std::string sql, Statement stmt)
      : sql_(std::move(sql)), stmt_(std::move(stmt)) {}

  PreparedPlan(const PreparedPlan&) = delete;
  PreparedPlan& operator=(const PreparedPlan&) = delete;

  const std::string& sql() const { return sql_; }
  const Statement& stmt() const { return stmt_; }

  /// Returns the cached variant matching the caller's catalog version,
  /// settings fingerprint and parameter signature, or null. Variants
  /// planned under an older catalog version are dead forever (the
  /// version is monotonic) and are pruned here, counted as
  /// invalidations; in-flight executions keep theirs alive via the
  /// shared_ptr.
  std::shared_ptr<Variant> FindVariant(uint64_t catalog_version,
                                       const std::string& settings_fingerprint,
                                       const std::string& param_signature,
                                       PlanCacheStats* stats) const;

  /// Caches a freshly planned variant, evicting the least recently
  /// used one past kMaxVariants.
  void AddVariant(std::shared_ptr<Variant> variant,
                  PlanCacheStats* stats) const;

  /// Distinct plans kept per statement (different parameter-type
  /// signatures or session settings); beyond this, LRU.
  static constexpr size_t kMaxVariants = 8;

 private:
  std::string sql_;
  Statement stmt_;
  /// Guards variants_ only; executions hold the variant's own exec_mu.
  mutable std::mutex mu_;
  /// Most recently used last.
  mutable std::vector<std::shared_ptr<Variant>> variants_;
};

/// Builds the parameter-type signature a plan variant is keyed under:
/// every bound name with its type id, in map (= sorted) order. A rebind
/// that changes a parameter's type therefore re-plans rather than
/// evaluating a tree typed for the old binding.
std::string ParamSignature(
    const std::map<std::string, Datum, std::less<>>* params);

/// Shared LRU cache of PreparedPlans keyed on SQL text alone, so
/// repeated `Database::Execute` calls with the same text skip the lexer
/// and parser entirely and share planned variants with explicit Prepare
/// handles. Session settings key the variants, not the entries.
class PlanCache {
 public:
  std::shared_ptr<PreparedPlan> Lookup(const std::string& key);
  void Insert(const std::string& key, std::shared_ptr<PreparedPlan> plan,
              PlanCacheStats* stats);
  /// SET plan_cache_size n (evicts LRU entries beyond the new cap).
  void SetCapacity(size_t capacity, PlanCacheStats* stats);
  size_t capacity() const;
  size_t entries() const;

 private:
  void EvictToCapacityLocked(PlanCacheStats* stats);

  mutable std::mutex mu_;
  size_t capacity_ = 64;
  /// LRU order, least recently used first.
  std::list<std::pair<std::string, std::shared_ptr<PreparedPlan>>> lru_;
  std::unordered_map<std::string, decltype(lru_)::iterator> index_;
};

}  // namespace tip::engine

#endif  // TIP_ENGINE_EXEC_PREPARED_PLAN_H_
