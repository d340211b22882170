#ifndef TIP_ENGINE_CATALOG_ROUTINE_REGISTRY_H_
#define TIP_ENGINE_CATALOG_ROUTINE_REGISTRY_H_

#include <deque>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "engine/catalog/cast_registry.h"
#include "engine/types/datum.h"
#include "engine/types/eval_context.h"
#include "engine/types/type.h"

namespace tip::engine {

/// Implementation of one routine overload. Arguments arrive already cast
/// to the declared parameter types, borrowed: `a[i]` refers to the
/// evaluated argument in place (a column of the tuple, a parameter, a
/// constant or the caller's scratch slot), valid until the routine
/// returns. A routine that returns one of its arguments returns a copy.
using RoutineFn = std::function<Result<Datum>(DatumRefs, EvalContext&)>;

/// One registered routine overload. Operators are ordinary routines whose
/// name is the operator symbol ("+", "-", "*", "/", "||"), which is
/// exactly how an extensible DBMS models operator overloading: the TIP
/// DataBlade "overloads built-in arithmetic operators" by registering
/// more overloads under the same names.
struct Routine {
  std::string name;             // lower-case
  std::vector<TypeId> params;
  TypeId result;
  RoutineFn fn;
  /// Strict routines return NULL without being invoked when any argument
  /// is NULL (the SQL default).
  bool strict = true;
  /// True for a routine that changes database state (a checkpoint, a
  /// WAL sync, a scrub) and for every CREATE FUNCTION routine,
  /// whose body can call one. A statement that calls it scans serially,
  /// so the routine never runs on two threads at once, and the server
  /// runs it as a writer.
  bool serial_only = false;
};

/// A routine selected by overload resolution, together with the implicit
/// casts the caller must apply to each argument (nullptr = no cast).
struct ResolvedRoutine {
  const Routine* routine = nullptr;
  std::vector<const Cast*> arg_casts;
};

/// Name-addressable routine catalog with Informix-style overload
/// resolution:
///   1. an exact signature match wins;
///   2. otherwise the candidate reachable through the fewest implicit
///      casts wins — zero candidates is a TypeError ("Chronon + Chronon
///      returns a type error", as the paper puts it) and a tie at the
///      minimum cast count is an ambiguity error.
class RoutineRegistry {
 public:
  RoutineRegistry() = default;

  RoutineRegistry(const RoutineRegistry&) = delete;
  RoutineRegistry& operator=(const RoutineRegistry&) = delete;

  /// Registers an overload; AlreadyExists if the exact signature is
  /// already present under the (case-insensitive) name.
  Status Register(Routine routine);

  /// Resolves `name(arg_types...)` against the catalog. `casts` supplies
  /// the implicit-cast graph; `types`, when given, improves error
  /// messages with type names.
  Result<ResolvedRoutine> Resolve(std::string_view name,
                                  const std::vector<TypeId>& arg_types,
                                  const CastRegistry& casts,
                                  const TypeRegistry* types = nullptr) const;

  /// Removes the overload with exactly this signature; NotFound if
  /// none. Used by DROP FUNCTION (the caller is responsible for
  /// restricting removal to SQL-created routines).
  Status Remove(std::string_view name, const std::vector<TypeId>& params);

  /// True iff any overload is registered under `name`.
  bool Exists(std::string_view name) const;

  /// Every overload registered under `name` (catalog introspection).
  std::vector<const Routine*> Overloads(std::string_view name) const;

  /// True iff an overload registered under `name` is serial_only. Safe
  /// from any thread, also while another thread registers or removes a
  /// routine: the server classifies a statement by it before it takes
  /// the gate that orders it after a CREATE FUNCTION.
  bool SerialOnly(std::string_view name) const;

  /// Invoked after every successful Register/Remove. The Database routes
  /// this to its catalog-version bump: cached plans hold the raw Routine
  /// pointers Resolve handed out, and Remove erases their storage.
  void SetChangeListener(std::function<void()> fn) {
    on_change_ = std::move(fn);
  }

 private:
  void NotifyChanged() {
    if (on_change_) on_change_();
  }

  // A deque keeps Routine addresses stable across Register calls:
  // ResolvedRoutine hands out raw pointers that bound expressions hold
  // for the duration of a statement.
  std::deque<Routine> routines_;
  std::function<void()> on_change_;
  // The names with a serial_only overload, lower-case.
  mutable std::mutex serial_only_mu_;
  std::set<std::string> serial_only_;
};

}  // namespace tip::engine

#endif  // TIP_ENGINE_CATALOG_ROUTINE_REGISTRY_H_
