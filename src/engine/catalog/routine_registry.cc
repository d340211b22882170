#include "engine/catalog/routine_registry.h"

#include <algorithm>

#include "common/string_util.h"

namespace tip::engine {

namespace {

// A bare NULL literal (type kNull) is acceptable for any parameter type
// without a cast; strict routines will short-circuit it to NULL anyway.
bool ExactMatch(const Routine& r, const std::vector<TypeId>& args) {
  if (r.params.size() != args.size()) return false;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] != r.params[i] && args[i] != TypeId::kNull) return false;
  }
  return true;
}

// Returns true and fills `out_casts` and `cast_count` iff every
// argument either matches the parameter type or has an implicit cast
// to it.
bool CastMatch(const Routine& r, const std::vector<TypeId>& args,
               const CastRegistry& casts,
               std::vector<const Cast*>* out_casts, size_t* cast_count) {
  if (r.params.size() != args.size()) return false;
  std::vector<const Cast*> chosen(args.size(), nullptr);
  size_t count = 0;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == r.params[i] || args[i] == TypeId::kNull) continue;
    const Cast* c = casts.Find(args[i], r.params[i],
                               /*require_implicit=*/true);
    if (c == nullptr) return false;
    chosen[i] = c;
    ++count;
  }
  *out_casts = std::move(chosen);
  *cast_count = count;
  return true;
}

std::string SignatureString(std::string_view name,
                            const std::vector<TypeId>& args,
                            const TypeRegistry* types) {
  std::string out(name);
  out += "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ", ";
    if (types != nullptr) {
      out += types->Get(args[i]).name;
    } else {
      out += std::to_string(static_cast<int32_t>(args[i]));
    }
  }
  out += ")";
  return out;
}

}  // namespace

Status RoutineRegistry::Register(Routine routine) {
  routine.name = ToLowerAscii(routine.name);
  for (const Routine& existing : routines_) {
    if (existing.name == routine.name &&
        existing.params == routine.params) {
      return Status::AlreadyExists("routine '" + routine.name +
                                   "' already has this signature");
    }
  }
  if (routine.serial_only) {
    std::lock_guard<std::mutex> lock(serial_only_mu_);
    serial_only_.insert(routine.name);
  }
  routines_.push_back(std::move(routine));
  NotifyChanged();
  return Status::OK();
}

Result<ResolvedRoutine> RoutineRegistry::Resolve(
    std::string_view name, const std::vector<TypeId>& arg_types,
    const CastRegistry& casts, const TypeRegistry* types) const {
  const std::string lower = ToLowerAscii(name);
  bool name_seen = false;

  // Pass 1: exact signature match.
  for (const Routine& r : routines_) {
    if (r.name != lower) continue;
    name_seen = true;
    if (ExactMatch(r, arg_types)) {
      ResolvedRoutine resolved;
      resolved.routine = &r;
      resolved.arg_casts.assign(arg_types.size(), nullptr);
      return resolved;
    }
  }

  // Pass 2: the candidate reachable through the fewest implicit casts
  // wins; a tie at the minimum is ambiguous.
  const Routine* candidate = nullptr;
  std::vector<const Cast*> candidate_casts;
  size_t best_count = 0;
  bool tied = false;
  for (const Routine& r : routines_) {
    if (r.name != lower) continue;
    std::vector<const Cast*> arg_casts;
    size_t count = 0;
    if (!CastMatch(r, arg_types, casts, &arg_casts, &count)) continue;
    if (candidate == nullptr || count < best_count) {
      candidate = &r;
      candidate_casts = std::move(arg_casts);
      best_count = count;
      tied = false;
    } else if (count == best_count) {
      tied = true;
    }
  }
  if (candidate != nullptr) {
    if (tied) {
      return Status::TypeError(
          "call to " + SignatureString(lower, arg_types, types) +
          " is ambiguous: multiple overloads match through implicit casts");
    }
    ResolvedRoutine resolved;
    resolved.routine = candidate;
    resolved.arg_casts = std::move(candidate_casts);
    return resolved;
  }

  if (!name_seen) {
    return Status::NotFound("unknown routine '" + lower + "'");
  }
  return Status::TypeError("no overload of '" + lower +
                           "' matches the argument types " +
                           SignatureString(lower, arg_types, types));
}

Status RoutineRegistry::Remove(std::string_view name,
                               const std::vector<TypeId>& params) {
  const std::string lower = ToLowerAscii(name);
  auto it = std::ranges::find_if(routines_, [&](const Routine& r) {
    return r.name == lower && r.params == params;
  });
  if (it == routines_.end()) {
    return Status::NotFound("no routine '" + lower +
                            "' with this signature");
  }
  routines_.erase(it);
  // The name stays serial-only while another overload still is.
  if (std::ranges::none_of(routines_, [&](const Routine& r) {
        return r.name == lower && r.serial_only;
      })) {
    std::lock_guard<std::mutex> lock(serial_only_mu_);
    serial_only_.erase(lower);
  }
  NotifyChanged();
  return Status::OK();
}

bool RoutineRegistry::Exists(std::string_view name) const {
  const std::string lower = ToLowerAscii(name);
  for (const Routine& r : routines_) {
    if (r.name == lower) return true;
  }
  return false;
}

std::vector<const Routine*> RoutineRegistry::Overloads(
    std::string_view name) const {
  const std::string lower = ToLowerAscii(name);
  std::vector<const Routine*> out;
  for (const Routine& r : routines_) {
    if (r.name == lower) out.push_back(&r);
  }
  return out;
}

bool RoutineRegistry::SerialOnly(std::string_view name) const {
  const std::string lower = ToLowerAscii(name);
  std::lock_guard<std::mutex> lock(serial_only_mu_);
  return serial_only_.count(lower) > 0;
}

}  // namespace tip::engine
