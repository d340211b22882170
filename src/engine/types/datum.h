#ifndef TIP_ENGINE_TYPES_DATUM_H_
#define TIP_ENGINE_TYPES_DATUM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace tip::engine {

/// Identifies a SQL type known to the engine. The engine core ships only
/// the classic relational scalars; everything else — including all five
/// TIP temporal types — enters through TypeRegistry::RegisterType, which
/// hands out ids starting at `kFirstExtensionTypeId`. This is the moral
/// equivalent of an Informix DataBlade's "opaque type".
enum class TypeId : int32_t {
  kNull = 0,    // the type of a bare NULL literal
  kBool = 1,
  kInt = 2,     // 64-bit signed
  kDouble = 3,
  kString = 4,  // CHAR/VARCHAR; the engine does not enforce lengths
};

inline constexpr int32_t kFirstExtensionTypeId = 100;

/// True for ids handed out by TypeRegistry::RegisterType.
inline bool IsExtensionType(TypeId id) {
  return static_cast<int32_t>(id) >= kFirstExtensionTypeId;
}

/// Base class for extension-type payloads stored inside a Datum. A
/// DataBlade wraps its C values (Chronon, Element, ...) in a
/// TypedPayload<T> and the engine moves them around opaquely.
class ExtensionPayload {
 public:
  virtual ~ExtensionPayload() = default;
};

template <typename T>
class TypedPayload final : public ExtensionPayload {
 public:
  explicit TypedPayload(T value) : value_(std::move(value)) {}
  const T& value() const { return value_; }

 private:
  T value_;
};

/// A single SQL value: NULL, one of the builtin scalars, or an opaque
/// extension value (shared, immutable payload). Copying a Datum is cheap
/// for scalars and a refcount bump for extension values.
class Datum {
 public:
  /// Constructs SQL NULL (of the untyped kNull type).
  Datum() : type_id_(TypeId::kNull) {}

  static Datum Null() { return Datum(); }
  /// A NULL carrying a concrete type (e.g. an INT column's NULL).
  static Datum NullOf(TypeId id) {
    Datum d;
    d.type_id_ = id;
    return d;
  }
  static Datum Bool(bool v) { return Datum(TypeId::kBool, v); }
  static Datum Int(int64_t v) { return Datum(TypeId::kInt, v); }
  static Datum Double(double v) { return Datum(TypeId::kDouble, v); }
  static Datum String(std::string v) {
    return Datum(TypeId::kString, std::move(v));
  }
  static Datum Extension(TypeId id,
                         std::shared_ptr<const ExtensionPayload> payload) {
    return Datum(id, std::move(payload));
  }
  /// Wraps `value` in a TypedPayload<T> under extension type `id`.
  template <typename T>
  static Datum Make(TypeId id, T value) {
    return Extension(id, std::make_shared<TypedPayload<T>>(std::move(value)));
  }

  TypeId type_id() const { return type_id_; }
  bool is_null() const {
    return std::holds_alternative<std::monostate>(value_);
  }

  /// Typed accessors. Preconditions: !is_null() and matching type.
  bool bool_value() const { return std::get<bool>(value_); }
  int64_t int_value() const { return std::get<int64_t>(value_); }
  double double_value() const { return std::get<double>(value_); }
  const std::string& string_value() const {
    return std::get<std::string>(value_);
  }
  const ExtensionPayload& payload() const {
    return *std::get<std::shared_ptr<const ExtensionPayload>>(value_);
  }

  /// Unwraps an extension payload of known C++ type. Precondition: the
  /// datum holds a TypedPayload<T> (guaranteed after binder type checks).
  template <typename T>
  const T& extension() const {
    return static_cast<const TypedPayload<T>&>(payload()).value();
  }

 private:
  template <typename V>
  Datum(TypeId id, V v) : type_id_(id), value_(std::move(v)) {}

  TypeId type_id_;
  std::variant<std::monostate, bool, int64_t, double, std::string,
               std::shared_ptr<const ExtensionPayload>>
      value_;
};

/// A stored or in-flight tuple.
using Row = std::vector<Datum>;

/// A borrowed, read-only list of values that live elsewhere: a routine's
/// arguments, or the group keys an aggregate probes with. The values
/// belong to the caller and stay valid for the call that receives the
/// view; copy any value kept beyond it.
class DatumRefs {
 public:
  DatumRefs(const Datum* const* values, size_t size)
      : values_(values), size_(size) {}

  size_t size() const { return size_; }
  const Datum& operator[](size_t i) const { return *values_[i]; }
  const Datum& back() const { return *values_[size_ - 1]; }

 private:
  const Datum* const* values_;
  size_t size_;
};

}  // namespace tip::engine

#endif  // TIP_ENGINE_TYPES_DATUM_H_
