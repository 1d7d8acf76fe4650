// Type-erased, immutable message/output body.
//
// Protocol modules define plain structs for their messages (e.g. the
// paper's promote(v, l) or update(CG_i)) and box them in a Payload. A
// Payload is cheap to copy (shared immutable box), which matters because
// the paper's send primitive broadcasts the same message to all n
// processes.
#pragma once

#include <any>
#include <memory>
#include <utility>

namespace wfd {

/// Immutable type-erased value. Empty by default.
class Payload {
 public:
  Payload() = default;

  /// Boxes a value. The stored copy is immutable.
  template <typename T>
  static Payload of(T value) {
    Payload p;
    p.box_ = std::make_shared<const std::any>(std::move(value));
    return p;
  }

  /// Returns a pointer to the stored value if it has exactly type T,
  /// nullptr otherwise (including for the empty payload).
  template <typename T>
  const T* as() const {
    if (!box_) return nullptr;
    return std::any_cast<T>(box_.get());
  }

  /// True iff this payload holds a value of exactly type T.
  template <typename T>
  bool holds() const {
    return as<T>() != nullptr;
  }

  bool empty() const { return !box_; }

 private:
  std::shared_ptr<const std::any> box_;
};

}  // namespace wfd
