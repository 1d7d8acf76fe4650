// Type-erased, immutable message/output body.
//
// Protocol modules define plain structs for their messages (e.g. the
// paper's promote(v, l) or update(CG_i)) and box them in a Payload. A
// Payload is cheap to copy (copies share one box), which matters because
// the paper's send primitive broadcasts the same message to all n
// processes.
//
// The box is one heap block: make_shared places the reference counts, a
// per-type tag and the value side by side. as<T>() compares the tag's
// address with T's, so a failed type test (handlers try several message
// types in turn) is one pointer compare. The tag is an inline variable
// template, which the linker merges into one object per type per
// program. That holds because `wfd` is a static library linked into each
// executable; a build that split the boxing and unboxing sides across
// shared objects with hidden symbols would need a different tag.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace wfd {

namespace detail {
/// One object per boxed type; its address is the type's tag. Not const,
/// so no constant merging can give two types one address.
template <typename T>
inline char payloadTag = 0;
}  // namespace detail

/// Immutable type-erased value. Empty by default.
class Payload {
 public:
  Payload() = default;

  /// Boxes a value. The stored copy is immutable.
  template <typename T>
  static Payload of(T value) {
    Payload p;
    p.box_ = std::make_shared<const Box<T>>(std::move(value));
    return p;
  }

  /// Returns a pointer to the stored value if it has exactly type T,
  /// nullptr otherwise (including for the empty payload). Like
  /// std::any_cast, cv-qualifiers on T are ignored and a base or a
  /// layout-identical type does not match.
  template <typename T>
  const T* as() const {
    using U = std::remove_cv_t<T>;
    if (!box_ || box_->tag != &detail::payloadTag<U>) return nullptr;
    return &static_cast<const Box<U>*>(box_.get())->value;
  }

  /// True iff this payload holds a value of exactly type T.
  template <typename T>
  bool holds() const {
    return as<T>() != nullptr;
  }

  bool empty() const { return !box_; }

 private:
  /// The part of every box that as<T>() reads before knowing T.
  struct BoxHead {
    const char* tag;
  };
  template <typename T>
  struct Box final : BoxHead {
    explicit Box(T v) : BoxHead{&detail::payloadTag<T>}, value(std::move(v)) {}
    T value;
  };

  std::shared_ptr<const BoxHead> box_;
};

}  // namespace wfd
