// FNV-1a digests over test results, field by field, so a pinned value
// catches any drift in a result's bits (struct padding never enters the
// hash).  Suites that hash their own structs derive from FnvDigest and
// add overloads that fold each field in turn.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace bcn::testing {

template <typename Self>
class FnvDigest {
 public:
  template <typename T>
  Self& add(const T& value) {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
    const auto* p = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
    return static_cast<Self&>(*this);
  }

  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

// The digest of plain numbers and enums.
class Digest : public FnvDigest<Digest> {};

}  // namespace bcn::testing
