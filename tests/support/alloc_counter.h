// Allocation counting for the zero-allocation assertions.  Linking
// alloc_counter.cpp into a test binary replaces the global operator
// new/delete (plain and nothrow forms) with malloc/free wrappers that
// count calls to new while an AllocationCounter is alive.  Counting is
// off outside a guard, so the gtest machinery's own allocations never
// pollute a measurement.
#pragma once

#include <cstdint>

namespace bcn::testing {

// Scoped guard: resets the count and starts counting on construction,
// stops on destruction.  The count is process-wide; keep one guard alive
// at a time.
class AllocationCounter {
 public:
  AllocationCounter();
  ~AllocationCounter();
  AllocationCounter(const AllocationCounter&) = delete;
  AllocationCounter& operator=(const AllocationCounter&) = delete;

  // operator new calls since construction, from any thread.
  std::uint64_t count() const;
};

}  // namespace bcn::testing
