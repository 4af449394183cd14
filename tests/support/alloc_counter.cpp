#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

// Atomics keep the replacement safe under the TSan job, which runs the
// suites that link it.
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_count{0};

void note_allocation() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_count.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

void* operator new(std::size_t size) {
  note_allocation();
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// The nothrow form too (std::stable_sort's temporary buffer comes from
// it): left to the runtime, it would hand sanitizer-owned memory to the
// replaced delete below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  note_allocation();
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace bcn::testing {

AllocationCounter::AllocationCounter() {
  g_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
}

AllocationCounter::~AllocationCounter() {
  g_counting.store(false, std::memory_order_relaxed);
}

std::uint64_t AllocationCounter::count() const {
  return g_count.load(std::memory_order_relaxed);
}

}  // namespace bcn::testing
