// Allocation pins of the verdict request path.  Counts of operator new
// repeat on any host, so a lost saving on a hit or a miss fails here and
// not only in a benchmark.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "alloc_counter.h"
#include "service/protocol.h"
#include "service/verdict_cache.h"

namespace bcn::service {
namespace {

// The shape of the service workload's lines: a and b at %.17g, nothing
// else, so every other field takes its default.
const std::string kHotLine =
    "{\"op\":\"verdict\",\"a\":1234567890.1234567,\"b\":0.0078125123456789}";

Request must_parse(const std::string& line) {
  std::string error;
  auto request = parse_request(line, &error);
  EXPECT_TRUE(request) << error;
  return request.value_or(Request{});
}

// One map node for "op" and one for each number, one key string and one
// copy of the body out of the cache; then one reply line.
TEST(ServiceAllocations, HotVerdictLineAllocatesSixTimes) {
  VerdictCache cache(VerdictCache::Config{}, nullptr);
  const Request warm = must_parse(kHotLine);
  cache.put(cache_key(warm), execute(warm, ServiceOptions{}, nullptr).body);

  std::uint64_t lookup = 0;
  std::uint64_t reply = 0;
  {
    testing::AllocationCounter counter;
    std::string error;
    const auto request = parse_request(kHotLine, &error);
    const std::string key = cache_key(*request);
    const auto body = cache.get(key);
    lookup = counter.count();
    ASSERT_TRUE(body.has_value());
    const std::string line = response_line(request->id, *body);
    reply = counter.count() - lookup;
  }
  EXPECT_LE(lookup, 5u);
  EXPECT_LE(reply, 1u);
}

TEST(ServiceAllocations, ColdVerdictExecuteAllocatesAtMost34Times) {
  // A first execution sets up the statics (mechanism registry, defaults).
  execute(must_parse("{\"op\":\"verdict\"}"), ServiceOptions{}, nullptr);
  const Request cold = must_parse(kHotLine);

  std::uint64_t allocations = 0;
  {
    testing::AllocationCounter counter;
    const ExecResult result = execute(cold, ServiceOptions{}, nullptr);
    allocations = counter.count();
    ASSERT_FALSE(result.error);
  }
  EXPECT_LE(allocations, 34u);
}

}  // namespace
}  // namespace bcn::service
