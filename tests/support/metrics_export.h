// A registry's metrics as write_json exports them, read back the way
// bcn_bench_diff reads an artifact: a gauge is number(name), a histogram
// number(name + ".count"), and a metric never made has no key.
#pragma once

#include "common/json.h"
#include "obs/metrics.h"

namespace bcn::testing {

inline FlatJson exported(const obs::MetricsRegistry& registry) {
  JsonWriter json;
  registry.write_json(json, "");
  return FlatJson::parse(json.to_string()).value();
}

}  // namespace bcn::testing
