// bcn_perfbench: the repo benchmark program.
//
//   bcn_perfbench --workload map|fabric|service --seed N --seconds S
//                 --trace 0|1 [--setup-only] [--corrupt-reference]
//
// --trace 0 runs one workload end to end with tracing off and reports
// the end-to-end metrics.  --trace 1 runs the traced layer census over
// every workload's inputs (the per-layer metrics name several workloads'
// layers) and writes a Chrome trace for Perfetto to kTraceDir.  The last stdout line
// is the result JSON: {"correct", "attempted", "failed", "metrics"}.
// perfbench/run.py builds this binary and is the intended entry point.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "exec/thread_pool.h"
#include "workloads.h"

namespace {

using perfbench::Options;

// Inside the build tree, which the repository ignores.
constexpr const char* kTraceDir = ".bench_build/traces";

int usage_error(const std::string& message) {
  std::fprintf(stderr,
               "bcn_perfbench: %s\n"
               "usage: bcn_perfbench --workload map|fabric|service --seed N "
               "--seconds S --trace 0|1 [--setup-only] "
               "[--corrupt-reference]\n",
               message.c_str());
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.size() > 19) return false;
  std::uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      o.setup_only = true;
      continue;
    }
    if (flag == "--corrupt-reference") {
      o.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) return usage_error("missing value for " + flag);
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed" && parse_u64(value, &n)) {
      o.seed = n;
    } else if (flag == "--seconds" && parse_u64(value, &n) && n > 0 &&
               n <= 600) {
      o.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      o.trace = value == "1";
    } else {
      return usage_error("bad flag or value: " + flag + " " + value);
    }
  }
  if (o.workload != "map" && o.workload != "fabric" &&
      o.workload != "service") {
    return usage_error("--workload must be map, fabric or service");
  }

  std::printf("host: hardware_threads=%d compiler=\"%s\" build_type=%s\n",
              bcn::exec::hardware_threads(), __VERSION__,
              PERFBENCH_BUILD_TYPE);
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);

  perfbench::Result result;
  try {
    if (o.trace) {
      bcn::obs::tracing_set_thread_name("main");
      result.merge(perfbench::trace_map(o));
      result.merge(perfbench::trace_fabric(o));
      result.merge(perfbench::trace_service(o));
      const auto path = std::filesystem::path(kTraceDir) /
                        ("trace_" + o.workload + "_seed" +
                         std::to_string(o.seed) + ".json");
      if (!bcn::obs::write_chrome_trace(path, bcn::obs::tracing_spans())) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return 1;
      }
      std::printf("chrome trace: %zu spans -> %s\n",
                  bcn::obs::tracing_spans().size(), path.c_str());
    } else if (o.workload == "map") {
      result = perfbench::run_map(o);
    } else if (o.workload == "fabric") {
      result = perfbench::run_fabric(o);
    } else {
      result = perfbench::run_service(o);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bcn_perfbench: %s\n", e.what());
    return 1;
  }
  perfbench::print_result(result);
  return 0;
}
