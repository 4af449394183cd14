// An ArgParser over the flags a tool's main would see after its name.
#pragma once

#include <initializer_list>
#include <vector>

#include "common/args.h"

namespace bcn::testing {

inline ArgParser parse_args(std::initializer_list<const char*> argv) {
  std::vector<const char*> full{"prog"};
  full.insert(full.end(), argv.begin(), argv.end());
  return ArgParser(static_cast<int>(full.size()), full.data());
}

}  // namespace bcn::testing
