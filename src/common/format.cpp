#include "common/format.h"

#include <cfloat>
#include <charconv>
#include <cstdio>

namespace bcn {

std::string vstrf(const char* fmt, std::va_list args) {
  // One vsnprintf into the stack buffer; a second, sized one only when the
  // text does not fit.
  char buf[512];
  std::va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(buf, sizeof(buf), fmt, args_copy);
  va_end(args_copy);
  if (needed <= 0) return {};
  const auto size = static_cast<std::size_t>(needed);
  if (size < sizeof(buf)) return std::string(buf, size);
  std::string out(size, '\0');
  std::vsnprintf(out.data(), size + 1, fmt, args);
  return out;
}

std::string strf(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::string out = vstrf(fmt, args);
  va_end(args);
  return out;
}

char* to_chars_g(char (&buf)[kGChars], double v, int precision) {
  return std::to_chars(buf, buf + kGChars, v, std::chars_format::general,
                       precision)
      .ptr;
}

void append_g(std::string& out, double v, int precision) {
  char buf[kGChars];
  out.append(buf, to_chars_g(buf, v, precision));
}

void append_f(std::string& out, double v, int precision) {
  // DBL_MAX has 309 integer digits; a sign, the point and the fraction
  // fit in the rest.
  char buf[DBL_MAX_10_EXP + 1 + 3 + 17];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v,
                                std::chars_format::fixed, precision)
                      .ptr);
}

}  // namespace bcn
