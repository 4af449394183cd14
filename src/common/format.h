// printf-style std::string formatting (GCC 12's libstdc++ lacks <format>),
// and the number writer the renderers append through.
#pragma once

#include <cstdarg>
#include <cstddef>
#include <string>

namespace bcn {

// Returns the printf-formatted string.  Attribute-checked like printf.
#if defined(__GNUC__)
__attribute__((format(printf, 1, 2)))
#endif
std::string strf(const char* fmt, ...);

std::string vstrf(const char* fmt, std::va_list args);

// The number writer.  std::to_chars with a precision is specified to
// print what printf prints in the C locale at that precision ("inf",
// "-nan" and the rest included), without parsing a format string.

// Room for any "%.<p>g" text with 1 <= p <= 17: a sign, 17 digits, the
// point and "e-308".
inline constexpr std::size_t kGChars = 32;

// Writes v into buf as printf's "%.<precision>g" prints it (1 <= precision
// <= 17) and returns the end of the text.
char* to_chars_g(char (&buf)[kGChars], double v, int precision);

// Appends v as printf's "%.<precision>g" prints it.
void append_g(std::string& out, double v, int precision = 6);

// Appends v as printf's "%.<precision>f" prints it (precision <= 17).
void append_f(std::string& out, double v, int precision = 6);

}  // namespace bcn
