// Small string helpers used by the front end and the test suite.
#pragma once

#include <cstdarg>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace uc::support {

std::vector<std::string_view> split_lines(std::string_view text);

std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);

// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string vformat(const char* fmt, std::va_list args)
    __attribute__((format(printf, 1, 0)));

// Escapes a string for use inside a JSON string literal: quote,
// backslash, \n and \t get their short escapes, other control bytes
// become \u00XX, and every other byte (UTF-8 included) passes through.
std::string json_escape(std::string_view s);

// Renders an array element as `name[i][j]...`, the form runtime errors
// quote.
std::string element_name(std::string_view name,
                         std::span<const std::int64_t> index);

// Counts non-blank, non-comment lines — used by the conciseness experiment
// (E9 in DESIGN.md) to compare UC and C* program sizes.
std::size_t count_code_lines(std::string_view source);

}  // namespace uc::support
