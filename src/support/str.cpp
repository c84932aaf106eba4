#include "support/str.hpp"

#include <cstdarg>
#include <cstdio>

namespace uc::support {

std::vector<std::string_view> split_lines(std::string_view text) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    auto nl = text.find('\n', start);
    if (nl == std::string_view::npos) {
      out.push_back(text.substr(start));
      break;
    }
    out.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return out;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += format("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\r' || s.front() == '\n')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r' || s.back() == '\n')) {
    s.remove_suffix(1);
  }
  return s;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::string out = vformat(fmt, args);
  va_end(args);
  return out;
}

std::string vformat(const char* fmt, std::va_list args) {
  va_list copy;
  va_copy(copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  return out;
}

std::string element_name(std::string_view name,
                         std::span<const std::int64_t> index) {
  std::string out(name);
  for (const std::int64_t i : index) {
    out += '[';
    out += std::to_string(i);
    out += ']';
  }
  return out;
}

std::size_t count_code_lines(std::string_view source) {
  std::size_t n = 0;
  bool in_block_comment = false;
  for (auto raw : split_lines(source)) {
    auto line = trim(raw);
    bool has_code = false;
    for (std::size_t i = 0; i < line.size();) {
      if (in_block_comment) {
        auto end = line.find("*/", i);
        if (end == std::string_view::npos) {
          i = line.size();
        } else {
          in_block_comment = false;
          i = end + 2;
        }
        continue;
      }
      if (line.substr(i, 2) == "/*") {
        in_block_comment = true;
        i += 2;
        continue;
      }
      if (line.substr(i, 2) == "//") break;
      if (line[i] != ' ' && line[i] != '\t') has_code = true;
      ++i;
    }
    if (has_code) ++n;
  }
  return n;
}

}  // namespace uc::support
