// Access to the program corpus in programs/: the one source of every paper
// program the tests, benches and examples run.
//
// Every size, seed and round count in a corpus file is an object-like
// `#define`, so a caller picks a size by replacing that definition's value:
//
//   auto src = corpus::source("fig6_shortest_path_on2", {{"N", 24}});
//
// A size derived from another one (fig7's LOGN from N) is its own
// `#define`; callers override the two together.  Link the CMake target
// `uc_corpus`, which supplies PROGRAMS_DIR.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace corpus {

// One `#define` override: the macro name and its new value.
struct Define {
  std::string name;
  std::string value;
  Define(std::string n, std::string v)
      : name(std::move(n)), value(std::move(v)) {}
  Define(std::string n, std::int64_t v)
      : name(std::move(n)), value(std::to_string(v)) {}
};

inline std::filesystem::path dir() { return PROGRAMS_DIR; }

// The whole file; throws if it cannot be opened.
inline std::string read(const std::filesystem::path& file) {
  std::ifstream in(file, std::ios::binary);
  if (!in) throw std::runtime_error("corpus: cannot read " + file.string());
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Every programs/*.uc file, sorted by name.
inline std::vector<std::filesystem::path> programs() {
  std::vector<std::filesystem::path> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir())) {
    if (entry.path().extension() == ".uc") out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Replaces the value of the line `#define <name> <value>` in `text`; throws
// std::invalid_argument if `text` has no such definition.
inline std::string define(std::string text, const Define& d) {
  const std::string head = "#define " + d.name;
  for (std::size_t at = 0; at < text.size();) {
    const std::size_t eol = std::min(text.find('\n', at), text.size());
    if (text.compare(at, head.size(), head) == 0 &&
        at + head.size() < eol &&
        (text[at + head.size()] == ' ' || text[at + head.size()] == '\t')) {
      return text.replace(at + head.size(), eol - at - head.size(),
                          " " + d.value);
    }
    at = eol + 1;
  }
  throw std::invalid_argument("corpus: no '#define " + d.name +
                              "' to override");
}

// ceil(log2 n), and 1 for n <= 1: the LOGN that goes with a size N.
inline std::int64_t log2_ceil(std::int64_t n) {
  if (n <= 1) return 1;
  return std::bit_width(static_cast<std::uint64_t>(n - 1));
}

// programs/<name>.uc with each override applied.
inline std::string source(const std::string& name,
                          const std::vector<Define>& defines = {}) {
  std::string text = read(dir() / (name + ".uc"));
  for (const auto& d : defines) text = define(std::move(text), d);
  return text;
}

}  // namespace corpus
