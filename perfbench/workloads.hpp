// The benchmark's three workloads: seeded UC program text, the execution
// configuration each runs under, and an independent sequential checksum.
//
// Every generated program ends by printing `checksum <n>`, a weighted
// whole-array `$+` reduction.  `expected_checksum` recomputes the same sum
// from src/seqref (grid BFS, Floyd-Warshall) or from the plain Jacobi loop
// below; it never runs the UC VM.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  std::string source;              // the generated .uc program
  std::int64_t expected_checksum = 0;
  std::int64_t lanes = 0;          // widest VP set the program activates

  // How `ucc run` executes it (mirrored by ucc_flags()).
  bool native = false;             // --engine=native, else the default engine
  unsigned threads = 1;            // --threads
  std::uint64_t checkpoint_every = 0;  // --checkpoint-every, in memory
  std::string faults;              // --faults spec, empty = none
};

// Generates `name` for `seed`; throws std::invalid_argument for an unknown
// name.
Workload make_workload(const std::string& name, std::uint64_t seed);

// The `ucc run` flags for the workload's configuration, except the native
// cache directory, which the caller chooses per run.
std::vector<std::string> ucc_flags(const Workload& w);

// Extracts the value printed on the program's `checksum` line; false when
// the output has none.
bool parse_checksum(const std::string& output, std::int64_t& out);

}  // namespace perfbench
