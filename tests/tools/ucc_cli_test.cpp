// Integration tests for the ucc command-line driver: they run the real
// binary against the sample programs shipped in programs/.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "corpus.hpp"

namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

CommandResult run_command(const std::string& cmd) {
  CommandResult result;
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 512> buf;
  while (fgets(buf.data(), static_cast<int>(buf.size()), pipe) != nullptr) {
    result.output += buf.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string ucc() { return UCC_BINARY; }
std::string program(const char* name) {
  return (corpus::dir() / name).string();
}
std::string fig6() { return program("fig6_shortest_path_on2.uc"); }

TEST(UccCli, RunsHelloProgram) {
  auto r = run_command(ucc() + " run " + program("hello.uc"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("sum of 1..100 = 5050"), std::string::npos)
      << r.output;
}

TEST(UccCli, StatsFlagPrintsMachineCounters) {
  auto r = run_command(ucc() + " run " + program("hello.uc") + " --stats");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("cycles="), std::string::npos) << r.output;
}

// On the native engine --stats adds one line of native-tier counters; the
// cycles= line stays byte-identical to the other engines'.
TEST(UccCli, NativeStatsLineCountsCompilesAndHits) {
  const std::string dir = "/tmp/ucc_cli_native_stats";
  run_command("rm -rf " + dir);
  const std::string run = ucc() + " run " + fig6() + " --stats ";
  const std::string native =
      run + "--engine=native --native-cache-dir=" + dir;
  // The line of `out` that starts with `head`, or "".
  const auto line = [](const std::string& out, const std::string& head) {
    std::istringstream lines(out);
    for (std::string l; std::getline(lines, l);) {
      if (l.rfind(head, 0) == 0) return l;
    }
    return std::string();
  };
  struct Counters {
    unsigned long long compiled = 0, hits = 0, dispatches = 0, fallbacks = 0;
  };
  const auto counters = [&line](const std::string& out) {
    Counters c;
    EXPECT_EQ(std::sscanf(line(out, "native: ").c_str(),
                          "native: compiled=%llu cache_hits=%llu "
                          "dispatches=%llu fallbacks=%llu",
                          &c.compiled, &c.hits, &c.dispatches, &c.fallbacks),
              4)
        << out;
    return c;
  };

  const auto bytecode = run_command(run + "--engine=bytecode");
  const auto cold = run_command(native);
  const auto warm = run_command(native);
  ASSERT_EQ(bytecode.exit_code, 0) << bytecode.output;
  ASSERT_EQ(cold.exit_code, 0) << cold.output;
  ASSERT_EQ(warm.exit_code, 0) << warm.output;
  EXPECT_EQ(line(bytecode.output, "native: "), "");
  const std::string cycles = line(bytecode.output, "cycles=");
  ASSERT_FALSE(cycles.empty()) << bytecode.output;
  EXPECT_EQ(line(cold.output, "cycles="), cycles);
  EXPECT_EQ(line(warm.output, "cycles="), cycles);

  const Counters c = counters(cold.output);
  const Counters w = counters(warm.output);
  if (c.dispatches == 0) GTEST_SKIP() << "no working native toolchain";
  EXPECT_GT(c.compiled, 0u);
  EXPECT_EQ(c.hits, 0u);
  EXPECT_EQ(w.compiled, 0u);
  EXPECT_EQ(w.hits, c.compiled);
  EXPECT_EQ(w.dispatches, c.dispatches);
  EXPECT_EQ(w.fallbacks, c.fallbacks);
  run_command("rm -rf " + dir);
}

TEST(UccCli, CheckReportsOk) {
  auto r = run_command(ucc() + " check " + fig6());
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find(": ok"), std::string::npos) << r.output;
}

TEST(UccCli, CheckReportsDiagnosticsAndFails) {
  // A temporary bad program.
  const std::string path = "/tmp/ucc_cli_bad.uc";
  {
    std::ofstream out(path);
    out << "void main() { goto done; }\n";
  }
  auto r = run_command(ucc() + " check " + path);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("goto is not allowed"), std::string::npos)
      << r.output;
  std::remove(path.c_str());
}

TEST(UccCli, AnalyzeCleanProgramSummarizes) {
  auto r = run_command(ucc() + " analyze " + fig6());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("communication summary:"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("0 warnings"), std::string::npos) << r.output;
}

TEST(UccCli, AnalyzeReportsWriteWriteConflict) {
  const std::string path = "/tmp/ucc_cli_racy.uc";
  {
    std::ofstream out(path);
    out << "const int N = 8;\n"
           "index_set I:i = {0..N-1};\n"
           "int a[N];\n"
           "void main() {\n"
           "  par (I) { a[i] = 1; a[i+1] = 2; }\n"
           "}\n";
  }
  auto r = run_command(ucc() + " analyze " + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;  // warnings do not fail the exit
  EXPECT_NE(r.output.find("UC-A101"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("write-write conflict"), std::string::npos)
      << r.output;

  auto w = run_command(ucc() + " analyze " + path + " --werror");
  EXPECT_EQ(w.exit_code, 1) << w.output;
  std::remove(path.c_str());
}

TEST(UccCli, AnalyzeClassifiesNewsAndRouter) {
  const std::string path = "/tmp/ucc_cli_comm.uc";
  {
    std::ofstream out(path);
    out << "const int N = 8;\n"
           "index_set I:i = {0..N-1};\n"
           "int a[N], b[N], c[N], p[N];\n"
           "void main() {\n"
           "  par (I) b[i] = a[i+1];\n"
           "  par (I) c[i] = a[p[i]];\n"
           "}\n";
  }
  auto r = run_command(ucc() + " analyze " + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("-> news"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("-> router"), std::string::npos) << r.output;
  std::remove(path.c_str());
}

TEST(UccCli, AnalyzeFailsOnFrontEndErrors) {
  const std::string path = "/tmp/ucc_cli_analyze_bad.uc";
  {
    std::ofstream out(path);
    out << "void main() { undeclared = 1; }\n";
  }
  auto r = run_command(ucc() + " analyze " + path);
  EXPECT_EQ(r.exit_code, 1);
  std::remove(path.c_str());
}

TEST(UccCli, CheckStillOkOnProgramWithAnalysisNotes) {
  // ranksort triggers analysis notes; check must stay quiet and green.
  auto r = run_command(ucc() + " check " + program("ranksort.uc"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find(": ok"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("UC-A1"), std::string::npos) << r.output;
}

TEST(UccCli, UsageListsAllSubcommands) {
  auto r = run_command(ucc());
  EXPECT_EQ(r.exit_code, 2);
  for (const char* cmd : {"run", "check", "analyze", "emit-cstar",
                          "emit-uc"}) {
    EXPECT_NE(r.output.find(cmd), std::string::npos) << cmd << "\n"
                                                     << r.output;
  }
}

TEST(UccCli, EmitCstarProducesDomains) {
  auto r = run_command(ucc() + " emit-cstar " + fig6());
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("domain"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("[domain"), std::string::npos) << r.output;
}

TEST(UccCli, EmitUcRoundTrips) {
  auto r = run_command(ucc() + " emit-uc " + program("wavefront.uc"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("solve (I, J)"), std::string::npos) << r.output;
}

TEST(UccCli, NoMappingsChangesCostNotResults) {
  auto mapped =
      run_command(ucc() + " run " + program("mapping_demo.uc") + " --stats");
  auto unmapped = run_command(ucc() + " run " + program("mapping_demo.uc") +
                              " --no-mappings --stats");
  EXPECT_EQ(mapped.exit_code, 0);
  EXPECT_EQ(unmapped.exit_code, 0);
  // Same printed values...
  auto value_line = [](const std::string& s) {
    auto pos = s.find("a[0] =");
    return pos == std::string::npos ? std::string() : s.substr(pos);
  };
  auto a = value_line(mapped.output);
  auto b = value_line(unmapped.output);
  ASSERT_FALSE(a.empty());
  // Compare just the program output line (the stats lines differ).
  EXPECT_EQ(a.substr(0, a.find('\n')), b.substr(0, b.find('\n')));
  // ...different machine stats.
  EXPECT_NE(mapped.output.substr(mapped.output.find("cycles=")),
            unmapped.output.substr(unmapped.output.find("cycles=")));
}

TEST(UccCli, SeedChangesRandomGraph) {
  auto a = run_command(ucc() + " run " + fig6() + " --seed=1");
  auto b = run_command(ucc() + " run " + fig6() + " --seed=2");
  EXPECT_EQ(a.exit_code, 0);
  EXPECT_EQ(b.exit_code, 0);
  // srand(11) inside the program pins the graph, so seeds agree here —
  // the flag must at least not break anything and produce a value.
  EXPECT_NE(a.output.find("d[0][N-1] ="), std::string::npos);
  EXPECT_EQ(a.output, b.output);  // program-level srand wins
}

TEST(UccCli, TraceFlagPrintsParisInstructions) {
  auto r = run_command(ucc() + " run " + program("hello.uc") + " --trace");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("cm:alu"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("cm:scan"), std::string::npos) << r.output;
}

TEST(UccCli, UnknownOptionRejected) {
  auto r = run_command(ucc() + " run " + program("hello.uc") + " --bogus");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("unknown option"), std::string::npos);
}

TEST(UccCli, ShardsOptionIsGone) {
  // --threads is the only host-parallel knob; --shards is not an option.
  auto r = run_command(ucc() + " run " + program("hello.uc") + " --shards=2");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown option"), std::string::npos) << r.output;
}

// A per-lane call writing through a slice used to leave the buffered
// write pointing at the freed slice view (exit 139).  The conflict is now
// reported against the root array, as a runtime error.
TEST(UccCli, SliceWriteConflictFromLanesExitsOne) {
  const std::string path = "/tmp/ucc_cli_slice_conflict.uc";
  {
    std::ofstream out(path);
    out << "index_set I:i = {0..1};\n"
           "int a[2][2];\n"
           "int f(int r[2], int v) { r[0] = v; return 0; }\n"
           "void main() { par (I) f(a[0], i + 5); }\n";
  }
  auto r = run_command(ucc() + " run " + path);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("conflicting parallel assignment to a[0][0]: "
                          "values 5 and 6"),
            std::string::npos)
      << r.output;
  std::remove(path.c_str());
}

TEST(UccCli, MissingFileRejected) {
  auto r = run_command(ucc() + " run /no/such/file.uc");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("cannot read"), std::string::npos);
}

TEST(UccCli, UsageOnBadCommand) {
  auto r = run_command(ucc() + " frobnicate " + program("hello.uc"));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(UccCli, NumericOptionsRejectGarbage) {
  // Values that are not numbers, out of range, not finite, or that do not
  // fit their field (after the MiB scaling for --max-field-mb).
  for (const char* bad :
       {"--seed=12x", "--procs=abc", "--procs=0", "--threads=0",
        "--threads=-2", "--top=0", "--timeout=inf", "--timeout=nan",
        "--timeout=-1", "--max-field-mb=17592186044416",
        "--threads=4294967297", "--max-iterations=9223372036854775808"}) {
    auto r = run_command(ucc() + " run " + program("hello.uc") + " " + bad);
    EXPECT_EQ(r.exit_code, 2) << bad;
    EXPECT_NE(r.output.find("invalid value"), std::string::npos)
        << bad << "\n" << r.output;
  }
  // Zero stays valid where it means something (seed 0 is a real seed), and
  // a finite timeout past the clock's range means no deadline.
  for (const char* good : {"--seed=0", "--timeout=1e300"}) {
    auto ok = run_command(ucc() + " run " + program("hello.uc") + " " + good);
    EXPECT_EQ(ok.exit_code, 0) << good << "\n" << ok.output;
    EXPECT_NE(ok.output.find("sum of 1..100 = 5050"), std::string::npos)
        << good << "\n" << ok.output;
  }
}

// Each command refuses an option it does not read, naming both.
TEST(UccCli, ForeignOptionsAreRefused) {
  const std::string hello = program("hello.uc");
  for (const auto& [command, option] :
       {std::pair<const char*, const char*>{"run", "--emit=x.uc"},
        {"check", "--faults=router:p=0.5"},
        {"check", "--procs=64"},
        {"analyze", "--engine=walk"},
        {"analyze", "--procs=64"},
        {"optimize-map", "--top=2"},
        {"emit-uc", "--stats"},
        {"emit-cstar", "--checkpoint-every=8"}}) {
    auto r = run_command(ucc() + " " + command + " " + hello + " " + option);
    EXPECT_EQ(r.exit_code, 2) << command << " " << option;
    const std::string name = std::string(option).substr(
        0, std::string(option).find('='));
    EXPECT_NE(r.output.find("'" + name + "'"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find(std::string("'ucc ") + command + "'"),
              std::string::npos)
        << r.output;
  }
}

// optimize-map ranks by replay alone: the beam width and the switch that
// skipped the replay are gone, so no command accepts them.
TEST(UccCli, RemovedOptimizeMapOptionsAreUnknown) {
  for (const char* option : {"--beam=2", "--no-validate"}) {
    auto r = run_command(ucc() + " optimize-map " + program("hello.uc") +
                         " " + option);
    EXPECT_EQ(r.exit_code, 2) << option << "\n" << r.output;
    EXPECT_NE(r.output.find("unknown option"), std::string::npos)
        << r.output;
  }
}

// The flags that perfbench/run.py, tools/ci.sh, tools/soak.sh and the
// tests pass are still accepted by the commands they pass them to; the
// cases below also cover every other option once.
TEST(UccCli, FlagsInUseAreAccepted) {
  const std::string dir = "/tmp/ucc_cli_flags";
  run_command("rm -rf " + dir + " && mkdir -p " + dir);
  const std::string hello = program("hello.uc");
  for (const std::string& args : {
           // perfbench/run.py
           "run " + hello + " --engine=native --threads=2"
               " --checkpoint-every=8 --faults=router:p=1e-4,seed=42"
               " --stats --native-cache-dir=" + dir + "/nc",
           // tools/ci.sh
           "run " + hello + " --engine=walk --profile --trace",
           "run " + hello + " --engine=bytecode --json=" + dir + "/a.json",
           "profile " + hello + " --json=" + dir + "/b.json",
           "optimize-map " + fig6() + " --emit=" + dir + "/opt.uc",
           // tools/soak.sh
           "run " + hello + " --engine=bytecode --threads=1"
               " --checkpoint-every=4 --checkpoint-dir=" + dir + "/ck"
               " --stats --die-at=100000",
           "run " + hello + " --checkpoint-every=4 --resume=" + dir + "/ck",
           // the tests, and the other options
           "run " + hello + " --seed=1 --no-mappings --no-procopt"
               " --procs=1024 --max-iterations=0 --timeout=60"
               " --max-field-mb=64 --max-replays=8 --checkpoint-keep=100"
               " --lower-solve --rewrite-permutes --no-fold",
           "profile " + hello + " --top=2 --no-static --trace-json=" + dir +
               "/t.json --engine=walk --native-cc=c++",
           "analyze " + hello + " --werror --no-notes --no-summary"
               " --json=" + dir + "/an.json",
           "check " + hello,
           "optimize-map " + hello + " --procs=64 --json=" + dir +
               "/om.json",
           "emit-uc " + hello + " --no-fold --lower-solve",
           "emit-cstar " + hello + " --rewrite-permutes",
       }) {
    auto r = run_command(ucc() + " " + args);
    EXPECT_EQ(r.exit_code, 0) << args << "\n" << r.output;
  }
  run_command("rm -rf " + dir);
}

TEST(UccCli, IntLiteralOverflowIsACompileError) {
  const std::string path = "/tmp/ucc_cli_overflow.uc";
  {
    std::ofstream out(path);
    out << "int x;\nvoid main() { x = 99999999999999999999; }\n";
  }
  auto r = run_command(ucc() + " run " + path);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("does not fit in a 64-bit int"), std::string::npos)
      << r.output;
  std::remove(path.c_str());
}

TEST(UccCli, UnexpectedExceptionsExitCleanly) {
  // Materializing this array throws std::length_error (N*N elements is
  // past vector::max_size, so the throw happens before any allocation —
  // deterministic under ASan too, whose operator new aborts instead of
  // throwing bad_alloc on a failed huge allocation).  The driver must
  // catch it and exit nonzero instead of aborting.
  const std::string path = "/tmp/ucc_cli_huge.uc";
  {
    std::ofstream out(path);
    out << "#define N 2000000000\nint a[N][N];\nvoid main() { print(1); }\n";
  }
  auto r = run_command(ucc() + " run " + path);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("ucc:"), std::string::npos) << r.output;
  std::remove(path.c_str());
}

TEST(UccCli, ProfileCommandPrintsHotSiteTable) {
  auto r = run_command(ucc() + " profile " + fig6());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("d[0][N-1] ="), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("self-cycles"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("sum of sites"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("MISMATCH"), std::string::npos) << r.output;
  // The static-vs-dynamic join column from `ucc analyze`.
  EXPECT_NE(r.output.find("local"), std::string::npos) << r.output;
}

TEST(UccCli, ProfileTableIdenticalAcrossEngines) {
  auto strip_host_ms = [](std::string s) {
    // Column 3 (host-ms) and the pool line are host-timing noise.
    std::string out;
    std::istringstream in(s);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("host pool:", 0) == 0) continue;
      std::istringstream cols(line);
      std::string col;
      int k = 0;
      while (cols >> col) {
        const bool host_ms = ++k == 3 && line.rfind("total:", 0) != 0;
        out += host_ms ? std::string_view("-") : std::string_view(col);
        out += ' ';
      }
      out += "\n";
    }
    return out;
  };
  // Every engine charges what the compiled kernels charge, so the tables
  // agree exactly on the default options.
  auto walk = run_command(ucc() + " profile " + fig6() + " --engine=walk");
  auto bc = run_command(ucc() + " profile " + fig6() + " --engine=bytecode");
  EXPECT_EQ(walk.exit_code, 0);
  EXPECT_EQ(bc.exit_code, 0);
  auto w = strip_host_ms(walk.output);
  auto b = strip_host_ms(bc.output);
  // The engine column legitimately differs; neutralize it.
  auto neutral = [](std::string s) {
    for (const char* eng : {" bc ", " native ", " walk ", " mixed "}) {
      std::size_t pos = 0;
      while ((pos = s.find(eng, pos)) != std::string::npos) {
        s.replace(pos, std::strlen(eng), " ENG ");
      }
    }
    return s;
  };
  EXPECT_EQ(neutral(w), neutral(b));
}

TEST(UccCli, RunWithProfileKeepsStdoutIdentical) {
  // The subshell discards stderr (where the profile table goes), so this
  // compares the program's stdout byte for byte.
  const std::string run = ucc() + " run " + fig6();
  auto plain = run_command("(" + run + " 2>/dev/null)");
  auto prof = run_command("(" + run + " --profile 2>/dev/null)");
  EXPECT_EQ(plain.exit_code, 0);
  EXPECT_EQ(prof.exit_code, 0);
  EXPECT_EQ(plain.output, prof.output);
}

TEST(UccCli, ProfileWritesJsonAndTraceFiles) {
  const std::string json_path = "/tmp/ucc_cli_prof.json";
  const std::string trace_path = "/tmp/ucc_cli_prof_trace.json";
  auto r = run_command(ucc() + " profile " + fig6() +
                       " --json=" + json_path +
                       " --trace-json=" + trace_path);
  EXPECT_EQ(r.exit_code, 0) << r.output;

  std::ifstream json_in(json_path);
  std::stringstream json_buf;
  json_buf << json_in.rdbuf();
  EXPECT_NE(json_buf.str().find("\"total_cycles\""), std::string::npos);
  EXPECT_NE(json_buf.str().find("\"sites\""), std::string::npos);

  std::ifstream trace_in(trace_path);
  std::stringstream trace_buf;
  trace_buf << trace_in.rdbuf();
  EXPECT_EQ(trace_buf.str().front(), '[');
  EXPECT_NE(trace_buf.str().find("\"ph\": \"X\""), std::string::npos);

  std::remove(json_path.c_str());
  std::remove(trace_path.c_str());
}

// The hot-site rows of a profile table: the lines naming a source site.
std::size_t site_rows(const std::string& s) {
  std::size_t rows = 0;
  std::istringstream in(s);
  for (std::string line; std::getline(in, line);) {
    if (line.find(" | ") != std::string::npos) ++rows;
  }
  return rows;
}

TEST(UccCli, ProfileTopLimitsRows) {
  auto r = run_command(ucc() + " profile " + fig6() + " --top=2");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("cold sites hidden"), std::string::npos)
      << r.output;
  EXPECT_EQ(site_rows(r.output), 2u) << r.output;

  // The same rows whether the table comes from `profile` or `run --profile`.
  auto run = run_command(ucc() + " run " + fig6() + " --profile --top=2");
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_EQ(site_rows(run.output), 2u) << run.output;
}

// The Paris trace prints on stderr under profiling too, and leaves the
// program's stdout alone (`profile` adds only its table there).
TEST(UccCli, ProfiledRunsHonourTrace) {
  const std::string hello = program("hello.uc");
  const std::string run_hello = ucc() + " run " + hello;
  auto plain = run_command("(" + run_hello + " 2>/dev/null)");
  ASSERT_EQ(plain.exit_code, 0);
  const std::string run = run_hello + " --profile --trace";
  const std::string profile = ucc() + " profile " + hello + " --trace";
  for (const std::string& cmd : {run, profile}) {
    auto err = run_command("(" + cmd + " 2>&1 >/dev/null)");
    EXPECT_EQ(err.exit_code, 0) << cmd;
    EXPECT_NE(err.output.find("cm:alu"), std::string::npos) << err.output;
    auto out = run_command("(" + cmd + " 2>/dev/null)");
    EXPECT_EQ(out.output.rfind(plain.output, 0), 0u) << out.output;
    EXPECT_EQ(out.output.find("cm:"), std::string::npos) << out.output;
  }
  EXPECT_EQ(run_command("(" + run + " 2>/dev/null)").output, plain.output);
}

// ---- durable checkpoints & resume (docs/ROBUSTNESS.md) ----

TEST(UccCli, ResumeRequiresCheckpointDir) {
  auto r = run_command(ucc() + " run " + program("hello.uc") + " --resume");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--resume needs a checkpoint directory"),
            std::string::npos)
      << r.output;
}

TEST(UccCli, CheckpointDirRequiresCadence) {
  auto r = run_command(ucc() + " run " + program("hello.uc") +
                       " --checkpoint-dir=/tmp/ucc_cli_nocadence");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--checkpoint-every"), std::string::npos)
      << r.output;
}

// The full crash story in one test: a run SIGKILLed mid-program (--die-at
// raises the signal at a deterministic statement) leaves durable
// generations behind; --resume restores the newest one and must finish
// with the same program output AND the same modeled cycle count as an
// uninterrupted run.  tools/soak.sh repeats this at randomized kill points
// across programs, engines and host thread counts.
TEST(UccCli, DieAtKillsAndResumeReproducesBitIdentical) {
  const std::string dir = "/tmp/ucc_cli_ck";
  run_command("rm -rf " + dir + " " + dir + "_base");
  auto base = run_command(ucc() + " run " + fig6() +
                          " --checkpoint-every=4 --checkpoint-dir=" + dir +
                          "_base --stats");
  EXPECT_EQ(base.exit_code, 0) << base.output;
  EXPECT_NE(base.output.find("durable_checkpoints="), std::string::npos)
      << base.output;

  auto kill = run_command(ucc() + " run " + fig6() +
                          " --checkpoint-every=4 --checkpoint-dir=" + dir +
                          " --die-at=10");
  // SIGKILL: pclose reports a signal death, not a normal exit.
  EXPECT_NE(kill.exit_code, 0) << kill.output;

  auto res = run_command(ucc() + " run " + fig6() +
                         " --checkpoint-every=4 --resume=" + dir +
                         " --stats");
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("--resume: restoring generation"),
            std::string::npos)
      << res.output;

  auto value_line = [](const std::string& s) {
    auto pos = s.find("d[0][N-1] =");
    if (pos == std::string::npos) return std::string();
    return s.substr(pos, s.find('\n', pos) - pos);
  };
  ASSERT_FALSE(value_line(base.output).empty()) << base.output;
  EXPECT_EQ(value_line(base.output), value_line(res.output));
  auto cycles = [](const std::string& s) {
    auto pos = s.find("cycles=");
    if (pos == std::string::npos) return std::string();
    return s.substr(pos, s.find(' ', pos) - pos);
  };
  ASSERT_FALSE(cycles(base.output).empty());
  EXPECT_EQ(cycles(base.output), cycles(res.output));
  run_command("rm -rf " + dir + " " + dir + "_base");
}

// An escalated fault (the in-memory replay budget is spent) restores from
// the durable checkpoints in a fresh machine, up to three times, and then
// reports the abort; a profiled run takes the same path and still flushes
// its table.
TEST(UccCli, EscalatedFaultRetriesFromDurableCheckpoints) {
  const std::string dir = "/tmp/ucc_cli_retry";
  for (const char* extra : {"", " --profile"}) {
    run_command("rm -rf " + dir);
    auto r = run_command(ucc() + " run " + fig6() +
                         " --faults=memory:p=1,retries=0 --checkpoint-every=4"
                         " --max-replays=1 --stats --checkpoint-dir=" + dir +
                         extra);
    EXPECT_EQ(r.exit_code, 1) << r.output;
    for (int attempt = 1; attempt <= 3; ++attempt) {
      EXPECT_NE(r.output.find("restoring from durable checkpoints in '" +
                              dir + "' (attempt " + std::to_string(attempt) +
                              " of 3)"),
                std::string::npos)
          << extra << "\n" << r.output;
    }
    EXPECT_EQ(r.output.find("(attempt 4"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("--resume: restoring generation"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("partial statistics"), std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("self-cycles") != std::string::npos, *extra != 0)
        << extra << "\n" << r.output;
  }
  run_command("rm -rf " + dir);
}

// A snapshot's program identity covers the compile flags: generations
// written under the default flags are refused under --no-fold, and the
// run completes from scratch.
TEST(UccCli, SnapshotRefusedUnderOtherCompileFlags) {
  const std::string dir = "/tmp/ucc_cli_flags_ck";
  run_command("rm -rf " + dir);
  const std::string run = ucc() + " run " + fig6() + " --checkpoint-every=4 ";
  auto base = run_command(run + "--checkpoint-dir=" + dir);
  ASSERT_EQ(base.exit_code, 0) << base.output;

  auto same = run_command(run + "--resume=" + dir);
  EXPECT_EQ(same.exit_code, 0) << same.output;
  EXPECT_NE(same.output.find("--resume: restoring generation"),
            std::string::npos)
      << same.output;

  run_command("rm -rf " + dir);
  ASSERT_EQ(run_command(run + "--checkpoint-dir=" + dir).exit_code, 0);
  auto other = run_command(run + "--no-fold --resume=" + dir);
  EXPECT_EQ(other.exit_code, 0) << other.output;
  EXPECT_NE(other.output.find("different program"), std::string::npos)
      << other.output;
  EXPECT_NE(other.output.find("no intact checkpoint"), std::string::npos)
      << other.output;
  EXPECT_NE(other.output.find("d[0][N-1] ="), std::string::npos)
      << other.output;
  run_command("rm -rf " + dir);
}

// Pins snapshot format version 3.  tests/tools/golden/ckpt-00000005.uck
// was written by `ucc run` from kGoldenProgram below with
// --engine=bytecode --checkpoint-every=8; it is the capture at the entry
// of the *par nested in a par, so it holds fields, scalars, a lane local,
// output text and cached plans.  The same run must write the same bytes,
// and resuming from the file alone must finish like the uninterrupted run.
constexpr const char* kGoldenProgram = R"(#define N 8
#define T 6
index_set I:i = {0..N-1}, J:j = I, K:k = {0..T-1};
int a[N], b[N][N];
int total;
void main() {
  int rounds = 0;
  par (I) a[i] = i;
  seq (K) {
    par (I) a[i] = a[i] + a[(i + 1) % N] % 7;
    par (I) a[i] = a[i] % 11;
    rounds = rounds + 1;
    print("round", k, a[0]);
  }
  par (I) {
    int x = a[i] % 5;
    *par (J) st (b[i][j] < x + j) b[i][j] = b[i][j] + 1;
  }
  total = $+(I, J; b[i][j]);
  print("total", total, rounds);
}
)";

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(UccCli, SnapshotBytesMatchTheGoldenGeneration) {
  const std::string dir = "/tmp/ucc_cli_golden";
  run_command("rm -rf " + dir + " && mkdir -p " + dir + "/run " + dir +
              "/resume");
  { std::ofstream(dir + "/prog.uc") << kGoldenProgram; }
  const std::string golden =
      read_bytes(std::string(UCC_GOLDEN_DIR) + "/ckpt-00000005.uck");
  ASSERT_FALSE(golden.empty());
  const std::string run = ucc() + " run " + dir +
                          "/prog.uc --engine=bytecode --checkpoint-every=8 "
                          "--stats --checkpoint-keep=100 ";

  auto base = run_command(run + "--checkpoint-dir=" + dir + "/run");
  ASSERT_EQ(base.exit_code, 0) << base.output;
  EXPECT_TRUE(read_bytes(dir + "/run/ckpt-00000005.uck") == golden)
      << "the snapshot payload or header changed for the same run";

  { std::ofstream(dir + "/resume/ckpt-00000005.uck", std::ios::binary)
        << golden; }
  auto res = run_command(run + "--resume=" + dir + "/resume");
  ASSERT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("--resume: restoring generation 5"),
            std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find(" resumes=1"), std::string::npos) << res.output;
  auto lines = [](const std::string& s, const char* prefix) {
    std::string out;
    std::istringstream in(s);
    for (std::string line; std::getline(in, line);) {
      if (line.rfind(prefix, 0) == 0) out += line + "\n";
    }
    return out;
  };
  ASSERT_NE(lines(base.output, "total ").size(), 0u) << base.output;
  EXPECT_EQ(lines(base.output, "round "), lines(res.output, "round "));
  EXPECT_EQ(lines(base.output, "total "), lines(res.output, "total "));
  auto cycles = [](const std::string& s) {
    auto pos = s.find("cycles=");
    if (pos == std::string::npos) return std::string();
    return s.substr(pos, s.find(' ', pos) - pos);
  };
  ASSERT_FALSE(cycles(base.output).empty());
  EXPECT_EQ(cycles(base.output), cycles(res.output));
  run_command("rm -rf " + dir);
}

// A profiled run that aborts (here: the wall-clock watchdog) must still
// flush the hot-site table and the partial machine statistics instead of
// dropping the attribution on the floor.
TEST(UccCli, AbortedProfiledRunStillFlushesTable) {
  const std::string path = "/tmp/ucc_cli_runaway.uc";
  {
    std::ofstream out(path);
    out << "void main() {\n"
           "  int i;\n"
           "  i = 0;\n"
           "  while (i < 2000000000) { i = i + 1; }\n"
           "}\n";
  }
  auto r = run_command(ucc() + " run " + path +
                       " --profile --stats --timeout=0.05");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("runtime error"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("self-cycles"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("partial statistics"), std::string::npos)
      << r.output;

  auto p = run_command(ucc() + " profile " + path + " --timeout=0.05");
  EXPECT_EQ(p.exit_code, 1) << p.output;
  EXPECT_NE(p.output.find("self-cycles"), std::string::npos) << p.output;
  std::remove(path.c_str());
}

}  // namespace
