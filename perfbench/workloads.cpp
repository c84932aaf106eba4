#include "workloads.hpp"

#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "seqref/seqref.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

constexpr std::int64_t kInf = std::int64_t{1} << 40;  // UC's INF
constexpr std::int64_t kWall = -2;

// Checksum weight of element (i, j) of a rows x cols array, so that a
// transposed or shifted result does not sum to the same value.
std::int64_t weight(std::int64_t i, std::int64_t j, std::int64_t cols) {
  return (i * cols + j) % 7 + 1;
}

// The UC text of the same weighted sum over d[I][J], and its print line.
std::string checksum_line(const std::string& array, const std::string& cols) {
  return "  print(\"checksum\", $+(I, J; " + array + "[i][j] * ((i * " + cols +
         " + j) % 7 + 1)));\n";
}

// A per-workload stream, so workloads sharing a seed draw unrelated values.
uc::support::SplitMix64 seeded_rng(std::uint64_t seed, std::uint64_t salt) {
  return uc::support::SplitMix64(seed * 0x9e3779b97f4a7c15ull + salt);
}

// Fig 8/11 grid shortest path at 128 x 128.  The seed moves the
// anti-diagonal obstacle band (always 65 interior cells, never touching the
// border), so every seed keeps the same lane counts and the same 254-step
// farthest distance.
Workload grid_solve(std::uint64_t seed) {
  constexpr std::int64_t R = 128, C = 128, H = R / 4;
  auto rng = seeded_rng(seed, 1);
  const std::int64_t diag = R - 1 + static_cast<std::int64_t>(rng.next_below(25)) - 12;
  const std::int64_t centre = R / 2 + static_cast<std::int64_t>(rng.next_below(25)) - 12;

  Workload w;
  w.name = "grid_solve";
  w.seed = seed;
  w.lanes = R * C * 4;
  w.native = true;
  w.threads = 2;
  std::ostringstream src;
  src << "/* grid_solve: Fig 8/11 grid shortest path, seed " << seed << " */\n"
      << "#define R " << R << "\n#define C " << C << "\n#define WALL (0 - 2)\n"
      << "index_set I:i = {0..R-1}, J:j = {0..C-1};\n"
      << "index_set D:dir = {0..3};\n"
      << "int d[R][C];\n"
      << "void main() {\n"
      << "  par (I, J)\n"
      << "    st (i + j == " << diag << " && abs(i - " << centre << ") <= " << H
      << ")\n"
      << "      d[i][j] = WALL;\n"
      << "    others d[i][j] = INF;\n"
      << "  d[0][0] = 0;\n"
      << "  *solve (I, J)\n"
      << "    st (d[i][j] != WALL && !(i==0 && j==0))\n"
      << "      d[i][j] = min(INF, 1 + $<(D\n"
      << "        st (i + (dir==0) - (dir==1) >= 0 &&\n"
      << "            i + (dir==0) - (dir==1) <= R-1 &&\n"
      << "            j + (dir==2) - (dir==3) >= 0 &&\n"
      << "            j + (dir==2) - (dir==3) <= C-1 &&\n"
      << "            d[i + (dir==0) - (dir==1)][j + (dir==2) - (dir==3)]\n"
      << "              != WALL)\n"
      << "          d[i + (dir==0) - (dir==1)][j + (dir==2) - (dir==3)]));\n"
      << checksum_line("d", "C") << "}\n";
  w.source = src.str();

  std::vector<std::uint8_t> wall(static_cast<std::size_t>(R * C), 0);
  for (std::int64_t i = 0; i < R; ++i) {
    for (std::int64_t j = 0; j < C; ++j) {
      if (i + j == diag && std::abs(i - centre) <= H) {
        wall[static_cast<std::size_t>(i * C + j)] = 1;
      }
    }
  }
  const auto dist = uc::seqref::grid_bfs(R, C, wall, kInf, nullptr);
  for (std::int64_t i = 0; i < R; ++i) {
    for (std::int64_t j = 0; j < C; ++j) {
      const auto k = static_cast<std::size_t>(i * C + j);
      w.expected_checksum += weight(i, j, C) * (wall[k] != 0 ? kWall : dist[k]);
    }
  }
  return w;
}

// Fig 4/6 O(N^2) all-pairs shortest path at N = 192, with checkpoints every
// 8 statements and seeded router faults rare enough that no instruction
// ever exhausts its retries.  The seed picks the edge-weight hash and the
// fault schedule.
Workload apsp_ckpt(std::uint64_t seed) {
  constexpr std::int64_t N = 192, P = 65521;
  auto rng = seeded_rng(seed, 2);
  const std::int64_t a = 1 + static_cast<std::int64_t>(rng.next_below(P - 1));
  const std::int64_t b = 1 + static_cast<std::int64_t>(rng.next_below(P - 1));
  const std::int64_t s = static_cast<std::int64_t>(rng.next_below(P));
  const std::int64_t c = static_cast<std::int64_t>(rng.next_below(P));

  Workload w;
  w.name = "apsp_ckpt";
  w.seed = seed;
  w.lanes = N * N;
  w.native = true;
  w.threads = 1;
  w.checkpoint_every = 8;
  w.faults = "router:p=3e-7,seed=" + std::to_string(rng.next_below(1u << 30));
  const std::string h = "((i * " + std::to_string(a) + " + j * " +
                        std::to_string(b) + " + " + std::to_string(s) +
                        ") % " + std::to_string(P) + ")";
  std::ostringstream src;
  src << "/* apsp_ckpt: Fig 4/6 all-pairs shortest path, seed " << seed
      << " */\n"
      << "#define N " << N << "\n"
      << "index_set I:i = {0..N-1}, J:j = I, K:k = I;\n"
      << "int d[N][N];\n"
      << "void main() {\n"
      << "  par (I, J) st (i == j) d[i][j] = 0;\n"
      << "    others d[i][j] = (" << h << " * " << h << " + " << c << ") % " << P
      << " % N + 1;\n"
      << "  seq (K)\n"
      << "    par (I, J)\n"
      << "      st (d[i][k] + d[k][j] < d[i][j])\n"
      << "        d[i][j] = d[i][k] + d[k][j];\n"
      << checksum_line("d", "N") << "}\n";
  w.source = src.str();

  std::vector<std::int64_t> dist(static_cast<std::size_t>(N * N));
  for (std::int64_t i = 0; i < N; ++i) {
    for (std::int64_t j = 0; j < N; ++j) {
      const std::int64_t hv = (i * a + j * b + s) % P;
      dist[static_cast<std::size_t>(i * N + j)] =
          i == j ? 0 : (hv * hv + c) % P % N + 1;
    }
  }
  uc::seqref::floyd_warshall(dist, N);
  for (std::int64_t i = 0; i < N; ++i) {
    for (std::int64_t j = 0; j < N; ++j) {
      w.expected_checksum +=
          weight(i, j, N) * dist[static_cast<std::size_t>(i * N + j)];
    }
  }
  return w;
}

// §5 Jacobi relaxation: a 5-point float stencil on 128 x 128 on the default
// engine.  Each sweep is one par body of two statements (stencil, copy
// back), which the VM fuses.  The seed sets the boundary values (multiples
// of 1/8, exact in binary).  The checksum truncates u * 2^20 to integers before summing, so
// the comparison is exact and independent of summation order.
Workload jacobi_news(std::uint64_t seed) {
  constexpr std::int64_t N = 128, kSweeps = 100, M = 97;
  constexpr double kScale = 1048576.0;
  auto rng = seeded_rng(seed, 3);
  const std::int64_t a = 1 + static_cast<std::int64_t>(rng.next_below(M - 1));
  const std::int64_t b = 1 + static_cast<std::int64_t>(rng.next_below(M - 1));
  const std::int64_t s = static_cast<std::int64_t>(rng.next_below(M));

  Workload w;
  w.name = "jacobi_news";
  w.seed = seed;
  w.lanes = N * N;
  std::ostringstream src;
  src << "/* jacobi_news: section 5 Jacobi relaxation, seed " << seed << " */\n"
      << "#define N " << N << "\n"
      << "index_set I:i = {0..N-1}, J:j = I;\n"
      << "index_set T:t = {1.." << kSweeps << "};\n"
      << "float u[N][N], v[N][N];\n"
      << "int q[N][N];\n"
      << "void main() {\n"
      << "  par (I, J)\n"
      << "    st (i==0 || i==N-1 || j==0 || j==N-1)\n"
      << "      u[i][j] = ((i * " << a << " + j * " << b << " + " << s << ") % "
      << M << ") / 8.0;\n"
      << "    others u[i][j] = 0.0;\n"
      << "  par (I, J) v[i][j] = u[i][j];\n"
      << "  seq (T)\n"
      << "    par (I, J) st (i>0 && i<N-1 && j>0 && j<N-1) {\n"
      << "      v[i][j] = 0.25 * (u[i-1][j] + u[i+1][j]\n"
      << "                        + u[i][j-1] + u[i][j+1]);\n"
      << "      u[i][j] = v[i][j];\n"
      << "    }\n"
      << "  par (I, J) q[i][j] = u[i][j] * 1048576.0;\n"
      << checksum_line("q", "N") << "}\n";
  w.source = src.str();

  // The same sweeps, sequentially, in the VM's operation order.
  const auto at = [](std::int64_t i, std::int64_t j) {
    return static_cast<std::size_t>(i * N + j);
  };
  std::vector<double> u(static_cast<std::size_t>(N * N), 0.0);
  for (std::int64_t i = 0; i < N; ++i) {
    for (std::int64_t j = 0; j < N; ++j) {
      if (i == 0 || i == N - 1 || j == 0 || j == N - 1) {
        u[at(i, j)] = static_cast<double>((i * a + j * b + s) % M) / 8.0;
      }
    }
  }
  std::vector<double> v = u;
  for (std::int64_t t = 0; t < kSweeps; ++t) {
    for (std::int64_t i = 1; i < N - 1; ++i) {
      for (std::int64_t j = 1; j < N - 1; ++j) {
        v[at(i, j)] = 0.25 * (u[at(i - 1, j)] + u[at(i + 1, j)] +
                              u[at(i, j - 1)] + u[at(i, j + 1)]);
      }
    }
    u = v;
  }
  for (std::int64_t i = 0; i < N; ++i) {
    for (std::int64_t j = 0; j < N; ++j) {
      w.expected_checksum += weight(i, j, N) *
                             static_cast<std::int64_t>(u[at(i, j)] * kScale);
    }
  }
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "grid_solve") return grid_solve(seed);
  if (name == "apsp_ckpt") return apsp_ckpt(seed);
  if (name == "jacobi_news") return jacobi_news(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::vector<std::string> ucc_flags(const Workload& w) {
  std::vector<std::string> flags;
  if (w.native) flags.push_back("--engine=native");
  if (w.threads != 1) flags.push_back("--threads=" + std::to_string(w.threads));
  if (w.checkpoint_every != 0) {
    flags.push_back("--checkpoint-every=" + std::to_string(w.checkpoint_every));
  }
  if (!w.faults.empty()) flags.push_back("--faults=" + w.faults);
  return flags;
}

bool parse_checksum(const std::string& output, std::int64_t& out) {
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("checksum ", 0) != 0) continue;
    char* end = nullptr;
    const char* digits = line.c_str() + 9;
    out = std::strtoll(digits, &end, 10);
    return end != digits && *end == '\0';
  }
  return false;
}

}  // namespace perfbench
