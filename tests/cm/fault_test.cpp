// The fault-injection layer (docs/ROBUSTNESS.md): spec parsing, schedule
// determinism, retry/backoff charging, escalation to TransientFault, the
// field-memory cap, and machine snapshot/restore.
#include <gtest/gtest.h>

#include "cm/fault.hpp"
#include "cm/machine.hpp"
#include "support/error.hpp"

namespace uc::cm {
namespace {

// ---- spec grammar ----

TEST(FaultSpec, ParsesKindsAndGlobals) {
  const FaultSpec s =
      parse_fault_spec("router:p=1e-4;news:p=1e-5,seed=42;reduce:p=0.25");
  EXPECT_DOUBLE_EQ(s.router_p, 1e-4);
  EXPECT_DOUBLE_EQ(s.news_p, 1e-5);
  EXPECT_DOUBLE_EQ(s.reduce_p, 0.25);
  EXPECT_DOUBLE_EQ(s.memory_p, 0.0);
  EXPECT_EQ(s.seed, 42u);
  EXPECT_TRUE(s.enabled());
}

TEST(FaultSpec, KindAliasesAndProtocolKnobs) {
  const FaultSpec s = parse_fault_spec(
      "scan:p=0.5;field:p=0.125,retries=3,backoff=16,detect=0");
  EXPECT_DOUBLE_EQ(s.reduce_p, 0.5);   // scan == reduce
  EXPECT_DOUBLE_EQ(s.memory_p, 0.125);  // field == memory
  EXPECT_EQ(s.max_retries, 3u);
  EXPECT_EQ(s.backoff_cycles, 16u);
  EXPECT_EQ(s.detect_cycles, 0u);
}

TEST(FaultSpec, RoundTripsThroughToString) {
  const char* spec = "router:p=0.001;memory:p=0.5,seed=7,retries=2";
  const FaultSpec a = parse_fault_spec(spec);
  const FaultSpec b = parse_fault_spec(a.to_string());
  EXPECT_DOUBLE_EQ(b.router_p, a.router_p);
  EXPECT_DOUBLE_EQ(b.memory_p, a.memory_p);
  EXPECT_EQ(b.seed, a.seed);
  EXPECT_EQ(b.max_retries, a.max_retries);
}

// Bad specs throw ApiError whose message names the offense, so the CLI can
// print it verbatim.
void expect_bad(const std::string& spec, const std::string& needle) {
  try {
    parse_fault_spec(spec);
    FAIL() << "spec '" << spec << "' should have been rejected";
  } catch (const support::ApiError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message for '" << spec << "' was: " << e.what();
  }
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  expect_bad("", "empty spec");
  expect_bad("router:p=0.1;;news:p=0.1", "empty clause");
  expect_bad("teleport:p=0.1", "unknown fault kind 'teleport'");
  expect_bad("router:p=2", "outside [0,1]");
  expect_bad("router:p=-0.5", "outside [0,1]");
  expect_bad("router:p=banana", "not a probability");
  expect_bad("p=0.5", "outside a kind clause");
  expect_bad("router:p", "not key=value");
  expect_bad("router:p=0.1,colour=red", "unknown key 'colour'");
  expect_bad("seed=-3", "non-negative integer");
  expect_bad("router:p=0.1,", "empty parameter");
}

TEST(FaultSpec, RejectsOutOfRangeNumbers) {
  // Probabilities outside [0,1] in every representation, including values
  // that overflow a double (strtod sets ERANGE).
  expect_bad("router:p=1.0000001", "outside [0,1]");
  expect_bad("router:p=100e100", "outside [0,1]");
  expect_bad("router:p=1e999", "not a probability");   // ERANGE overflow
  expect_bad("router:p=1e-999", "not a probability");  // ERANGE underflow
  expect_bad("router:p=nan", "not a probability");
  // ±inf parse cleanly and fall outside [0,1], so the range check trips.
  expect_bad("router:p=inf", "outside [0,1]");
  expect_bad("router:p=-inf", "outside [0,1]");
  // Counts that overflow uint64 (strtoull sets ERANGE) or go negative.
  expect_bad("seed=99999999999999999999", "non-negative integer");
  expect_bad("retries=-1", "non-negative integer");
  expect_bad("backoff=18446744073709551616", "non-negative integer");
  expect_bad("detect=1e3", "non-negative integer");
}

TEST(FaultSpec, RejectsDuplicateEntries) {
  // Duplicates are rejected rather than last-writer-wins: a spec with two
  // clauses for one kind almost certainly means the user edited one and
  // forgot the other, and silently keeping either changes the schedule.
  expect_bad("router:p=0.1;router:p=0", "duplicate clause");
  expect_bad("scan:p=0.1;reduce:p=0.2", "duplicate clause");   // aliases
  expect_bad("memory:p=0.1;field:p=0.2", "duplicate clause");  // aliases
  expect_bad("router:p=0.1,p=0.2", "duplicate p=");
  expect_bad("router:p=0.1,seed=1;news:p=0.2,seed=2", "duplicate key 'seed'");
  expect_bad("router:retries=1,retries=2", "duplicate key 'retries'");
  expect_bad("news:p=0.5,backoff=4,backoff=8", "duplicate key 'backoff'");
  expect_bad("router:p=1,detect=1;detect=2", "duplicate key 'detect'");
  // Distinct kinds and one of each global stay legal.
  const FaultSpec ok = parse_fault_spec(
      "router:p=0.1;news:p=0.2;scan:p=0.3;field:p=0.4,seed=9,retries=1");
  EXPECT_DOUBLE_EQ(ok.reduce_p, 0.3);
  EXPECT_DOUBLE_EQ(ok.memory_p, 0.4);
}

// ---- injector determinism ----

TEST(FaultInjector, SameSeedSameSchedule) {
  const FaultSpec spec = parse_fault_spec("router:p=0.3,seed=99");
  FaultInjector a(spec), b(spec);
  for (int k = 0; k < 1000; ++k) {
    EXPECT_EQ(a.draw_failure(FaultKind::kRouter, 5),
              b.draw_failure(FaultKind::kRouter, 5));
  }
}

TEST(FaultInjector, EdgeProbabilitiesConsumeNoRandomness) {
  FaultInjector inj(parse_fault_spec("router:p=1;news:p=0.5,seed=1"));
  // p >= 1 always fails, p <= 0 and units == 0 never fail — and none of
  // these draw from the RNG, so the schedule for other kinds is unchanged.
  EXPECT_TRUE(inj.draw_failure(FaultKind::kRouter, 1));
  EXPECT_FALSE(inj.draw_failure(FaultKind::kMemory, 1));  // p == 0
  EXPECT_FALSE(inj.draw_failure(FaultKind::kNews, 0));    // units == 0
  FaultInjector fresh(parse_fault_spec("router:p=1;news:p=0.5,seed=1"));
  for (int k = 0; k < 100; ++k) {
    EXPECT_EQ(inj.draw_failure(FaultKind::kNews, 3),
              fresh.draw_failure(FaultKind::kNews, 3));
  }
}

TEST(FaultInjector, MoreUnitsFailMoreOften) {
  const FaultSpec spec = parse_fault_spec("router:p=0.001,seed=5");
  auto failure_rate = [&](std::uint64_t units) {
    FaultInjector inj(spec);
    int fails = 0;
    for (int k = 0; k < 4000; ++k) {
      fails += inj.draw_failure(FaultKind::kRouter, units);
    }
    return fails;
  };
  EXPECT_LT(failure_rate(1), failure_rate(1000));
}

TEST(FaultInjector, BackoffDoublesAndCaps) {
  FaultInjector inj(parse_fault_spec("router:p=0.5,backoff=8"));
  EXPECT_EQ(inj.backoff(1), 8u);
  EXPECT_EQ(inj.backoff(2), 16u);
  EXPECT_EQ(inj.backoff(3), 32u);
  EXPECT_EQ(inj.backoff(11), 8u << 10);
  EXPECT_EQ(inj.backoff(50), 8u << 10);  // capped at 10 doublings
}

// ---- machine integration ----

TEST(MachineFaults, FaultsOffChargesExactlyBaseline) {
  MachineOptions plain;
  Machine base(plain);
  MachineOptions off = plain;
  off.faults = parse_fault_spec("router:p=0;news:p=0");
  ASSERT_FALSE(off.faults.enabled());
  Machine gated(off);
  base.charge_router(1024, 1024);
  gated.charge_router(1024, 1024);
  EXPECT_EQ(base.stats(), gated.stats());
  EXPECT_EQ(gated.stats().faults, 0u);
}

TEST(MachineFaults, RetriesChargeCyclesButKeepCounts) {
  MachineOptions plain;
  Machine base(plain);
  for (int k = 0; k < 20; ++k) base.charge_router(64, 64);

  MachineOptions faulty = plain;
  // 64 messages at p=1e-2: each attempt fails with probability
  // 1 - 0.99^64 ≈ 0.47, so over 20 instructions this seed draws several
  // faults but never 9 consecutive failures (which would escalate).
  faulty.faults = parse_fault_spec("router:p=0.01,seed=3");
  Machine m(faulty);
  for (int k = 0; k < 20; ++k) m.charge_router(64, 64);
  EXPECT_GT(m.stats().faults, 0u);
  EXPECT_EQ(m.stats().retries, m.stats().faults);
  EXPECT_GT(m.stats().cycles, base.stats().cycles);
  // Retries re-issue the same instruction: logical op counts are those of
  // a single issue.
  EXPECT_EQ(m.stats().router_ops, base.stats().router_ops);
  EXPECT_EQ(m.stats().router_messages, base.stats().router_messages);
}

TEST(MachineFaults, DeterministicScheduleAcrossMachines) {
  MachineOptions opts;
  opts.faults = parse_fault_spec("router:p=0.001;news:p=0.002,seed=17");
  auto run = [&] {
    Machine m(opts);
    for (int k = 0; k < 50; ++k) {
      m.charge_router(256, 256);
      m.charge_news(256, 2);
    }
    return m.stats();
  };
  EXPECT_EQ(run(), run());
}

TEST(MachineFaults, CertainFaultEscalatesToTransientFault) {
  MachineOptions opts;
  opts.faults = parse_fault_spec("router:p=1,retries=4");
  Machine m(opts);
  try {
    m.charge_router(64, 64);
    FAIL() << "p=1 must exhaust retries";
  } catch (const support::TransientFault& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("router"), std::string::npos) << msg;
    EXPECT_NE(msg.find("retries=4"), std::string::npos) << msg;
  }
  // The failed attempts were still charged.
  EXPECT_EQ(m.stats().faults, 5u);  // initial attempt + 4 retries
  EXPECT_GT(m.stats().cycles, 0u);
}

TEST(MachineFaults, UnprotectedOpsNeverFault) {
  MachineOptions opts;
  opts.faults = parse_fault_spec("router:p=1;news:p=1;reduce:p=1;memory:p=1");
  Machine m(opts);
  // global-OR, broadcast, and front-end work are outside the fault domains.
  m.charge_global_or();
  m.charge_broadcast(4096);
  m.charge_frontend(10);
  EXPECT_EQ(m.stats().faults, 0u);
}

// ---- field memory cap ----

TEST(MachineFaults, FieldMemoryCapThrows) {
  MachineOptions opts;
  opts.max_field_bytes = 1 << 16;  // 64 KiB
  Machine m(opts);
  GeomId g = m.create_geometry({1 << 14});  // 16384 VPs => 144 KiB per field
  try {
    m.allocate_field(g, "big", ElemType::kInt);
    FAIL() << "allocation should exceed the cap";
  } catch (const support::UcRuntimeError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("big"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--max-field-mb"), std::string::npos) << msg;
  }
}

TEST(MachineFaults, FreeingFieldsReleasesBudget) {
  MachineOptions opts;
  opts.max_field_bytes = 200 * 1024;
  Machine m(opts);
  GeomId g = m.create_geometry({1 << 14});
  FieldId f = m.allocate_field(g, "a", ElemType::kInt);
  EXPECT_GT(m.field_bytes(), 0u);
  m.free_field(f);
  EXPECT_EQ(m.field_bytes(), 0u);
  // Fits again after the free.
  m.allocate_field(g, "b", ElemType::kInt);
}

// ---- snapshot codec access ----

// The VM's snapshot codec (src/ucvm/checkpoint.cpp) walks field slots in
// allocation order and skips freed ones; the machine RNG is saved and
// restored through rng().
TEST(MachineFaults, FieldSlotsSkipFreedFieldsAndRngReseeds) {
  Machine m;
  GeomId g = m.create_geometry({8});
  FieldId a = m.allocate_field(g, "a", ElemType::kInt);
  FieldId b = m.allocate_field(g, "b", ElemType::kInt);
  m.free_field(a);
  ASSERT_EQ(m.field_slots(), 2u);
  EXPECT_EQ(m.field_at(static_cast<std::size_t>(a.index)), nullptr);
  EXPECT_EQ(m.field_at(static_cast<std::size_t>(b.index)), &m.field(b));

  const std::uint64_t state = m.rng().state();
  const std::uint64_t draw = m.rng().next();
  m.rng().seed(state);
  EXPECT_EQ(m.rng().next(), draw);
}

}  // namespace
}  // namespace uc::cm
