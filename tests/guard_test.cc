// Tests for src/guard: deadlines, cancellation tokens, fit-health
// reports, the deterministic fault injector, and how the LM / Nelder-Mead
// solvers behave under each guard signal and injected fault.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <thread>
#include <vector>

#include "guard/fault_injector.h"
#include "guard/guard.h"
#include "optimize/levenberg_marquardt.h"
#include "optimize/nelder_mead.h"

namespace dspot {
namespace {

// The injector is process-global: every test that arms it must disarm it,
// and a stale armed state from a buggy test must not poison its
// neighbors. The fixture guarantees both directions.
class GuardTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Disarm(); }
  void TearDown() override { FaultInjector::Instance().Disarm(); }
};

// ---------------------------------------------------------------------------
// Deadline

TEST_F(GuardTest, DefaultDeadlineIsInfinite) {
  Deadline d;
  EXPECT_FALSE(d.armed());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(std::isinf(d.remaining_ms()));
  EXPECT_FALSE(Deadline::Infinite().armed());
}

TEST_F(GuardTest, NonPositiveBudgetIsAlreadyExpired) {
  EXPECT_TRUE(Deadline::AfterMillis(0.0).expired());
  EXPECT_TRUE(Deadline::AfterMillis(-5.0).expired());
  EXPECT_LE(Deadline::AfterMillis(-5.0).remaining_ms(), 0.0);
}

TEST_F(GuardTest, GenerousBudgetIsNotExpired) {
  Deadline d = Deadline::AfterMillis(1e7);
  EXPECT_TRUE(d.armed());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_ms(), 0.0);
}

TEST_F(GuardTest, ExplicitInstantInThePastIsExpired) {
  const auto past =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  EXPECT_TRUE(Deadline::At(past).expired());
}

// ---------------------------------------------------------------------------
// CancellationToken

TEST_F(GuardTest, DefaultTokenIsInertAndCancelIsANoOp) {
  CancellationToken token;
  EXPECT_FALSE(token.armed());
  EXPECT_FALSE(token.cancelled());
  token.Cancel();  // must not crash or change anything
  EXPECT_FALSE(token.cancelled());
}

TEST_F(GuardTest, CancellableTokenCopiesShareTheFlag) {
  CancellationToken token = CancellationToken::Cancellable();
  CancellationToken copy = token;
  EXPECT_TRUE(token.armed());
  EXPECT_FALSE(token.cancelled());
  copy.Cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(copy.cancelled());
}

TEST_F(GuardTest, CancelFromAnotherThreadIsVisible) {
  CancellationToken token = CancellationToken::Cancellable();
  std::thread other([token] { token.Cancel(); });
  other.join();
  EXPECT_TRUE(token.cancelled());
}

// ---------------------------------------------------------------------------
// GuardContext

TEST_F(GuardTest, InactiveContextChecksOk) {
  GuardContext guard;
  EXPECT_FALSE(guard.active());
  EXPECT_TRUE(guard.Check("test").ok());
}

TEST_F(GuardTest, ExpiredDeadlineChecksDeadlineExceededWithContext) {
  GuardContext guard;
  guard.deadline = Deadline::AfterMillis(-1.0);
  EXPECT_TRUE(guard.active());
  Status status = guard.Check("MyCheckpoint");
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(status.message().find("MyCheckpoint"), std::string::npos);
}

TEST_F(GuardTest, CancellationBeatsDeadline) {
  GuardContext guard;
  guard.deadline = Deadline::AfterMillis(-1.0);
  guard.cancel = CancellationToken::Cancellable();
  guard.cancel.Cancel();
  EXPECT_EQ(guard.Check("test").code(), StatusCode::kCancelled);
}

TEST_F(GuardTest, InjectedDeadlineExpiryFiresWithoutWallTime) {
  FaultInjector::Instance().ArmExact(FaultSite::kDeadlineExpiry, 0);
  GuardContext guard;  // inactive, but the injected expiry still fires
  EXPECT_EQ(guard.Check("test").code(), StatusCode::kDeadlineExceeded);
  // The exact draw was consumed: later checks pass again.
  EXPECT_TRUE(guard.Check("test").ok());
}

// ---------------------------------------------------------------------------
// FitHealth

TEST_F(GuardTest, HealthMergeAddsCountersAndKeepsWorstTermination) {
  FitHealth a;
  a.iterations = 3;
  a.restarts = 1;
  a.wall_time_ms = 10.0;
  a.termination = FitTermination::kDeadlineExceeded;
  FitHealth b;
  b.iterations = 4;
  b.wall_time_ms = 2.5;
  b.termination = FitTermination::kMaxIterations;
  b.Merge(a);
  EXPECT_EQ(b.iterations, 7);
  EXPECT_EQ(b.restarts, 1);
  EXPECT_DOUBLE_EQ(b.wall_time_ms, 12.5);
  EXPECT_EQ(b.termination, FitTermination::kDeadlineExceeded);
  // Merging a milder report back does not downgrade the termination.
  FitHealth mild;
  b.Merge(mild);
  EXPECT_EQ(b.termination, FitTermination::kDeadlineExceeded);
}

TEST_F(GuardTest, HealthInterruptedFlagsOnlyGuardTerminations) {
  FitHealth h;
  EXPECT_FALSE(h.interrupted());
  h.termination = FitTermination::kStalled;
  EXPECT_FALSE(h.interrupted());
  h.termination = FitTermination::kDeadlineExceeded;
  EXPECT_TRUE(h.interrupted());
  h.termination = FitTermination::kCancelled;
  EXPECT_TRUE(h.interrupted());
}

TEST_F(GuardTest, HealthToStringNamesTheTermination) {
  FitHealth h;
  h.termination = FitTermination::kDeadlineExceeded;
  h.iterations = 12;
  EXPECT_NE(h.ToString().find("DeadlineExceeded"), std::string::npos);
  EXPECT_STREQ(FitTerminationName(FitTermination::kCancelled), "Cancelled");
}

// ---------------------------------------------------------------------------
// FaultInjector

TEST_F(GuardTest, DisarmedInjectorNeverFires) {
  EXPECT_FALSE(FaultInjector::Instance().armed());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(MaybeInjectFault(FaultSite::kNanAtResidual));
  }
}

TEST_F(GuardTest, RateOneFiresEveryDrawRateZeroNever) {
  FaultInjector& injector = FaultInjector::Instance();
  injector.Arm(/*seed=*/7, /*rate=*/1.0);
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(injector.ShouldFire(FaultSite::kSolverFailure));
  }
  injector.Arm(/*seed=*/7, /*rate=*/0.0);
  for (int i = 0; i < 16; ++i) {
    EXPECT_FALSE(injector.ShouldFire(FaultSite::kSolverFailure));
  }
  EXPECT_TRUE(injector.armed());  // armed at rate 0 still counts draws
  EXPECT_EQ(injector.draws(FaultSite::kSolverFailure), 16u);
  EXPECT_EQ(injector.fired(FaultSite::kSolverFailure), 0u);
}

TEST_F(GuardTest, ArmExactFiresExactlyTheNthDraw) {
  FaultInjector& injector = FaultInjector::Instance();
  injector.ArmExact(FaultSite::kAllocation, /*nth=*/2);
  EXPECT_FALSE(injector.ShouldFire(FaultSite::kAllocation));
  EXPECT_FALSE(injector.ShouldFire(FaultSite::kAllocation));
  EXPECT_TRUE(injector.ShouldFire(FaultSite::kAllocation));
  EXPECT_FALSE(injector.ShouldFire(FaultSite::kAllocation));
  EXPECT_EQ(injector.fired(FaultSite::kAllocation), 1u);
}

TEST_F(GuardTest, FiringSequenceIsAPureFunctionOfTheSeed) {
  FaultInjector& injector = FaultInjector::Instance();
  auto draw_sequence = [&](uint64_t seed) {
    injector.Arm(seed, /*rate=*/0.5);
    std::vector<bool> fires;
    for (int i = 0; i < 64; ++i) {
      fires.push_back(injector.ShouldFire(FaultSite::kNanAtResidual));
    }
    return fires;
  };
  const std::vector<bool> run1 = draw_sequence(42);
  const std::vector<bool> run2 = draw_sequence(42);
  EXPECT_EQ(run1, run2);
  EXPECT_NE(run1, draw_sequence(43));
}

TEST_F(GuardTest, ArmSiteLeavesOtherSitesDisarmed) {
  FaultInjector& injector = FaultInjector::Instance();
  injector.ArmSite(FaultSite::kNanAtResidual, /*seed=*/1, /*rate=*/1.0);
  EXPECT_TRUE(injector.ShouldFire(FaultSite::kNanAtResidual));
  EXPECT_FALSE(injector.ShouldFire(FaultSite::kSolverFailure));
  EXPECT_FALSE(injector.ShouldFire(FaultSite::kDeadlineExpiry));
}

TEST_F(GuardTest, DisarmResetsEverything) {
  FaultInjector& injector = FaultInjector::Instance();
  injector.Arm(/*seed=*/9, /*rate=*/1.0);
  (void)injector.ShouldFire(FaultSite::kAllocation);
  injector.Disarm();
  EXPECT_FALSE(injector.armed());
  EXPECT_FALSE(injector.ShouldFire(FaultSite::kAllocation));
  EXPECT_EQ(injector.draws(FaultSite::kAllocation), 0u);
  EXPECT_EQ(injector.fired(FaultSite::kAllocation), 0u);
}

TEST_F(GuardTest, SeedFromEnvParsesOrFallsBack) {
  ASSERT_EQ(::setenv("DSPOT_FAULT_SEED", "12345", 1), 0);
  EXPECT_EQ(FaultInjector::SeedFromEnv(7), 12345u);
  ASSERT_EQ(::setenv("DSPOT_FAULT_SEED", "not-a-number", 1), 0);
  EXPECT_EQ(FaultInjector::SeedFromEnv(7), 7u);
  ASSERT_EQ(::unsetenv("DSPOT_FAULT_SEED"), 0);
  EXPECT_EQ(FaultInjector::SeedFromEnv(7), 7u);
}

TEST_F(GuardTest, FaultSiteNamesAreStable) {
  EXPECT_STREQ(FaultSiteName(FaultSite::kNanAtResidual), "NanAtResidual");
  EXPECT_STREQ(FaultSiteName(FaultSite::kDeadlineExpiry), "DeadlineExpiry");
}

// ---------------------------------------------------------------------------
// Levenberg-Marquardt under guards and faults

// A benign 2-parameter least-squares problem: r = p - (3, -2). The solver
// reaches the optimum in a couple of iterations, so guard behavior — not
// optimization difficulty — decides each test's outcome.
ResidualFn QuadraticResidual() {
  return [](const std::vector<double>& p, std::vector<double>* r) {
    r->assign({p[0] - 3.0, p[1] + 2.0});
    return Status::Ok();
  };
}

TEST_F(GuardTest, LmUnguardedConverges) {
  auto result = LevenbergMarquardt(QuadraticResidual(), {0.0, 0.0});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->health.termination, FitTermination::kConverged);
  EXPECT_EQ(result->health.restarts, 0);
  EXPECT_NEAR(result->params[0], 3.0, 1e-6);
  EXPECT_NEAR(result->params[1], -2.0, 1e-6);
}

TEST_F(GuardTest, LmExpiredDeadlineReturnsBestSoFarAsOk) {
  LmOptions options;
  options.guard.deadline = Deadline::AfterMillis(-1.0);
  auto result = LevenbergMarquardt(QuadraticResidual(), {0.0, 0.0},
                                   Bounds(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->health.termination, FitTermination::kDeadlineExceeded);
  // No iteration ran, so the "best so far" is the initial point.
  ASSERT_EQ(result->params.size(), 2u);
  EXPECT_TRUE(std::isfinite(result->params[0]));
  EXPECT_TRUE(std::isfinite(result->final_cost));
}

TEST_F(GuardTest, LmCancellationAbortsWithStatus) {
  LmOptions options;
  options.guard.cancel = CancellationToken::Cancellable();
  options.guard.cancel.Cancel();
  auto result = LevenbergMarquardt(QuadraticResidual(), {0.0, 0.0},
                                   Bounds(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(GuardTest, LmInjectedDeadlineExpiryUnwindsWithoutWallTime) {
  FaultInjector::Instance().ArmExact(FaultSite::kDeadlineExpiry, 0);
  auto result = LevenbergMarquardt(QuadraticResidual(), {0.0, 0.0});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->health.termination, FitTermination::kDeadlineExceeded);
}

TEST_F(GuardTest, LmNanAtInitialCostRecoversViaRestart) {
  FaultInjector::Instance().ArmExact(FaultSite::kNanAtResidual, 0);
  auto result = LevenbergMarquardt(QuadraticResidual(), {0.0, 0.0});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result->health.restarts, 1);
  EXPECT_EQ(result->health.termination, FitTermination::kConverged);
  EXPECT_NEAR(result->params[0], 3.0, 1e-6);
  EXPECT_NEAR(result->params[1], -2.0, 1e-6);
}

TEST_F(GuardTest, LmRestartRecoveryIsDeterministic) {
  auto run = [] {
    FaultInjector::Instance().ArmExact(FaultSite::kNanAtResidual, 0);
    auto result = LevenbergMarquardt(QuadraticResidual(), {0.0, 0.0});
    FaultInjector::Instance().Disarm();
    return result;
  };
  auto a = run();
  auto b = run();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Bit-identical, not merely close: restarts draw their jitter from
  // Random(kRestartSeed).Child(attempt), a pure function of the start.
  EXPECT_EQ(a->params, b->params);
  EXPECT_EQ(a->final_cost, b->final_cost);
  EXPECT_EQ(a->health.restarts, b->health.restarts);
}

TEST_F(GuardTest, LmNanWithRestartsDisabledIsACleanNumericalError) {
  FaultInjector::Instance().ArmExact(FaultSite::kNanAtResidual, 0);
  LmOptions options;
  options.max_restarts = 0;  // pre-guard behavior
  auto result = LevenbergMarquardt(QuadraticResidual(), {0.0, 0.0},
                                   Bounds(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNumericalError);
}

TEST_F(GuardTest, LmInjectedSolverFailureClimbsLambdaAndStillConverges) {
  FaultInjector::Instance().ArmExact(FaultSite::kSolverFailure, 0);
  auto result = LevenbergMarquardt(QuadraticResidual(), {0.0, 0.0});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NEAR(result->params[0], 3.0, 1e-6);
  for (double v : result->params) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST_F(GuardTest, LmInjectedAllocationFailureIsACleanInternalError) {
  FaultInjector::Instance().ArmExact(FaultSite::kAllocation, 0);
  auto result = LevenbergMarquardt(QuadraticResidual(), {0.0, 0.0});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("injected"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Nelder-Mead under guards

double Paraboloid(const std::vector<double>& p) {
  return (p[0] - 1.0) * (p[0] - 1.0) + (p[1] + 4.0) * (p[1] + 4.0);
}

TEST_F(GuardTest, NelderMeadUnguardedConverges) {
  auto result = NelderMead(Paraboloid, {0.0, 0.0});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->health.termination, FitTermination::kConverged);
  EXPECT_NEAR(result->params[0], 1.0, 1e-4);
}

TEST_F(GuardTest, NelderMeadExpiredDeadlineReturnsBestVertexAsOk) {
  NelderMeadOptions options;
  options.guard.deadline = Deadline::AfterMillis(-1.0);
  auto result = NelderMead(Paraboloid, {0.0, 0.0}, Bounds(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->health.termination, FitTermination::kDeadlineExceeded);
  ASSERT_EQ(result->params.size(), 2u);
  EXPECT_TRUE(std::isfinite(result->final_value));
}

TEST_F(GuardTest, NelderMeadCancellationAbortsWithStatus) {
  NelderMeadOptions options;
  options.guard.cancel = CancellationToken::Cancellable();
  options.guard.cancel.Cancel();
  auto result = NelderMead(Paraboloid, {0.0, 0.0}, Bounds(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(GuardTest, NelderMeadInjectedDeadlineExpiryUnwinds) {
  FaultInjector::Instance().ArmExact(FaultSite::kDeadlineExpiry, 0);
  auto result = NelderMead(Paraboloid, {0.0, 0.0});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->health.termination, FitTermination::kDeadlineExceeded);
}

}  // namespace
}  // namespace dspot
