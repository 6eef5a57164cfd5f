// Fault-injection harness for the serving resilience layer.
//
// A stalled or crashed estimate is worse than an approximate one: the query
// optimizer can always fall back to classical selectivity math, so every
// failure in the estimation stack must degrade — never hang, never abort.
// Proving that requires *forcing* the failures, which is what this harness
// does: test code arms a FaultPoint with a trigger budget, and the
// instrumented production site (arena allocation, weight packing, plan
// compilation, checkpoint writes, snapshot publication, fine-tune rounds)
// consults the injector and throws serve::FaultInjectedError when its
// point fires. The `ctest -L resilience` suite drives every fault class
// through the serving stack and asserts a flagged degraded answer or a
// clean error each time (docs/resilience.md §6 has the fault matrix).
//
// Cost model: every instrumented site performs ONE relaxed atomic load of
// a global armed-point counter when nothing is armed — unmeasurable next
// to the model math around it. For builds where even that is unwanted,
// configure with -DDUET_FAULT_INJECTION=OFF: the macro below compiles every
// hook to nothing and the class degenerates to constant-false inlines, so
// release binaries carry no injection surface at all.
//
// Thread-safety: all members are static and atomic; Arm/Disarm/ShouldFail
// may race freely (a trigger is consumed exactly once).
#ifndef DUET_SERVE_FAULT_INJECTOR_H_
#define DUET_SERVE_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace duet::serve {

/// Instrumented failure sites, one per fault class the resilience suite
/// exercises. Keep docs/resilience.md §6 in sync when adding a point.
enum class FaultPoint : int {
  kNeuralForward = 0,   ///< serving dispatch: the neural estimate call throws
  kAllocation = 1,      ///< a NoGradScope arena buffer acquisition fails
  kPackWeights = 2,     ///< tensor::PackWeights (backend repack) fails
  kPlanCompile = 3,     ///< nn::GetOrCompilePlan compilation fails
  kCheckpointWrite = 4, ///< core::SaveModuleFile tears the file mid-write
  kPublish = 5,         ///< serve::ModelRegistry::Publish fails
  kFineTuneDiverge = 6, ///< core::CloneAndFineTune candidate diverges (NaN)
  kNetSnapshotStream = 7,  ///< net::NetServer tears a snapshot stream mid-transfer
  kNumFaultPoints = 8,
};

/// The exception every armed fault point throws. Derives from
/// std::runtime_error so un-instrumented catch sites treat it like any
/// other operational failure — which is the point: injected faults must
/// flow through exactly the production error paths.
class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(const std::string& what) : std::runtime_error(what) {}
};

#if defined(DUET_FAULT_INJECTION_DISABLED)

/// Compile-time no-op variant (-DDUET_FAULT_INJECTION=OFF): every method
/// is a constant-foldable inline, so instrumented sites emit no code.
class FaultInjector {
 public:
  static constexpr bool Enabled() { return false; }
  static void Arm(FaultPoint, uint64_t, uint64_t = 0) {}
  static void Disarm(FaultPoint) {}
  static void DisarmAll() {}
  static constexpr bool ShouldFail(FaultPoint) { return false; }
  static void MaybeThrow(FaultPoint, const char*) {}
  static constexpr uint64_t fired(FaultPoint) { return 0; }
};

#else

/// Process-wide fault-point registry. Arm(point, count, skip) makes the
/// next `skip` triggers of `point` pass and the `count` after them fail;
/// once the budget is spent the point disarms itself, so a test that arms
/// 3 failures observes exactly 3 degraded answers and then recovery.
class FaultInjector {
 public:
  /// Whether injection support is compiled in (this variant: yes).
  static constexpr bool Enabled() { return true; }

  /// Arms `point`: after `skip` passes, the next `count` triggers fail.
  static void Arm(FaultPoint point, uint64_t count, uint64_t skip = 0);

  /// Disarms one point (pending budget discarded).
  static void Disarm(FaultPoint point);

  /// Disarms every point. Tests call this in SetUp/TearDown so a failed
  /// assertion can never leak armed faults into the next test.
  static void DisarmAll();

  /// Consumes one trigger of `point`; true iff the site must fail now.
  /// One relaxed load when nothing is armed anywhere.
  static bool ShouldFail(FaultPoint point);

  /// Convenience for throwing sites: ShouldFail -> throw FaultInjectedError.
  static void MaybeThrow(FaultPoint point, const char* what) {
    if (ShouldFail(point)) throw FaultInjectedError(what);
  }

  /// Cumulative times `point` actually fired (for test assertions).
  static uint64_t fired(FaultPoint point);
};

#endif  // DUET_FAULT_INJECTION_DISABLED

}  // namespace duet::serve

#endif  // DUET_SERVE_FAULT_INJECTOR_H_
