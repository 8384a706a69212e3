// The round-barrier protocol shared by fraig, cut rewriting and the §II
// parallel sweep. Each evaluates a round in parallel and commits it in
// canonical order; between rounds, on the calling thread, a RoundGate runs
// the run-control policy on the engine's ResourceGuard:
//   begin_round  deterministic checkpoint, quarantined-round skip, the
//                round's fault point, and the halt bookkeeping;
//   admit        the per-unit quarantine filter, called in canonical order
//                while the round's work list is built;
//   contain      runs the parallel batch (or commit loop) and turns an
//                injected fault thrown from it into a Fault halt with the
//                site and unit recorded.
// Recovering a faulted round's partial work stays in the engines. A gate
// given no guard binds its own unlimited one, so engines never branch on a
// missing guard.
#pragma once

#include "util/budget.hpp"
#include "util/fault.hpp"

#include <cstddef>
#include <cstdint>

namespace smartly::util {

/// Skip: a quarantined round, keep iterating. Stop: halted (budget, cancel,
/// deadline or the round fault point).
enum class RoundStep { Run, Skip, Stop };

class RoundGate {
public:
  /// `round_site` ("fraig.round", ...) is the round fault point and the
  /// quarantine site naming whole rounds.
  RoundGate(ResourceGuard* guard, const char* round_site)
      : guard_(guard != nullptr ? *guard : own_), round_site_(round_site) {}
  RoundGate(const RoundGate&) = delete;
  RoundGate& operator=(const RoundGate&) = delete;

  ResourceGuard& guard() noexcept { return guard_; }

  /// Open 1-based round `round`; `cells` feeds the growth budget (0 = skip).
  RoundStep begin_round(uint64_t round, uint64_t cells = 0) {
    // The only place deterministic budgets arm the halt flag, so the same
    // budget trips at the same round for every thread count.
    if (guard_.checkpoint(cells)) {
      stop();
      return RoundStep::Stop;
    }
    if (guard_.quarantined(round_site_, round)) {
      ++quarantined_;
      return RoundStep::Skip;
    }
    if (fault_point(round_site_, round) != FaultAction::None) {
      stop_on_fault(round_site_, round);
      return RoundStep::Stop;
    }
    return RoundStep::Run;
  }

  /// False, and counted in quarantined(), when the quarantine names `unit`
  /// under `site`.
  bool admit(const char* site, uint64_t unit) {
    const bool skip = guard_.quarantined(site, unit);
    quarantined_ += skip ? 1 : 0;
    return !skip;
  }

  /// Run `batch()`; false when an injected fault thrown from it was
  /// contained: the caller restores its own state and stops. Real errors
  /// keep propagating.
  template <class Batch>
  bool contain(Batch&& batch) {
    try {
      batch();
      return true;
    } catch (const FaultInjected& e) {
      stop_on_fault(e.site().c_str(), e.unit());
      return false;
    }
  }

  bool halted() const noexcept { return halted_; } ///< stopped early
  /// Rounds skipped plus units filtered by the quarantine.
  size_t quarantined() const noexcept { return quarantined_; }

private:
  void stop() noexcept {
    halted_ = true;
    guard_.note_halted_engine();
  }
  void stop_on_fault(const char* site, uint64_t unit) noexcept {
    guard_.note_fault(site, unit);
    guard_.halt(BudgetKind::Fault);
    stop();
  }

  ResourceGuard own_; ///< bound when the caller passed no guard
  ResourceGuard& guard_;
  const char* round_site_;
  bool halted_ = false;
  size_t quarantined_ = 0;
};

} // namespace smartly::util
