// The signal-controller interface shared by all policies and both simulators.
//
// A controller instance manages exactly one intersection (decentralized
// control). decide() is invoked once per mini-slot with the current local
// state and returns the phase that must be displayed *now* — including the
// transition phase (index 0), whose timing the policy manages itself.
#pragma once

#include <limits>
#include <memory>
#include <string>

#include "src/core/observation.hpp"
#include "src/net/phase.hpp"

namespace abp::core {

class SignalController {
 public:
  virtual ~SignalController() = default;

  // Returns the phase to display at obs.time. Implementations must be
  // monotone in time: calls arrive with non-decreasing obs.time.
  [[nodiscard]] virtual net::PhaseIndex decide(const IntersectionObservation& obs) = 0;

  // The time before which a decide() on an *idle* observation — every link's
  // queue reading 0 and every outgoing road below its capacity, all other
  // readings arbitrary — returns the phase the previous decide() returned
  // and changes no state: at any `time < idle_hold_until()`. Its value may
  // change only in decide() and reset(), so a simulator can cache it after
  // each decision and skip the idle calls it covers. The control step both
  // backends share (sim::RunCore) does, where the backend reports the
  // junction idle: the queue sim, whose readings are exact, and the micro
  // sim with a perfect sensor. The default, -infinity, covers no call; only
  // a policy that can prove the property overrides it, and decorators keep
  // the default because they have per-decision side effects of their own.
  [[nodiscard]] virtual double idle_hold_until() const {
    return -std::numeric_limits<double>::infinity();
  }

  // Restores the initial state so the controller can be reused for a new run.
  virtual void reset() = 0;

  // Short policy name for reports ("UTIL-BP", "CAP-BP", ...).
  [[nodiscard]] virtual std::string name() const = 0;
};

using ControllerPtr = std::unique_ptr<SignalController>;

}  // namespace abp::core
