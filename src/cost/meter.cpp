#include "cost/meter.hpp"

namespace lwmpi::cost {

std::string_view to_string(Category c) noexcept {
  switch (c) {
    case Category::ErrCheck: return "err-check";
    case Category::ThreadGate: return "thread-gate";
    case Category::CallOverhead: return "call-overhead";
    case Category::Redundant: return "redundant";
    case Category::MandRankmap: return "mand-rankmap(3.1)";
    case Category::MandVa: return "mand-va(3.2)";
    case Category::MandObject: return "mand-object(3.3)";
    case Category::MandProcNull: return "mand-proc-null(3.4)";
    case Category::MandRequest: return "mand-request(3.5)";
    case Category::MandMatch: return "mand-match(3.6)";
    case Category::MandLocality: return "mand-locality";
    case Category::MandInject: return "mand-inject";
    case Category::OrigLayering: return "orig-layering";
    case Category::kCount: break;
  }
  return "?";
}

std::string_view to_string(Group g) noexcept {
  switch (g) {
    case Group::ErrorChecking: return "error-checking";
    case Group::ThreadSafety: return "thread-safety";
    case Group::FunctionCall: return "function-call";
    case Group::RedundantChecks: return "redundant-runtime-checks";
    case Group::Mandatory: return "mpi-mandatory";
    case Group::OrigLayering: return "orig-layering";
    case Group::kCount: break;
  }
  return "?";
}

}  // namespace lwmpi::cost
