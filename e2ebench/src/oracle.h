#ifndef E2EBENCH_SRC_ORACLE_H_
#define E2EBENCH_SRC_ORACLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "e2ebench/src/gen.h"
#include "src/service/request.h"

namespace e2ebench {

/// What the harness keeps of one response, with its own timings.
struct Reply {
  Item item;
  xtc::StatusCode code = xtc::StatusCode::kOk;
  bool typechecks = false;
  bool approximate = false;
  xtc::AdmissionTier tier = xtc::AdmissionTier::kExact;
  xtc::ShedReason shed_reason = xtc::ShedReason::kNone;
  std::string counterexample;
  std::string error;  ///< the status message of a non-ok response
  double latency_ms = 0;  ///< harness clock: send (or schedule) to response
  double lag_ms = 0;      ///< open loop: how late the request was sent
  /// Seconds from the start of the run: when the answer came (closed
  /// loop) or when the request was due (open loop).
  double at_s = 0;
  double queue_ms = 0;    ///< the response's own fields
  double elapsed_ms = 0;
  double engine_ms = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

Reply MakeReply(const Item& item, const xtc::ServiceResponse& response);

/// How one reply is judged.
enum class Outcome {
  kOk,       ///< a right verdict
  kShed,     ///< refused at admission, or its deadline died in the queue
  kExpired,  ///< a request with a deadline ran out of it while executing
  kError,    ///< any other non-ok status: the run failed
  kWrong,    ///< a wrong verdict or a counterexample that does not verify
};

/// The verdict oracle. Every family typechecks except the failing one. A
/// negative verdict of the approximate tier may be a false alarm and is not
/// wrong; every other negative must carry a counterexample that passes
/// VerifyCounterexample. Verifications are memoised by (tag,
/// counterexample), since a tag names one instance of the run.
/// Thread-compatibility: compatible.
class Oracle {
 public:
  explicit Oracle(const RequestSource& source) : source_(source) {}

  /// `why` (optional) receives the reason for kError and kWrong.
  Outcome Judge(const Reply& reply, std::string* why);

 private:
  bool VerifyWitness(const Item& item, const std::string& counterexample);

  const RequestSource& source_;
  std::unordered_map<std::string, bool> verified_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_SRC_ORACLE_H_
