#ifndef E2EBENCH_SRC_WORKLOADS_H_
#define E2EBENCH_SRC_WORKLOADS_H_

#include <optional>
#include <string>
#include <vector>

#include "e2ebench/src/gen.h"

namespace e2ebench {

/// One benchmark workload: a request mix and how it is offered. README.md
/// gives the reason for each and the layer metrics it should move.
struct WorkloadSpec {
  std::string name;
  std::vector<Slot> slots;
  /// Closed loop: kClients threads each send their next request when the
  /// previous one is answered. Open loop: one generator sends on a fixed
  /// schedule of `offered_qps`, whatever the service does, and one
  /// harvester collects the answers.
  bool open_loop = false;
  double offered_qps = 0;
  /// Latency limit of goodput: an ok answer within it counts.
  double limit_ms = 0;
  /// The end-to-end metrics are taken per window of this length and the
  /// median window is reported: the machine's speed drifts over seconds.
  /// A window holds at least 1000 answers, so its p99 has ten beyond it.
  double window_s = 1;
};

/// Service workers, and closed-loop client threads: workers plus harness
/// threads make 4, the nproc the benchmark was tuned on.
inline constexpr int kServiceThreads = 2;
inline constexpr int kClients = 2;
/// Open loop: the run fails when the generator's p99 lateness is above
/// this; shared 4-vCPU VMs show stalls of 5-10 ms.
inline constexpr double kLagCeilingMs = 20;

/// warm_repeat, cold_compile, fresh_hard, overload.
const std::vector<WorkloadSpec>& Workloads();
std::optional<WorkloadSpec> FindWorkload(const std::string& name);

}  // namespace e2ebench

#endif  // E2EBENCH_SRC_WORKLOADS_H_
