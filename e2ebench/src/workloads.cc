#include "e2ebench/src/workloads.h"

namespace e2ebench {
namespace {

Slot Warm(Family family, int n, int weight, std::uint64_t deadline_ms = 0) {
  return Slot{Klass::kWarm, Shape{family, n}, Keys::kPrewarmed, weight,
              deadline_ms};
}

Slot Fresh(Klass klass, Family family, int n, int weight,
           std::uint64_t deadline_ms = 0) {
  return Slot{klass, Shape{family, n}, Keys::kFresh, weight, deadline_ms};
}

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> all;

  // The daemon's steady state: a small prewarmed key set of cheap
  // instances, two keys per family, and Theorem 20 repeats that resume a
  // parked lazy snapshot.
  WorkloadSpec warm;
  warm.name = "warm_repeat";
  for (Family family :
       {Family::kFilter, Family::kXPath, Family::kRelab, Family::kFailing}) {
    warm.slots.push_back(Warm(family, 6, 2));
    warm.slots.push_back(Warm(family, 6, 2));
  }
  warm.slots.push_back(Warm(Family::kDelRelab, 8, 1));
  warm.slots.push_back(Warm(Family::kDelRelab, 8, 1));
  warm.limit_ms = 5;
  all.push_back(warm);

  // Every request carries schemas and a transducer never seen before, at
  // a fixed size, over the cheap-engine families: every artifact lookup
  // misses, compiles, inserts and in time evicts.
  WorkloadSpec cold;
  cold.name = "cold_compile";
  for (Family family : {Family::kFilter, Family::kFailing, Family::kXPath,
                        Family::kRelab}) {
    cold.slots.push_back(Fresh(Klass::kCold, family, 6, 1));
  }
  cold.slots.push_back(Fresh(Klass::kCold, Family::kWidth, 2, 1));
  cold.limit_ms = 10;
  all.push_back(cold);

  // Never-seen instances whose cost is in the engines, weighted inversely
  // to their cost so that each family takes a similar share of engine time.
  WorkloadSpec hard;
  hard.name = "fresh_hard";
  hard.slots.push_back(Fresh(Klass::kCold, Family::kWidth, 4, 32));
  hard.slots.push_back(Fresh(Klass::kCold, Family::kRePlus, 6, 16));
  hard.slots.push_back(Fresh(Klass::kCold, Family::kNfa, 6, 3));
  hard.slots.push_back(Fresh(Klass::kCold, Family::kDelRelab, 12, 1));
  hard.limit_ms = 100;
  hard.window_s = 2;
  all.push_back(hard);

  // An open loop above capacity: 80% warm repeats, 10% truly cold
  // compiles, and a 10% hostile DTD(NFA) slice whose determinization
  // dwarfs its deadline.
  WorkloadSpec over;
  over.name = "overload";
  over.open_loop = true;
  over.offered_qps = 3000;
  for (int key = 0; key < 4; ++key) {
    over.slots.push_back(Warm(Family::kFilter, 6, 8, /*deadline_ms=*/100));
  }
  over.slots.push_back(Fresh(Klass::kCold, Family::kXPath, 6, 4, 100));
  // Four hostile keys, never prewarmed: their compile always runs out of
  // deadline, so it is never cached and every hostile request pays it.
  for (int key = 0; key < 4; ++key) {
    over.slots.push_back(Slot{Klass::kHostile, Shape{Family::kNfa, 10},
                              Keys::kFixed, 1, /*deadline_ms=*/20});
  }
  over.limit_ms = 50;
  all.push_back(over);
  return all;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> all = MakeWorkloads();
  return all;
}

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return spec;
  }
  return std::nullopt;
}

}  // namespace e2ebench
