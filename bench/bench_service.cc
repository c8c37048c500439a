// Service-layer throughput: a mixed workload-family batch driven through
// TypecheckService at 1/2/4/8 worker threads, cold cache (a fresh service —
// and thus a fresh compile cache — per iteration) vs warm cache (one
// pre-warmed service reused across iterations, so every artifact lookup
// hits). The cold/warm gap isolates what the content-addressed compile
// cache amortizes — Glushkov + subset construction + completion +
// inhabitation + selector compilation — from the per-request engine work
// that repeats regardless. items_per_second counts requests, so the
// PR acceptance ratio (warm@4 >= 3x cold@1) reads directly off the report.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "src/service/compile_cache.h"
#include "src/service/replay.h"
#include "src/service/service.h"
#include "src/workload/families.h"

namespace xtc {
namespace {

// The mix pairs engine-bound typecheck slices (filter/relab/xpath/nfa at
// sizes whose per-request engine run is cheap) with compile-bound validate
// slices against hostile NFA schemas: determinizing (a|b)*a(a|b)^{n-1}
// costs 2^n DFA states at compile time, while validating a document against
// the compiled artifact is a linear walk. The cold run pays every
// determinization; the warm run hits the content-addressed cache and pays
// only the walks — exactly the gap the cache exists to open. `distinct`
// sizes per family bound the number of cache keys so the warm run is pure
// hits after one pass.
std::vector<ServiceRequest> BenchBatch() {
  struct Slice {
    const char* family;
    int n;
    int count;
    int distinct;
  };
  const Slice kMix[] = {
      {"filter", 6, 8, 4},
      {"relab", 6, 8, 4},
      {"xpath", 6, 8, 4},
      {"nfa", 4, 6, 2},
  };
  std::vector<ServiceRequest> batch;
  int id = 0;
  for (const Slice& slice : kMix) {
    StatusOr<std::vector<ServiceRequest>> sub =
        MakeFamilyBatch(slice.family, slice.n, slice.count, slice.distinct);
    XTC_CHECK_MSG(sub.ok(), sub.status().ToString().c_str());
    for (ServiceRequest& request : *sub) {
      request.id = ++id;
      batch.push_back(std::move(request));
    }
  }
  // Validate slices: n=16 would exceed the determinization state cap, so
  // 13..15 are the heaviest compiles the service accepts.
  for (int n = 13; n <= 15; ++n) {
    StatusOr<SchemaSpec> schema = SerializeSchema(*NfaSchemaFamily(n).din);
    XTC_CHECK_MSG(schema.ok(), schema.status().ToString().c_str());
    std::string tree = "r(";
    for (int i = 0; i < n; ++i) tree += i == 0 ? "a" : " a";
    tree += ")";
    for (int i = 0; i < 4; ++i) {
      ServiceRequest request;
      request.id = ++id;
      request.op = ServiceOp::kValidate;
      request.schema = *schema;
      request.tree = tree;
      batch.push_back(std::move(request));
    }
  }
  return batch;
}

void RunBatch(TypecheckService* service,
              const std::vector<ServiceRequest>& batch) {
  std::vector<std::future<ServiceResponse>> futures;
  futures.reserve(batch.size());
  for (const ServiceRequest& request : batch) {
    futures.push_back(service->Submit(request));
  }
  for (std::future<ServiceResponse>& future : futures) {
    ServiceResponse response = future.get();
    XTC_CHECK_MSG(response.status.ok(), response.status.ToString().c_str());
    benchmark::DoNotOptimize(response.typechecks);
  }
}

TypecheckService::Options ServiceOptions(int threads) {
  TypecheckService::Options options;
  options.num_threads = static_cast<std::size_t>(threads);
  options.queue_capacity = 4096;
  return options;
}

void BM_ServiceColdCache(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const std::vector<ServiceRequest> batch = BenchBatch();
  for (auto _ : state) {
    TypecheckService service(ServiceOptions(threads));
    RunBatch(&service, batch);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_ServiceColdCache)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_ServiceWarmCache(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const std::vector<ServiceRequest> batch = BenchBatch();
  TypecheckService service(ServiceOptions(threads));
  RunBatch(&service, batch);  // warm-up pass populates every cache key
  for (auto _ : state) {
    RunBatch(&service, batch);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_ServiceWarmCache)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// Warm-hit contention: N threads hammer GetOrCompileSchema against ONE
// shared, prewarmed cache over a small key set, so every lookup resolves on
// the lock-free snapshot path. This is the sharded cache's proof row: with
// the old single-mutex table the per-op time grows with thread count (a
// convoy); with snapshot reads it should stay near flat, so the scaling
// ratio N*ns(1)/ns(N) approaches N (ci/ratio_gate.py enforces floors on
// multi-core hosts). Thread count rides in Arg() rather than ->Threads()
// because the bench JSON reporter strips /key:value name suffixes, which
// would drop a Threads() count from the row; manual time brackets exactly
// the hammer loop, not thread spawn.
void BM_CacheWarmHitContention(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  constexpr int kKeys = 8;
  constexpr int kOpsPerThread = 4096;
  struct Key {
    SchemaSpec spec;
    std::shared_ptr<Alphabet> alphabet;
  };
  CompileCache cache;
  std::vector<Key> keys;
  for (int n = 3; n < 3 + kKeys; ++n) {
    StatusOr<ServiceRequest> request =
        TypecheckRequestFromExample(FilterFamily(n));
    XTC_CHECK_MSG(request.ok(), request.status().ToString().c_str());
    StatusOr<std::vector<std::string>> universe = CollectUniverse(*request);
    XTC_CHECK_MSG(universe.ok(), universe.status().ToString().c_str());
    Key key;
    key.spec = request->din;
    key.alphabet = cache.GetOrCreateAlphabet(*universe);
    XTC_CHECK(cache.GetOrCompileSchema(key.spec, key.alphabet, nullptr).ok());
    keys.push_back(std::move(key));
  }
  for (auto _ : state) {
    std::atomic<bool> go{false};
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&cache, &keys, &go, t] {
        while (!go.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        for (int op = 0; op < kOpsPerThread; ++op) {
          const Key& key = keys[static_cast<std::size_t>(t + op) % kKeys];
          bool hit = false;
          StatusOr<std::shared_ptr<const CompiledSchema>> artifact =
              cache.GetOrCompileSchema(key.spec, key.alphabet, &hit);
          benchmark::DoNotOptimize(artifact);
        }
      });
    }
    auto start = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (std::thread& worker : pool) worker.join();
    state.SetIterationTime(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count());
  }
  state.SetItemsProcessed(state.iterations() * threads * kOpsPerThread);
}
BENCHMARK(BM_CacheWarmHitContention)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->UseManualTime();

}  // namespace
}  // namespace xtc
