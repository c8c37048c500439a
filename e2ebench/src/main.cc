// xtc_e2ebench: the end-to-end NDJSON typecheck benchmark (README.md).
//
//   xtc_e2ebench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//                [--spans-out=<file>] [--commit=<id>] [--source=<digest>]
//
// --trace=0 times request lines through ParseServiceRequest ->
// TypecheckService::Submit -> ServiceResponse::ToJsonLine on the harness's
// own clock and prints the end-to-end metrics. --trace=1 drives the same
// requests through each layer's public calls with spans and prints the
// per-layer metrics. The last stdout line is one JSON object; the exit
// code is nonzero on a wrong verdict, a failed request or a failed
// workload self-check.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "e2ebench/src/gen.h"
#include "e2ebench/src/oracle.h"
#include "e2ebench/src/stats.h"
#include "e2ebench/src/trace.h"
#include "e2ebench/src/workloads.h"
#include "src/base/budget.h"
#include "src/core/relab.h"
#include "src/core/typecheck.h"
#include "src/service/service.h"
#include "src/tree/codec.h"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

namespace e2ebench {
namespace {

using Clock = std::chrono::steady_clock;

/// Set-up is timed in two rounds, one before the run and one after it,
/// since the machine's speed drifts over seconds. Each round repeats at
/// least kSetupMinReps times and until kSetupRoundSeconds have passed (at
/// most kSetupMaxReps); setup_s is the median over both rounds.
constexpr int kSetupMinReps = 5;
constexpr int kSetupMaxReps = 1001;
constexpr double kSetupRoundSeconds = 0.75;
constexpr std::uint64_t kCacheProbeRequests = 2000;
/// Requests of the traced pass whose engine counters are summed: whole
/// blocks from a block boundary, so the sums repeat exactly.
constexpr std::uint64_t kCountWindowMin = 64;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

struct Flags {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
  std::string commit = "unknown";
  std::string source = "unknown";
};

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

std::optional<Flags> ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "--workload", &v)) {
      flags.workload = v;
    } else if (ParseFlag(argv[i], "--seed", &v)) {
      flags.seed = std::stoull(v);
    } else if (ParseFlag(argv[i], "--seconds", &v)) {
      flags.seconds = std::stod(v);
    } else if (ParseFlag(argv[i], "--trace", &v)) {
      flags.trace = v == "1";
    } else if (ParseFlag(argv[i], "--spans-out", &v)) {
      flags.spans_out = v;
    } else if (ParseFlag(argv[i], "--commit", &v)) {
      flags.commit = v;
    } else if (ParseFlag(argv[i], "--source", &v)) {
      flags.source = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return std::nullopt;
    }
  }
  if (flags.workload.empty() || !(flags.seconds > 0)) return std::nullopt;
  return flags;
}

// ---------------------------------------------------------------------------
// Set-up: inputs, service, prewarm.

struct Harness {
  WorkloadSpec spec;
  std::optional<RequestSource> source;
  std::vector<std::string> fixed_lines;  ///< by slot; empty for fresh slots
  std::unique_ptr<xtc::TypecheckService> service;

  const Slot& SlotOf(const Item& item) const {
    return spec.slots[static_cast<std::size_t>(item.slot)];
  }
  /// A slot with a fixed tag always sends its one prerendered line, byte
  /// for byte.
  std::string LineFor(const Item& item) const {
    return SlotOf(item).keys == Keys::kFresh
               ? source->Line(item)
               : fixed_lines[static_cast<std::size_t>(item.slot)];
  }
};

xtc::StatusOr<std::unique_ptr<Harness>> SetUp(const WorkloadSpec& spec,
                                              std::uint64_t seed) {
  auto h = std::make_unique<Harness>();
  h->spec = spec;
  XTC_ASSIGN_OR_RETURN(RequestSource source,
                       RequestSource::Make(spec.slots, seed));
  h->source.emplace(std::move(source));
  h->fixed_lines.resize(spec.slots.size());
  std::vector<Item> fixed = h->source->FixedItems();
  for (const Item& item : fixed) {
    h->fixed_lines[static_cast<std::size_t>(item.slot)] = h->source->Line(item);
  }
  xtc::TypecheckService::Options options;
  options.num_threads = kServiceThreads;
  h->service = std::make_unique<xtc::TypecheckService>(options);
  // Prewarm: compile every warm key and park its lazy snapshot.
  for (const Item& item : fixed) {
    if (h->SlotOf(item).keys != Keys::kPrewarmed) continue;
    xtc::ServiceRequest request = h->source->Request(item);
    request.deadline_ms = 0;
    xtc::ServiceResponse response = h->service->Process(request);
    if (!response.status.ok()) {
      return xtc::InvalidArgumentError("prewarm failed: " +
                                       response.status.message());
    }
  }
  return h;
}

// Sets up repeatedly for one round (see kSetupRoundSeconds), appending
// each duration to `times`; returns the last harness.
xtc::StatusOr<std::unique_ptr<Harness>> TimeSetUps(const WorkloadSpec& spec,
                                                   std::uint64_t seed,
                                                   std::vector<double>* times) {
  std::unique_ptr<Harness> h;
  double round_s = 0;
  for (int rep = 0; rep < kSetupMaxReps; ++rep) {
    if (rep >= kSetupMinReps && round_s >= kSetupRoundSeconds) break;
    h.reset();
    const Clock::time_point t0 = Clock::now();
    XTC_ASSIGN_OR_RETURN(h, SetUp(spec, seed));
    times->push_back(Ms(Clock::now() - t0) / 1e3);
    round_s += times->back();
  }
  return h;
}

// ---------------------------------------------------------------------------
// Timed loops.

struct RunResult {
  std::vector<Reply> replies;
  /// Accounted compile-cache bytes once kCacheProbeRequests requests were
  /// answered (closed loop; at the end if fewer were), or at the end of the
  /// schedule (open loop, whose arrival count the schedule fixes). A fixed
  /// request count keeps the figure independent of the service's speed.
  std::size_t cache_bytes = 0;
  std::uint64_t next_index = 0;      ///< first sequence index not sent
  std::vector<double> harness_us;    ///< open loop: parse+submit+render
};

void SortById(std::vector<Reply>* replies) {
  std::sort(replies->begin(), replies->end(),
            [](const Reply& a, const Reply& b) {
              return a.item.id < b.item.id;
            });
}

// One request through the wire path: parse, submit, wait, render the
// response line as xtcd would.
xtc::ServiceResponse SendLine(xtc::TypecheckService& service,
                              const std::string& line) {
  xtc::StatusOr<xtc::ServiceRequest> request = xtc::ParseServiceRequest(line);
  if (!request.ok()) {
    xtc::ServiceResponse response;
    response.status = request.status();
    return response;
  }
  xtc::ServiceResponse response = service.Submit(*std::move(request)).get();
  response.ToJsonLine();
  return response;
}

RunResult RunClosed(Harness& h, int clients, std::uint64_t first,
                    double seconds) {
  std::atomic<std::uint64_t> next{first};
  std::atomic<std::size_t> probed_bytes{0};
  std::vector<std::vector<Reply>> per_client(static_cast<std::size_t>(clients));
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto& replies = per_client[static_cast<std::size_t>(c)];
      while (Clock::now() < end) {
        const std::uint64_t index = next.fetch_add(1);
        const Item item = h.source->At(index);
        const std::string line = h.LineFor(item);
        const Clock::time_point sent = Clock::now();
        xtc::ServiceResponse response = SendLine(*h.service, line);
        const Clock::time_point done = Clock::now();
        Reply reply = MakeReply(item, response);
        reply.latency_ms = Ms(done - sent);
        reply.at_s = Ms(done - start) / 1e3;
        replies.push_back(std::move(reply));
        if (index == first + kCacheProbeRequests) {
          probed_bytes.store(h.service->cache().stats().bytes);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  RunResult result;
  result.cache_bytes = probed_bytes.load();
  if (result.cache_bytes == 0) {
    result.cache_bytes = h.service->cache().stats().bytes;
  }
  result.next_index = next.load();
  for (auto& replies : per_client) {
    for (Reply& r : replies) result.replies.push_back(std::move(r));
  }
  SortById(&result.replies);
  return result;
}

// The open loop: a generator thread sends on a fixed schedule; a harvester
// thread polls the outstanding futures and stamps each answer when it is
// seen ready. Latency runs from the scheduled send time, so generator
// stalls count against the service as a real client population would see.
// Spans, when the tracers are enabled: request.parse and service.submit on
// the generator; service.queue, service.exec, core.engine.<family> (rebuilt
// from the response's own timing fields) and request.render on the
// harvester.
RunResult RunOpen(Harness& h, std::uint64_t first, double seconds,
                  Tracer& gen_tracer, Tracer& harvest_tracer) {
  struct Pending {
    Item item;
    Clock::time_point scheduled;
    Clock::time_point sent;
    double send_us = 0;
    std::future<xtc::ServiceResponse> future;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> handoff;
  bool generator_done = false;

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / h.spec.offered_qps));
  const auto arrivals =
      static_cast<std::uint64_t>(seconds * h.spec.offered_qps);
  RunResult result;
  result.next_index = first + arrivals;

  std::thread generator([&] {
    for (std::uint64_t k = 0; k < arrivals; ++k) {
      const Item item = h.source->At(first + k);
      const std::string line = h.LineFor(item);
      Pending p;
      p.item = item;
      p.scheduled = start + period * static_cast<Clock::rep>(k);
      std::this_thread::sleep_until(p.scheduled);
      p.sent = Clock::now();
      xtc::StatusOr<xtc::ServiceRequest> request = [&] {
        ScopedSpan span(gen_tracer, "request.parse", item.id);
        return xtc::ParseServiceRequest(line);
      }();
      if (request.ok()) {
        ScopedSpan span(gen_tracer, "service.submit", item.id);
        p.future = h.service->Submit(*std::move(request));
      } else {
        std::promise<xtc::ServiceResponse> failed;
        xtc::ServiceResponse response;
        response.status = request.status();
        failed.set_value(response);
        p.future = failed.get_future();
      }
      p.send_us = Ms(Clock::now() - p.sent) * 1e3;
      {
        std::lock_guard<std::mutex> lock(mu);
        handoff.push_back(std::move(p));
      }
      cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      generator_done = true;
    }
    cv.notify_one();
  });

  std::thread harvester([&] {
    std::vector<Pending> outstanding;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (outstanding.empty()) {
          cv.wait(lock, [&] { return generator_done || !handoff.empty(); });
        }
        for (Pending& p : handoff) outstanding.push_back(std::move(p));
        handoff.clear();
        if (generator_done && outstanding.empty()) break;
      }
      bool any = false;
      for (std::size_t i = 0; i < outstanding.size();) {
        Pending& p = outstanding[i];
        if (p.future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++i;
          continue;
        }
        const Clock::time_point seen = Clock::now();
        xtc::ServiceResponse response = p.future.get();
        const Clock::time_point render_start = Clock::now();
        {
          ScopedSpan span(harvest_tracer, "request.render", p.item.id);
          response.ToJsonLine();
        }
        const Clock::time_point done = Clock::now();
        if (harvest_tracer.enabled() &&
            response.tier != xtc::AdmissionTier::kRejected) {
          // Rebuild the service-side intervals from the response: the
          // execution ended about when the answer was seen.
          auto ms = [](double v) {
            return std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(v));
          };
          const Clock::time_point exec_start = seen - ms(response.elapsed_ms);
          harvest_tracer.Add("service.queue", p.item.id, -1,
                             exec_start - ms(response.queue_ms), exec_start);
          int exec = harvest_tracer.Add("service.exec", p.item.id, -1,
                                        exec_start, seen);
          if (response.engine_ms > 0) {
            const std::string name =
                std::string("core.engine.") +
                FamilyName(h.source->TemplateOf(p.item).shape().family);
            harvest_tracer.Add(name.c_str(), p.item.id, exec,
                               seen - ms(response.engine_ms), seen);
          }
        }
        Reply reply = MakeReply(p.item, response);
        reply.latency_ms = Ms(seen - p.scheduled);
        reply.lag_ms = Ms(p.sent - p.scheduled);
        reply.at_s = Ms(p.scheduled - start) / 1e3;
        result.replies.push_back(std::move(reply));
        result.harness_us.push_back(p.send_us + Ms(done - render_start) * 1e3);
        outstanding[i] = std::move(outstanding.back());
        outstanding.pop_back();
        any = true;
      }
      if (!any) std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  generator.join();
  harvester.join();
  result.cache_bytes = h.service->cache().stats().bytes;
  SortById(&result.replies);
  return result;
}

// ---------------------------------------------------------------------------
// The traced pass: TypecheckService::Execute's typecheck path at the exact
// tier, call for call, with a span around each layer's public call.

struct EngineCounts {
  std::uint64_t requests = 0;
  std::uint64_t configs = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t product_states = 0;
  std::uint64_t pruned_configs = 0;
};

xtc::ServiceResponse TracedExecute(xtc::CompileCache& cache,
                                   const std::string& line, std::int64_t id,
                                   Family family, Tracer& tr,
                                   xtc::TypecheckStats* engine_stats) {
  ScopedSpan root(tr, "request", id);
  const int parent = root.index();
  xtc::ServiceResponse response;
  response.id = id;
  auto timed = [&](const char* name, Clock::time_point start) {
    tr.Add(name, id, parent, start, Clock::now());
  };

  xtc::StatusOr<xtc::ServiceRequest> parsed = [&] {
    ScopedSpan span(tr, "request.parse", id, parent);
    return xtc::ParseServiceRequest(line);
  }();
  if (!parsed.ok()) {
    response.status = parsed.status();
    return response;
  }
  const xtc::ServiceRequest& request = *parsed;
  xtc::WallTimer timer;
  auto finish = [&](xtc::Status status) {
    response.status = std::move(status);
    response.elapsed_ms = timer.elapsed_ms();
    ScopedSpan span(tr, "request.render", id, parent);
    response.ToJsonLine();
    return response;
  };

  const xtc::TypecheckService::Options service_defaults;
  xtc::Budget budget;
  xtc::Budget* budget_ptr = nullptr;
  const std::uint64_t deadline_ms = request.deadline_ms != 0
                                        ? request.deadline_ms
                                        : service_defaults.default_deadline_ms;
  if (deadline_ms != 0) {
    budget.set_deadline_until(Clock::now() +
                              std::chrono::milliseconds(deadline_ms));
    budget_ptr = &budget;
  }
  auto compile_cap_ms = [&]() -> std::uint64_t {
    if (budget_ptr == nullptr) return 0;
    std::optional<double> left = budget_ptr->remaining_ms();
    if (!left.has_value()) return 0;
    return static_cast<std::uint64_t>(std::llround(std::max(*left, 1.0)));
  };

  xtc::StatusOr<std::vector<std::string>> universe = [&] {
    ScopedSpan span(tr, "request.universe", id, parent);
    return xtc::CollectUniverse(request);
  }();
  if (!universe.ok()) return finish(universe.status());
  const std::shared_ptr<xtc::Alphabet> alphabet = [&] {
    ScopedSpan span(tr, "compile_cache.alphabet", id, parent);
    return cache.GetOrCreateAlphabet(*universe);
  }();

  auto lookup_schema = [&](const xtc::SchemaSpec& spec) {
    bool hit = false;
    const Clock::time_point start = Clock::now();
    auto artifact =
        cache.GetOrCompileSchema(spec, alphabet, &hit, compile_cap_ms());
    timed(hit ? "compile_cache.hit" : "compile_cache.miss", start);
    if (artifact.ok()) (hit ? response.cache_hits : response.cache_misses)++;
    return artifact;
  };
  auto din = lookup_schema(request.din);
  if (!din.ok()) return finish(din.status());
  auto dout = lookup_schema(request.dout);
  if (!dout.ok()) return finish(dout.status());
  bool hit = false;
  const Clock::time_point td_start = Clock::now();
  auto td = cache.GetOrCompileTransducer(request.transducer, alphabet, &hit,
                                         compile_cap_ms());
  timed(hit ? "compile_cache.hit" : "compile_cache.miss", td_start);
  if (!td.ok()) return finish(td.status());
  (hit ? response.cache_hits : response.cache_misses)++;

  xtc::TypecheckOptions options;
  options.budget = budget_ptr;
  options.want_counterexample = request.want_counterexample;
  options.approximate_fallback = request.approximate_fallback;
  options.emptiness_threads = std::clamp(
      request.threads, 1, std::max(service_defaults.max_request_threads, 1));
  options.antichain = request.antichain >= 0 ? request.antichain != 0
                                             : service_defaults.antichain;
  options.dense_threshold = request.dense_threshold > 0
                                ? request.dense_threshold
                                : service_defaults.dense_threshold;
  options.widths = &(*td)->widths;
  options.din_determinized = (*din)->determinized.get();
  options.dout_determinized = (*dout)->determinized.get();
  const std::string lazy_key = (*din)->key + '\x1f' + (*dout)->key + '\x1f' +
                               (*td)->key + '\x1f' +
                               (options.antichain ? '1' : '0');
  std::shared_ptr<const xtc::LazySnapshot> lazy_resume;
  xtc::LazySnapshot lazy_export;
  const bool delrelab = request.engine == xtc::TypecheckEngine::kDelRelab;
  if (delrelab) {
    ScopedSpan span(tr, "compile_cache.lazy_get", id, parent);
    lazy_resume = cache.GetLazySnapshot(lazy_key);
    options.lazy_resume = lazy_resume.get();
    options.lazy_export = &lazy_export;
  }
  xtc::StatusOr<xtc::TypecheckResult> result = [&] {
    const std::string name = std::string("core.engine.") + FamilyName(family);
    ScopedSpan span(tr, name.c_str(), id, parent);
    return delrelab ? xtc::TypecheckDelRelab(*(*td)->selector_free,
                                             *(*din)->dtd, *(*dout)->dtd,
                                             options)
                    : xtc::Typecheck(*(*td)->selector_free, *(*din)->dtd,
                                     *(*dout)->dtd, options);
  }();
  if (!result.ok()) return finish(result.status());
  if (lazy_export.complete) {
    ScopedSpan span(tr, "compile_cache.lazy_put", id, parent);
    cache.PutLazySnapshot(lazy_key, std::make_shared<xtc::LazySnapshot>(
                                        std::move(lazy_export)));
  }
  response.typechecks = result->typechecks;
  response.approximate = result->approximate;
  response.engine_ms = result->stats.elapsed_ms;
  *engine_stats = result->stats;
  if (result->counterexample != nullptr) {
    ScopedSpan span(tr, "tree.witness", id, parent);
    response.counterexample = xtc::ToTermString(result->counterexample,
                                                *alphabet);
  }
  return finish(xtc::Status::Ok());
}

struct DirectResult {
  std::vector<Reply> replies;
  double traced_s = 0;  ///< time in traced blocks
  double untraced_s = 0;
  std::uint64_t traced = 0;  ///< requests in traced blocks
  std::uint64_t untraced = 0;
  EngineCounts counts;  ///< summed over the first `window` traced requests
};

// Drives whole blocks of requests, from `first` (a block boundary),
// through TracedExecute on the calling thread, alternating untraced and
// traced blocks so that both see the same mix and the same drift of the
// machine; their time per request gives the tracing overhead. Stops after
// a traced block once `seconds` have passed and `window` traced requests
// were counted.
DirectResult RunDirect(Harness& h, std::uint64_t first, std::uint64_t block,
                       std::uint64_t window, double seconds, Tracer& tracer) {
  DirectResult result;
  Tracer off(false, Clock::now());
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (std::uint64_t b = 0;; ++b) {
    const bool traced = b % 2 == 1;
    if (!traced && result.traced >= window && Clock::now() >= end) break;
    const Clock::time_point block_start = Clock::now();
    for (std::uint64_t i = first + b * block; i < first + (b + 1) * block;
         ++i) {
      const Item item = h.source->At(i);
      const std::string line = h.LineFor(item);
      const Clock::time_point sent = Clock::now();
      xtc::TypecheckStats stats;
      xtc::ServiceResponse response = TracedExecute(
          h.service->cache(), line, item.id,
          h.source->TemplateOf(item).shape().family, traced ? tracer : off,
          &stats);
      Reply reply = MakeReply(item, response);
      reply.latency_ms = Ms(Clock::now() - sent);
      result.replies.push_back(std::move(reply));
      if (traced && result.counts.requests < window) {
        result.counts.requests++;
        result.counts.configs += stats.configs;
        result.counts.evaluations += stats.evaluations;
        result.counts.product_states += stats.product_states;
        result.counts.pruned_configs += stats.pruned_configs;
      }
    }
    const double block_s = Ms(Clock::now() - block_start) / 1e3;
    (traced ? result.traced_s : result.untraced_s) += block_s;
    (traced ? result.traced : result.untraced) += block;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Judging and reporting.

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t errors = 0;
  std::uint64_t wrong = 0;
  std::uint64_t artifact_hits = 0;  ///< response cache_hits, summed
  std::vector<std::string> problems;  ///< the first few errors and wrongs
};

// Judges every reply into `tally`; returns the outcomes, in reply order.
std::vector<Outcome> JudgeAll(Oracle& oracle, const std::vector<Reply>& replies,
                              Tally* tally) {
  std::vector<Outcome> outcomes;
  for (const Reply& reply : replies) {
    std::string why;
    tally->attempted++;
    tally->artifact_hits += reply.cache_hits;
    outcomes.push_back(oracle.Judge(reply, &why));
    switch (outcomes.back()) {
      case Outcome::kOk:
        tally->ok++;
        break;
      case Outcome::kShed:
        tally->shed++;
        break;
      case Outcome::kExpired:
        tally->expired++;
        break;
      case Outcome::kError:
        tally->errors++;
        break;
      case Outcome::kWrong:
        tally->wrong++;
        break;
    }
    if (!why.empty() && tally->problems.size() < 5) {
      tally->problems.push_back(why);
    }
  }
  return outcomes;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

/// p50 of the values, 0 when there are none.
double P50(std::vector<double> v) { return Percentile(v, 50); }
double P99(std::vector<double> v) { return Percentile(v, 99); }

xtc::CompileCache::Stats CacheDelta(const xtc::CompileCache::Stats& a,
                                    const xtc::CompileCache::Stats& b) {
  xtc::CompileCache::Stats d = b;
  d.hits -= a.hits;
  d.misses -= a.misses;
  d.evictions -= a.evictions;
  d.lazy_hits -= a.lazy_hits;
  d.lazy_misses -= a.lazy_misses;
  d.lock_waits -= a.lock_waits;
  return d;
}

// The workload self-checks: each workload must have exercised the layer
// it exists for. Returns the failures.
std::vector<std::string> SelfChecks(const WorkloadSpec& spec,
                                    const Tally& tally,
                                    const xtc::CompileCache::Stats& cache,
                                    const xtc::ServiceStats& service,
                                    double lag_p99_ms) {
  std::vector<std::string> failures;
  auto require = [&](bool cond, const std::string& what) {
    if (!cond) failures.push_back(spec.name + ": " + what);
  };
  if (spec.name == "warm_repeat") {
    require(cache.misses == 0, "artifact misses after prewarm: " +
                                   std::to_string(cache.misses));
    require(cache.lazy_hits > 0, "no lazy snapshot was resumed");
  } else if (spec.name == "cold_compile") {
    require(tally.artifact_hits == 0,
            "artifact lookups hit the cache: " +
                std::to_string(tally.artifact_hits));
  } else if (spec.name == "fresh_hard") {
    require(cache.lazy_hits == 0, "a lazy snapshot was resumed");
    require(cache.lazy_misses > 0, "no delrelab request ran");
  } else if (spec.name == "overload") {
    require(service.shed > 0, "nothing was shed");
    require(lag_p99_ms <= kLagCeilingMs,
            "generator lag p99 " + Number(lag_p99_ms) + " ms above " +
                Number(kLagCeilingMs) + " ms");
  }
  return failures;
}

int Run(const Flags& flags) {
  std::optional<WorkloadSpec> spec = FindWorkload(flags.workload);
  if (!spec.has_value()) {
    std::fprintf(stderr, "unknown workload '%s' (", flags.workload.c_str());
    for (const WorkloadSpec& w : Workloads()) {
      std::fprintf(stderr, " %s", w.name.c_str());
    }
    std::fprintf(stderr, " )\n");
    return 2;
  }
  if (std::strcmp(E2EBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "refusing to measure a %s build; configure with "
                         "-DCMAKE_BUILD_TYPE=Release\n",
                 E2EBENCH_BUILD_TYPE);
    return 2;
  }
  const int harness_threads = spec->open_loop ? 2 : kClients;
  std::printf(
      "meta {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"commit\": \"%s\", \"source_sha256\": \"%s\", "
      "\"build_type\": \"%s\", \"nproc\": %u, \"service_threads\": %d, "
      "\"harness_threads\": %d}\n",
      spec->name.c_str(), static_cast<unsigned long long>(flags.seed),
      Number(flags.seconds).c_str(), flags.trace ? 1 : 0,
      JsonEscape(flags.commit).c_str(), JsonEscape(flags.source).c_str(),
      E2EBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
      kServiceThreads, harness_threads);

  // The last harness of the first set-up round is the one measured.
  std::vector<double> setup_s;
  xtc::StatusOr<std::unique_ptr<Harness>> made =
      TimeSetUps(*spec, flags.seed, &setup_s);
  if (!made.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 made.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Harness> h = *std::move(made);
  Oracle oracle(*h->source);
  xtc::TypecheckService& service = *h->service;
  const xtc::CompileCache::Stats cache_before = service.cache().stats();
  const xtc::ServiceStats service_before = service.stats();
  const Clock::time_point epoch = Clock::now();

  std::vector<Metric> metrics;
  Tally tally;
  std::vector<std::string> failures;

  if (!flags.trace) {
    Tracer off(false, epoch);
    RunResult run = spec->open_loop
                        ? RunOpen(*h, 0, flags.seconds, off, off)
                        : RunClosed(*h, kClients, 0, flags.seconds);
    const std::vector<Outcome> outcomes =
        JudgeAll(oracle, run.replies, &tally);
    const xtc::ServiceStats service_after = service.stats();
    const xtc::CompileCache::Stats cache_delta =
        CacheDelta(cache_before, service_after.cache);
    if (!TimeSetUps(*spec, flags.seed, &setup_s).ok()) {
      failures.push_back("the second set-up round failed");
    }

    // Each metric is taken per window (WorkloadSpec::window_s) and the
    // median window is reported. Replies fall into windows by when they
    // were answered (closed loop) or due (open loop).
    struct Window {
      std::vector<double> latencies;  ///< of ok answers
      std::uint64_t attempted = 0;
      std::uint64_t ok = 0;
      std::uint64_t on_time = 0;
      std::uint64_t protected_arrivals = 0;
      std::uint64_t protected_on_time = 0;
    };
    const std::size_t num_windows = std::max<std::size_t>(
        1, static_cast<std::size_t>(flags.seconds / spec->window_s));
    const double window_s = std::min(spec->window_s, flags.seconds);
    std::vector<Window> windows(num_windows);
    std::vector<double> lags;
    std::size_t samples = 0;
    for (std::size_t k = 0; k < run.replies.size(); ++k) {
      const Reply& r = run.replies[k];
      lags.push_back(r.lag_ms);
      Window& w = windows[std::min(num_windows - 1,
                                   static_cast<std::size_t>(r.at_s /
                                                            window_s))];
      w.attempted++;
      // On the open loop the protected class is the warm one; a closed
      // loop has one class and every request counts.
      const bool counted =
          !spec->open_loop || h->SlotOf(r.item).klass == Klass::kWarm;
      if (counted) w.protected_arrivals++;
      if (outcomes[k] != Outcome::kOk) continue;
      samples++;
      w.ok++;
      w.latencies.push_back(r.latency_ms);
      if (r.latency_ms <= spec->limit_ms) {
        w.on_time++;
        if (counted) w.protected_on_time++;
      }
    }
    auto median_of = [&](auto per_window) {
      std::vector<double> v;
      for (Window& w : windows) v.push_back(per_window(w));
      return Median(std::move(v));
    };
    auto ratio = [](std::uint64_t num, std::uint64_t den) {
      return den == 0 ? 0.0
                      : static_cast<double>(num) / static_cast<double>(den);
    };
    const double lag_p99 = P99(lags);
    std::printf("windows ok/s:");
    for (const Window& w : windows) std::printf(" %.0f", w.ok / window_s);
    std::printf("\n");
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"latency_p50_ms",
         median_of([](Window& w) { return Percentile(w.latencies, 50); }),
         "ms"},
        {"latency_p99_ms",
         median_of([](Window& w) { return Percentile(w.latencies, 99); }),
         "ms"},
        {"throughput_rps",
         median_of([&](Window& w) { return w.ok / window_s; }), "1/s"},
        {"goodput_rps",
         median_of([&](Window& w) { return w.on_time / window_s; }), "1/s"},
        {"warm_goodput_frac", median_of([&](Window& w) {
           return ratio(w.protected_on_time, w.protected_arrivals);
         }),
         "frac"},
        {"ok_frac",
         median_of([&](Window& w) { return ratio(w.ok, w.attempted); }),
         "frac"},
        {"cache_mb", static_cast<double>(run.cache_bytes) / (1 << 20), "MB"},
    };
    std::printf("samples latency=%zu windows=%zu attempted=%llu ok=%llu "
                "shed=%llu expired=%llu lag_p99_ms=%s lag_max_ms=%s\n",
                samples, num_windows,
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.ok),
                static_cast<unsigned long long>(tally.shed),
                static_cast<unsigned long long>(tally.expired),
                Number(lag_p99).c_str(),
                Number(lags.empty() ? 0
                                    : *std::max_element(lags.begin(),
                                                        lags.end()))
                    .c_str());
    if (samples < 1000 * num_windows) {
      std::printf("note: %zu latency samples in %zu windows; a window's p99 "
                  "wants at least 1000\n",
                  samples, num_windows);
    }
    std::vector<std::string> checks =
        SelfChecks(*spec, tally, cache_delta, service_after, lag_p99);
    failures.insert(failures.end(), checks.begin(), checks.end());
  } else {
    // Open loop: phase A runs the schedule without spans, phase B with
    // them. Closed loops: phase A is the timed wire path, for the service
    // layer's numbers; phase B drives each layer's calls directly,
    // alternating untraced and traced blocks.
    const double a_s = flags.seconds / (spec->open_loop ? 2 : 3);
    const double b_s = flags.seconds - a_s;
    Tracer off(false, epoch);
    Tracer gen_tracer(true, epoch);
    Tracer tracer(true, epoch);  // the direct pass, or the harvester
    RunResult a = spec->open_loop ? RunOpen(*h, 0, a_s, off, off)
                                  : RunClosed(*h, kClients, 0, a_s);
    const xtc::ServiceStats service_mid = service.stats();
    // Phase B starts at a block boundary so its count window repeats.
    const std::uint64_t block =
        static_cast<std::uint64_t>([&] {
          int sum = 0;
          for (const Slot& s : spec->slots) sum += s.weight;
          return sum;
        }());
    const std::uint64_t first_b = (a.next_index + block - 1) / block * block;
    const std::uint64_t window =
        (kCountWindowMin + block - 1) / block * block;
    RunResult b_open;
    DirectResult b_direct;
    if (spec->open_loop) {
      b_open = RunOpen(*h, first_b, b_s, gen_tracer, tracer);
    } else {
      b_direct = RunDirect(*h, first_b, block, window, b_s, tracer);
    }
    const std::vector<Reply>& b_replies =
        spec->open_loop ? b_open.replies : b_direct.replies;
    JudgeAll(oracle, a.replies, &tally);
    JudgeAll(oracle, b_replies, &tally);
    const xtc::ServiceStats service_after = service.stats();
    const xtc::CompileCache::Stats cache_b =
        CacheDelta(service_mid.cache, service_after.cache);
    const xtc::CompileCache::Stats cache_all =
        CacheDelta(cache_before, service_after.cache);
    // Service counters come from the pass that went through Submit: the
    // open loop's traced pass, or the closed loop's wire pass.
    const xtc::ServiceStats& svc_from =
        spec->open_loop ? service_mid : service_before;
    const xtc::ServiceStats& svc_to =
        spec->open_loop ? service_after : service_mid;
    const std::vector<Reply>& svc_replies =
        spec->open_loop ? b_open.replies : a.replies;

    auto self_us = [&](const std::string& name) {
      std::vector<double> v = tracer.SelfTimesUs(name);
      std::vector<double> g = gen_tracer.SelfTimesUs(name);
      v.insert(v.end(), g.begin(), g.end());
      return v;
    };
    std::vector<double> queue_ms;
    std::vector<double> exec_ms;
    std::vector<double> lags;
    for (const Reply& r : svc_replies) {
      if (r.tier == xtc::AdmissionTier::kRejected) continue;
      queue_ms.push_back(r.queue_ms);
      exec_ms.push_back(r.elapsed_ms);
    }
    for (const Reply& r : b_open.replies) lags.push_back(r.lag_ms);
    // Tracing overhead: time per request with spans over time per request
    // without, minus 1. Closed loops compare the traced and untraced
    // blocks of the direct pass; the open loop compares the harness's own
    // send and render work of its two passes.
    double overhead = 0;
    if (spec->open_loop) {
      double mean_a = 0;
      double mean_b = 0;
      for (double v : a.harness_us) mean_a += v;
      for (double v : b_open.harness_us) mean_b += v;
      mean_a /= std::max<std::size_t>(a.harness_us.size(), 1);
      mean_b /= std::max<std::size_t>(b_open.harness_us.size(), 1);
      overhead = mean_a > 0 ? mean_b / mean_a - 1 : 0;
    } else {
      const double per_untraced =
          b_direct.untraced_s / static_cast<double>(b_direct.untraced);
      const double per_traced =
          b_direct.traced_s / static_cast<double>(b_direct.traced);
      overhead = per_traced / per_untraced - 1;
    }
    const double lookups =
        static_cast<double>(cache_b.hits + cache_b.misses);
    metrics = {
        {"request.parse_us", P50(self_us("request.parse")), "us"},
        {"request.universe_us", P50(self_us("request.universe")), "us"},
        {"request.render_us", P50(self_us("request.render")), "us"},
        {"compile_cache.alphabet_us", P50(self_us("compile_cache.alphabet")),
         "us"},
        {"compile_cache.hit_us", P50(self_us("compile_cache.hit")), "us"},
        {"compile_cache.miss_us", P50(self_us("compile_cache.miss")), "us"},
        {"compile_cache.miss_p99_us", P99(self_us("compile_cache.miss")),
         "us"},
        {"compile_cache.lazy_get_us", P50(self_us("compile_cache.lazy_get")),
         "us"},
        {"compile_cache.lazy_put_us", P50(self_us("compile_cache.lazy_put")),
         "us"},
        {"compile_cache.hits", static_cast<double>(cache_b.hits), "count"},
        {"compile_cache.misses", static_cast<double>(cache_b.misses),
         "count"},
        {"compile_cache.hit_ratio",
         lookups > 0 ? static_cast<double>(cache_b.hits) / lookups : 0,
         "frac"},
        {"compile_cache.evictions", static_cast<double>(cache_b.evictions),
         "count"},
        {"compile_cache.lock_waits", static_cast<double>(cache_b.lock_waits),
         "count"},
        {"compile_cache.lazy_hits", static_cast<double>(cache_b.lazy_hits),
         "count"},
        {"compile_cache.lazy_misses",
         static_cast<double>(cache_b.lazy_misses), "count"},
        {"compile_cache.bytes", static_cast<double>(service_after.cache.bytes),
         "bytes"},
        {"compile_cache.entries",
         static_cast<double>(service_after.cache.entries), "count"},
    };
    for (int f = 0; f < kNumFamilies; ++f) {
      const char* family = FamilyName(static_cast<Family>(f));
      metrics.push_back({std::string("core.engine_us.") + family,
                         P50(self_us(std::string("core.engine.") + family)),
                         "us"});
    }
    const EngineCounts& counts = b_direct.counts;
    auto svc_delta = [](std::uint64_t to, std::uint64_t from) {
      return static_cast<double>(to - from);
    };
    const std::vector<Metric> rest = {
        {"core.configs", static_cast<double>(counts.configs), "count"},
        {"core.evaluations", static_cast<double>(counts.evaluations),
         "count"},
        {"core.product_states", static_cast<double>(counts.product_states),
         "count"},
        {"core.pruned_configs", static_cast<double>(counts.pruned_configs),
         "count"},
        {"tree.witness_us", P50(self_us("tree.witness")), "us"},
        {"service.queue_p50_ms", P50(queue_ms), "ms"},
        {"service.queue_p99_ms", P99(queue_ms), "ms"},
        {"service.exec_p50_ms", P50(exec_ms), "ms"},
        {"service.shed_queue_full",
         svc_delta(svc_to.shed_queue_full, svc_from.shed_queue_full),
         "count"},
        {"service.shed_overload",
         svc_delta(svc_to.shed_overload, svc_from.shed_overload), "count"},
        {"service.shed_deadline",
         svc_delta(svc_to.shed_deadline, svc_from.shed_deadline), "count"},
        {"service.expired_in_queue",
         svc_delta(svc_to.expired_in_queue, svc_from.expired_in_queue),
         "count"},
        {"service.tier_approximate",
         svc_delta(svc_to.tier_approximate, svc_from.tier_approximate),
         "count"},
        {"service.cost_ewma_ms", svc_to.cost_ewma_ms, "ms"},
        {"bench.lag_p99_ms", P99(lags), "ms"},
        {"bench.trace_overhead_frac", overhead, "frac"},
        {"bench.trace_samples",
         static_cast<double>(spec->open_loop ? b_open.replies.size()
                                             : b_direct.traced),
         "count"},
    };
    metrics.insert(metrics.end(), rest.begin(), rest.end());
    std::printf("note: core counters summed over the first %llu traced "
                "requests\n",
                static_cast<unsigned long long>(counts.requests));

    std::vector<std::string> checks =
        SelfChecks(*spec, tally, cache_all, service_after, P99(lags));
    failures.insert(failures.end(), checks.begin(), checks.end());

    if (!flags.spans_out.empty()) {
      std::string tsv =
          "# pass\tname\trequest\tspan\tparent\tstart_ns\tend_ns\n";
      gen_tracer.AppendTsv("generator", &tsv);
      tracer.AppendTsv(spec->open_loop ? "harvester" : "direct", &tsv);
      std::ofstream out(flags.spans_out, std::ios::binary | std::ios::trunc);
      out << tsv;
      if (!out) {
        failures.push_back("cannot write spans to " + flags.spans_out);
      }
    }
  }

  for (const std::string& problem : tally.problems) {
    std::fprintf(stderr, "problem: %s\n", problem.c_str());
  }
  if (tally.wrong > 0) {
    failures.push_back(std::to_string(tally.wrong) + " wrong verdicts");
  }
  if (tally.errors > 0) {
    failures.push_back(std::to_string(tally.errors) + " failed requests");
  }
  for (const std::string& f : failures) {
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-30s %s %s\n", m.name.c_str(),
                Number(m.value).c_str(), m.unit.c_str());
  }
  std::printf("metric %-30s %llu count\n", "wrong_verdicts",
              static_cast<unsigned long long>(tally.wrong));

  std::string json = "{\"correct\": ";
  json += failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.wrong + tally.errors);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  h.reset();
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  std::optional<e2ebench::Flags> flags = e2ebench::ParseFlags(argc, argv);
  if (!flags.has_value()) {
    std::fprintf(stderr,
                 "usage: %s --workload=<name> --seed=<n> --seconds=<s> "
                 "--trace=<0|1> [--spans-out=<file>] [--commit=<id>] "
                 "[--source=<digest>]\n",
                 argv[0]);
    return 2;
  }
  return e2ebench::Run(*flags);
}
