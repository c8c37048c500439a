#include "src/service/replay.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "src/fa/regex.h"
#include "src/stream/doc_gen.h"
#include "src/workload/families.h"

namespace xtc {
namespace {

// splitmix64 (Steele et al.): a full-avalanche mix, so consecutive
// (id, attempt) pairs land on decorrelated jitter values.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

StatusOr<SchemaSpec> SerializeSchema(const Dtd& dtd) {
  const Alphabet& alphabet = *dtd.alphabet();
  SchemaSpec spec;
  spec.start = alphabet.Name(dtd.start());
  for (int s = 0; s < dtd.num_symbols(); ++s) {
    if (!dtd.HasRule(s)) continue;
    const RegexPtr& re = dtd.RuleRegex(s);
    if (re == nullptr) {
      return UnimplementedError(
          "schema rule for '" + alphabet.Name(s) +
          "' is an explicit NFA/DFA; only regex rules are wire-serializable");
    }
    spec.rules.emplace_back(alphabet.Name(s), RegexToString(*re, alphabet));
  }
  return spec;
}

StatusOr<TransducerSpec> SerializeTransducer(const Transducer& t) {
  for (int i = 0; i < t.num_selectors(); ++i) {
    if (t.selector(i).pattern == nullptr) {
      return UnimplementedError(
          "DFA selectors have no wire syntax; compile them away first");
    }
  }
  TransducerSpec spec;
  for (int q = 0; q < t.num_states(); ++q) spec.states.push_back(t.StateName(q));
  spec.initial = t.StateName(t.initial());
  for (const auto& [key, rhs] : t.rules()) {
    spec.rules.push_back({t.StateName(key.first),
                          t.alphabet()->Name(key.second),
                          t.RhsToString(rhs)});
  }
  return spec;
}

StatusOr<ServiceRequest> TypecheckRequestFromExample(const PaperExample& ex) {
  ServiceRequest request;
  request.op = ServiceOp::kTypecheck;
  XTC_ASSIGN_OR_RETURN(request.din, SerializeSchema(*ex.din));
  XTC_ASSIGN_OR_RETURN(request.dout, SerializeSchema(*ex.dout));
  XTC_ASSIGN_OR_RETURN(request.transducer,
                       SerializeTransducer(*ex.transducer));
  return request;
}

SchemaSpec StreamDocSchemaSpec() {
  SchemaSpec spec;
  spec.start = "root";
  spec.rules.emplace_back("root", "(section|item)*");
  spec.rules.emplace_back("section", "(section|item)*");
  spec.rules.emplace_back("item", "%");
  return spec;
}

TransducerSpec StreamDocTransducerSpec() {
  // Initialized, not assigned: GCC 12 reports a false -Wrestrict on
  // assigning a literal to the std::string member here.
  TransducerSpec spec{.states = {"m"}, .initial = "m", .rules = {}};
  spec.rules.push_back({"m", "root", "root(m)"});
  spec.rules.push_back({"m", "section", "section(m)"});
  spec.rules.push_back({"m", "item", "item"});
  return spec;
}

TransducerSpec StreamDocCopyTransducerSpec() {
  TransducerSpec spec{.states = {"m"}, .initial = "m", .rules = {}};
  spec.rules.push_back({"m", "root", "root(m)"});
  // Two state leaves under one label: the second copy of every section's
  // children cannot stream and lands in the spill buffer.
  spec.rules.push_back({"m", "section", "section(m m)"});
  spec.rules.push_back({"m", "item", "item"});
  return spec;
}

StatusOr<std::vector<ServiceRequest>> MakeFamilyBatch(const std::string& family,
                                                      int n, int count,
                                                      int distinct) {
  if (count <= 0 || distinct <= 0 || n <= 0) {
    return InvalidArgumentError("family batch needs n, count, distinct >= 1");
  }
  std::vector<ServiceRequest> batch;
  batch.reserve(static_cast<std::size_t>(count));
  if (family == "vstream" || family == "tstream") {
    for (int i = 0; i < count; ++i) {
      StreamDocSpec doc_spec;
      doc_spec.shape = StreamDocSpec::Shape::kMixed;
      doc_spec.nodes = static_cast<std::uint64_t>(n + i % distinct);
      ServiceRequest request;
      request.id = i + 1;
      request.doc = RenderDoc(doc_spec);
      if (family == "vstream") {
        request.op = ServiceOp::kValidateStream;
        request.schema = StreamDocSchemaSpec();
      } else {
        request.op = ServiceOp::kTransformStream;
        request.transducer = StreamDocTransducerSpec();
      }
      batch.push_back(std::move(request));
    }
    return batch;
  }
  for (int i = 0; i < count; ++i) {
    int size = n + i % distinct;
    PaperExample ex;
    if (family == "filter") {
      ex = FilterFamily(size);
    } else if (family == "failing") {
      ex = FailingFilterFamily(size);
    } else if (family == "width") {
      ex = WidthFamily(/*c=*/size, /*k=*/size);
    } else if (family == "relab") {
      ex = RelabFamily(size);
    } else if (family == "replus") {
      ex = RePlusCopyFamily(size);
    } else if (family == "xpath") {
      ex = XPathChainFamily(size);
    } else if (family == "nfa") {
      ex = NfaSchemaFamily(size);
    } else {
      return InvalidArgumentError(
          "unknown family '" + family +
          "' (filter | failing | width | relab | replus | xpath | nfa | "
          "vstream | tstream)");
    }
    XTC_ASSIGN_OR_RETURN(ServiceRequest request,
                         TypecheckRequestFromExample(ex));
    request.id = i + 1;
    batch.push_back(std::move(request));
  }
  return batch;
}

std::uint64_t RetryBackoffMs(const RetryPolicy& policy, std::uint64_t attempt,
                             std::uint64_t retry_after_ms,
                             std::uint64_t request_id) {
  if (attempt == 0) attempt = 1;
  std::uint64_t base = policy.base_backoff_ms > 0 ? policy.base_backoff_ms : 1;
  // base << (attempt-1), saturating well before the shift overflows.
  std::uint64_t backoff = attempt - 1 < 32 ? base << (attempt - 1)
                                           : policy.max_backoff_ms;
  backoff = std::min(backoff, policy.max_backoff_ms);
  backoff = std::max(backoff, retry_after_ms);
  std::uint64_t jitter_range = backoff / 4 + 1;
  std::uint64_t jitter =
      Mix64(policy.jitter_seed ^ Mix64(request_id) ^ attempt) % jitter_range;
  return backoff + jitter;
}

RetryOutcome SubmitWithRetry(TypecheckService& service, ServiceRequest request,
                             const RetryPolicy& policy) {
  RetryOutcome outcome;
  int max_attempts = std::max(policy.max_attempts, 1);
  for (int attempt = 1;; ++attempt) {
    request.attempt = static_cast<std::uint64_t>(attempt - 1);
    ServiceRequest copy = request;  // keep one for the next attempt
    outcome.attempts = static_cast<std::uint64_t>(attempt);
    outcome.response = service.Submit(std::move(copy)).get();
    if (outcome.response.status.ok() ||
        outcome.response.retry_after_ms == 0 || attempt >= max_attempts) {
      return outcome;
    }
    std::uint64_t backoff = RetryBackoffMs(
        policy, static_cast<std::uint64_t>(attempt),
        outcome.response.retry_after_ms, request.id);
    outcome.backoff_ms_total += backoff;
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
  }
}

}  // namespace xtc
