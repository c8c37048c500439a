#include "e2ebench/src/oracle.h"

#include "src/base/arena.h"
#include "src/core/typecheck.h"
#include "src/fa/alphabet.h"
#include "src/tree/codec.h"
#include "src/tree/tree.h"

namespace e2ebench {

Reply MakeReply(const Item& item, const xtc::ServiceResponse& response) {
  Reply reply;
  reply.item = item;
  reply.code = response.status.code();
  reply.typechecks = response.typechecks;
  reply.approximate = response.approximate;
  reply.tier = response.tier;
  reply.shed_reason = response.shed_reason;
  reply.counterexample = response.counterexample;
  if (!response.status.ok()) reply.error = response.status.message();
  reply.queue_ms = response.queue_ms;
  reply.elapsed_ms = response.elapsed_ms;
  reply.engine_ms = response.engine_ms;
  reply.cache_hits = response.cache_hits;
  reply.cache_misses = response.cache_misses;
  return reply;
}

Outcome Oracle::Judge(const Reply& reply, std::string* why) {
  auto fail = [&](Outcome outcome, std::string reason) {
    if (why != nullptr) *why = std::move(reason);
    return outcome;
  };
  const Template& shape = source_.TemplateOf(reply.item);
  const std::string name = std::string(FamilyName(shape.shape().family)) +
                           " request " + std::to_string(reply.item.id);
  if (reply.tier == xtc::AdmissionTier::kRejected ||
      reply.shed_reason != xtc::ShedReason::kNone) {
    return Outcome::kShed;
  }
  if (reply.code != xtc::StatusCode::kOk) {
    const bool has_deadline =
        source_.slots()[static_cast<std::size_t>(reply.item.slot)]
            .deadline_ms != 0;
    if (has_deadline && reply.code == xtc::StatusCode::kResourceExhausted) {
      return Outcome::kExpired;
    }
    return fail(Outcome::kError, name + " failed: " + reply.error);
  }
  const bool expected = shape.expect_typechecks();
  if (reply.typechecks) {
    // A positive verdict is definitive on every tier.
    if (!expected) {
      return fail(Outcome::kWrong, name + ": typechecks, expected not");
    }
    return Outcome::kOk;
  }
  if (reply.approximate) return Outcome::kOk;  // a permitted false alarm
  if (expected) {
    return fail(Outcome::kWrong,
                name + ": exact negative, expected typechecks");
  }
  if (reply.counterexample.empty()) {
    return fail(Outcome::kWrong, name + ": negative without a counterexample");
  }
  if (!VerifyWitness(reply.item, reply.counterexample)) {
    return fail(Outcome::kWrong,
                name + ": counterexample does not verify: " +
                    reply.counterexample);
  }
  return Outcome::kOk;
}

bool Oracle::VerifyWitness(const Item& item,
                           const std::string& counterexample) {
  std::string key = std::to_string(item.tag) + '\x1f' + counterexample;
  auto it = verified_.find(key);
  if (it != verified_.end()) return it->second;

  bool ok = false;
  xtc::ServiceRequest request = source_.Request(item);
  xtc::StatusOr<std::vector<std::string>> universe =
      xtc::CollectUniverse(request);
  if (universe.ok()) {
    xtc::Alphabet alphabet;
    for (const std::string& name : *universe) alphabet.Intern(name);
    xtc::StatusOr<xtc::Dtd> din =
        xtc::BuildSchemaSkeleton(request.din, &alphabet);
    xtc::StatusOr<xtc::Dtd> dout =
        xtc::BuildSchemaSkeleton(request.dout, &alphabet);
    xtc::StatusOr<xtc::Transducer> td =
        xtc::BuildTransducerSkeleton(request.transducer, &alphabet);
    if (din.ok() && dout.ok() && td.ok()) {
      xtc::Arena arena;
      xtc::TreeBuilder builder(&arena);
      const int known = alphabet.size();
      xtc::StatusOr<xtc::Node*> tree =
          xtc::ParseTerm(counterexample, &alphabet, &builder);
      // A label outside the universe cannot be in L(d_in).
      ok = tree.ok() && alphabet.size() == known &&
           xtc::VerifyCounterexample(*td, *din, *dout, *tree);
    }
  }
  verified_.emplace(std::move(key), ok);
  return ok;
}

}  // namespace e2ebench
