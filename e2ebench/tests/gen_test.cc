// Tests of the benchmark's request generator and verdict oracle.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "e2ebench/src/gen.h"
#include "e2ebench/src/oracle.h"
#include "e2ebench/src/workloads.h"
#include "src/service/service.h"

namespace e2ebench {
namespace {

RequestSource MakeSource(const WorkloadSpec& spec, std::uint64_t seed) {
  xtc::StatusOr<RequestSource> source = RequestSource::Make(spec.slots, seed);
  EXPECT_TRUE(source.ok()) << source.status().ToString();
  return *std::move(source);
}

int BlockSize(const WorkloadSpec& spec) {
  int sum = 0;
  for (const Slot& slot : spec.slots) sum += slot.weight;
  return sum;
}

TEST(GenTest, OneSeedGivesByteIdenticalLines) {
  for (const WorkloadSpec& spec : Workloads()) {
    RequestSource a = MakeSource(spec, 42);
    RequestSource b = MakeSource(spec, 42);
    for (std::uint64_t i = 0; i < 600; ++i) {
      ASSERT_EQ(a.Line(a.At(i)), b.Line(b.At(i)))
          << spec.name << " request " << i;
    }
  }
}

TEST(GenTest, SeedsGiveDifferentInputs) {
  for (const WorkloadSpec& spec : Workloads()) {
    RequestSource a = MakeSource(spec, 1);
    RequestSource b = MakeSource(spec, 2);
    int same = 0;
    for (std::uint64_t i = 0; i < 200; ++i) {
      same += a.Line(a.At(i)) == b.Line(b.At(i));
    }
    EXPECT_EQ(same, 0) << spec.name;
  }
}

TEST(GenTest, FreshKeysNeverRepeat) {
  for (const WorkloadSpec& spec : Workloads()) {
    RequestSource source = MakeSource(spec, 7);
    std::set<std::uint64_t> fresh_tags;
    std::map<int, std::uint64_t> warm_tag;
    std::set<std::string> fresh_schemas;
    std::uint64_t fresh = 0;
    for (std::uint64_t i = 0; i < 20000; ++i) {
      const Item item = source.At(i);
      const Slot& slot = source.slots()[static_cast<std::size_t>(item.slot)];
      if (slot.keys != Keys::kFresh) {
        auto [it, inserted] = warm_tag.emplace(item.slot, item.tag);
        EXPECT_EQ(it->second, item.tag) << spec.name << ": warm key moved";
        continue;
      }
      ++fresh;
      EXPECT_TRUE(fresh_tags.insert(item.tag).second)
          << spec.name << ": tag repeated at request " << i;
      if (i < 2000) {
        // The keys themselves: a fresh request's input schema text is new.
        xtc::ServiceRequest r = source.Request(item);
        std::string din = r.din.start;
        for (const auto& [symbol, regex] : r.din.rules) {
          din += ";" + symbol + "=" + regex;
        }
        EXPECT_TRUE(fresh_schemas.insert(din).second)
            << spec.name << ": schema repeated at request " << i;
      }
    }
    for (const auto& [slot, tag] : warm_tag) {
      EXPECT_EQ(fresh_tags.count(tag), 0u) << spec.name;
    }
    if (spec.name == "cold_compile" || spec.name == "fresh_hard") {
      EXPECT_EQ(fresh, 20000u) << spec.name << " sends only fresh keys";
    }
  }
}

TEST(GenTest, RenamingKeepsTheSize) {
  for (const WorkloadSpec& spec : Workloads()) {
    RequestSource source = MakeSource(spec, 3);
    std::map<int, std::size_t> line_size;
    for (std::uint64_t i = 0; i < 500; ++i) {
      const Item item = source.At(i);
      // Ids differ in digit count; compare the line without its id.
      xtc::ServiceRequest r = source.Request(item);
      r.id = 0;
      const std::size_t size = xtc::ServiceRequestToJson(r).size();
      auto [it, inserted] = line_size.emplace(item.slot, size);
      EXPECT_EQ(it->second, size) << spec.name << " slot " << item.slot;
    }
  }
}

TEST(GenTest, EveryBlockHoldsTheMix) {
  for (const WorkloadSpec& spec : Workloads()) {
    RequestSource source = MakeSource(spec, 11);
    const int block = BlockSize(spec);
    for (int b = 0; b < 100; ++b) {
      std::map<int, int> count;
      for (int k = 0; k < block; ++k) {
        count[source.At(static_cast<std::uint64_t>(b * block + k)).slot]++;
      }
      for (std::size_t s = 0; s < spec.slots.size(); ++s) {
        EXPECT_EQ(count[static_cast<int>(s)], spec.slots[s].weight)
            << spec.name << " block " << b << " slot " << s;
      }
    }
  }
}

TEST(GenTest, RenamedInstancesKeepTheirVerdicts) {
  xtc::TypecheckService::Options options;
  options.num_threads = 0;
  xtc::TypecheckService service(options);
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == "overload") continue;  // its hostile slot takes seconds
    RequestSource source = MakeSource(spec, 5);
    Oracle oracle(source);
    for (std::size_t s = 0; s < spec.slots.size(); ++s) {
      for (std::uint64_t i = 0;; ++i) {
        const Item item = source.At(i);
        if (item.slot != static_cast<int>(s)) continue;
        xtc::ServiceResponse response = service.Process(source.Request(item));
        ASSERT_TRUE(response.status.ok()) << response.status.ToString();
        EXPECT_EQ(response.typechecks,
                  source.TemplateOf(item).expect_typechecks())
            << spec.name << " " << FamilyName(spec.slots[s].shape.family);
        std::string why;
        EXPECT_EQ(oracle.Judge(MakeReply(item, response), &why), Outcome::kOk)
            << why;
        break;
      }
    }
  }
}

TEST(OracleTest, CatchesWrongVerdictsAndBadWitnesses) {
  WorkloadSpec spec;
  spec.slots = {
      Slot{Klass::kCold, Shape{Family::kFailing, 3}, Keys::kFresh, 1, 0},
      Slot{Klass::kCold, Shape{Family::kFilter, 3}, Keys::kFresh, 1, 50}};
  RequestSource source = MakeSource(spec, 9);
  Item failing = source.At(0);
  Item filter = source.At(1);
  if (failing.slot != 0) std::swap(failing, filter);
  Oracle oracle(source);

  xtc::TypecheckService::Options options;
  options.num_threads = 0;
  xtc::TypecheckService service(options);
  xtc::ServiceResponse response = service.Process(source.Request(failing));
  ASSERT_TRUE(response.status.ok());
  ASSERT_FALSE(response.typechecks);
  ASSERT_FALSE(response.counterexample.empty());
  Reply reply = MakeReply(failing, response);
  EXPECT_EQ(oracle.Judge(reply, nullptr), Outcome::kOk);

  Reply bad_witness = reply;
  bad_witness.counterexample =
      TagPrefix(failing.tag) + "root";  // not in L(d_in)
  EXPECT_EQ(oracle.Judge(bad_witness, nullptr), Outcome::kWrong);

  Reply no_witness = reply;
  no_witness.counterexample.clear();
  EXPECT_EQ(oracle.Judge(no_witness, nullptr), Outcome::kWrong);

  Reply flipped = reply;
  flipped.typechecks = true;
  EXPECT_EQ(oracle.Judge(flipped, nullptr), Outcome::kWrong);

  Reply false_alarm = MakeReply(filter, xtc::ServiceResponse{});
  false_alarm.approximate = true;
  EXPECT_EQ(oracle.Judge(false_alarm, nullptr), Outcome::kOk);
  false_alarm.approximate = false;
  EXPECT_EQ(oracle.Judge(false_alarm, nullptr), Outcome::kWrong);

  Reply shed = MakeReply(filter, xtc::ServiceResponse{});
  shed.tier = xtc::AdmissionTier::kRejected;
  shed.code = xtc::StatusCode::kResourceExhausted;
  EXPECT_EQ(oracle.Judge(shed, nullptr), Outcome::kShed);

  Reply expired = MakeReply(filter, xtc::ServiceResponse{});
  expired.code = xtc::StatusCode::kResourceExhausted;
  EXPECT_EQ(oracle.Judge(expired, nullptr), Outcome::kExpired);

  Reply error = MakeReply(failing, xtc::ServiceResponse{});
  error.code = xtc::StatusCode::kResourceExhausted;  // no deadline: an error
  EXPECT_EQ(oracle.Judge(error, nullptr), Outcome::kError);
}

}  // namespace
}  // namespace e2ebench
