#ifndef E2EBENCH_SRC_GEN_H_
#define E2EBENCH_SRC_GEN_H_

// Seeded request generation for the end-to-end benchmark.
//
// Every request is a workload family instance (src/workload/families.h) at a
// fixed size whose symbol and state names all carry one tag prefix. A fresh
// request gets a tag no other request of the run has, so every compile-cache
// key it touches is new, while its size, and so the work it asks for, stays
// that of the family instance. Other slots reuse one fixed tag per key.

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/base/status.h"
#include "src/service/request.h"

namespace e2ebench {

enum class Family {
  kFilter,    ///< FilterFamily: trac, C = K = 1
  kFailing,   ///< FailingFilterFamily: the one family that does not typecheck
  kXPath,     ///< XPathChainFamily: selectors compiled away (Thm 23)
  kRelab,     ///< RelabFamily through the auto front door
  kWidth,     ///< WidthFamily(n, n): the C·K exponent of Lemma 14
  kRePlus,    ///< RePlusCopyFamily: DTD(RE+) (Thm 37)
  kNfa,       ///< NfaSchemaFamily: DTD(NFA) determinization (Table 1)
  kDelRelab,  ///< RelabFamily with "engine":"delrelab" (Thm 20, lazy)
};
inline constexpr int kNumFamilies = 8;

const char* FamilyName(Family family);

/// A family at a fixed size parameter.
struct Shape {
  Family family = Family::kFilter;
  int n = 1;
};

/// splitmix64's finalizer: a bijection on 64-bit words.
std::uint64_t Mix64(std::uint64_t x);

/// The name prefix of a tag: "k", 16 hex digits, "_". Fixed width, so all
/// instances of a shape have the same size; shared by every name of one
/// instance, so the sorted universe keeps the family's symbol order.
std::string TagPrefix(std::uint64_t tag);

/// A shape's typecheck request, serialized once; Instantiate renames it.
class Template {
 public:
  static xtc::StatusOr<Template> Make(const Shape& shape);

  /// The request with every symbol and state name prefixed by
  /// TagPrefix(tag). Regex operators, XPath steps and the term syntax's
  /// punctuation are left alone.
  xtc::ServiceRequest Instantiate(std::uint64_t tag) const;

  const Shape& shape() const { return shape_; }
  /// Every family typechecks except kFailing.
  bool expect_typechecks() const { return shape_.family != Family::kFailing; }

 private:
  Shape shape_;
  xtc::ServiceRequest base_;
  std::unordered_set<std::string> names_;
};

/// Request classes of a mix (the overload workload has all three).
enum class Klass { kWarm, kCold, kHostile };

/// How the requests of a slot are keyed.
enum class Keys {
  kFresh,      ///< a new tag per request: every artifact lookup misses
  kPrewarmed,  ///< one fixed tag, compiled before the clock starts
  kFixed,      ///< one fixed tag, not prewarmed (a compile that never
               ///< finishes within its deadline stays uncached)
};

/// One entry of a workload's mix: `weight` requests of each block of
/// requests are of this slot's shape.
struct Slot {
  Klass klass = Klass::kWarm;
  Shape shape;
  Keys keys = Keys::kPrewarmed;
  int weight = 1;
  std::uint64_t deadline_ms = 0;  ///< 0 = none
};

/// One request of the sequence.
struct Item {
  int slot = 0;
  std::uint64_t tag = 0;
  std::int64_t id = 0;  ///< 1-based position in the sequence
};

/// An unbounded, seeded request sequence over a mix. The sequence is made
/// of blocks; each block holds exactly `weight` requests of every slot, in
/// a seeded order, so the mix proportions do not depend on the seed or on
/// where a run stops. Thread-compatibility: const methods are thread-safe.
class RequestSource {
 public:
  static xtc::StatusOr<RequestSource> Make(std::vector<Slot> slots,
                                           std::uint64_t seed);

  /// The i-th request (0-based); a pure function of (slots, seed, i).
  Item At(std::uint64_t i) const;
  xtc::ServiceRequest Request(const Item& item) const;
  /// Request(item) as its NDJSON line.
  std::string Line(const Item& item) const;

  /// One item per slot with a fixed tag.
  std::vector<Item> FixedItems() const;

  const std::vector<Slot>& slots() const { return slots_; }
  const Template& TemplateOf(const Item& item) const {
    return templates_[static_cast<std::size_t>(item.slot)];
  }

 private:
  static constexpr int kBlocks = 64;  ///< shuffled blocks before the cycle

  std::vector<Slot> slots_;
  std::vector<Template> templates_;  ///< one per slot
  std::vector<int> order_;           ///< kBlocks shuffled blocks of slots
  std::uint64_t base_ = 0;           ///< tag stream origin, from the seed
};

}  // namespace e2ebench

#endif  // E2EBENCH_SRC_GEN_H_
