#include "e2ebench/src/gen.h"

#include <cctype>
#include <cstdio>
#include <utility>

#include "src/service/replay.h"
#include "src/workload/families.h"

namespace e2ebench {
namespace {

// The name characters of the regex and transducer parsers (XPath's are a
// subset): a maximal run of them is one token.
bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '#' || c == '$' || c == '.' || c == ':' || c == '-';
}

// Prefixes every token of `text` that is one of `names`.
std::string Rename(const std::string& text,
                   const std::unordered_set<std::string>& names,
                   const std::string& prefix) {
  std::string out;
  out.reserve(text.size() + 4 * prefix.size());
  std::size_t i = 0;
  while (i < text.size()) {
    if (!IsNameChar(text[i])) {
      out.push_back(text[i++]);
      continue;
    }
    std::size_t j = i;
    while (j < text.size() && IsNameChar(text[j])) ++j;
    std::string token = text.substr(i, j - i);
    if (names.count(token) != 0) out += prefix;
    out += token;
    i = j;
  }
  return out;
}

xtc::PaperExample MakeExample(const Shape& shape) {
  switch (shape.family) {
    case Family::kFilter:
      return xtc::FilterFamily(shape.n);
    case Family::kFailing:
      return xtc::FailingFilterFamily(shape.n);
    case Family::kXPath:
      return xtc::XPathChainFamily(shape.n);
    case Family::kRelab:
    case Family::kDelRelab:
      return xtc::RelabFamily(shape.n);
    case Family::kWidth:
      return xtc::WidthFamily(shape.n, shape.n);
    case Family::kRePlus:
      return xtc::RePlusCopyFamily(shape.n);
    case Family::kNfa:
      return xtc::NfaSchemaFamily(shape.n);
  }
  return {};
}

}  // namespace

const char* FamilyName(Family family) {
  switch (family) {
    case Family::kFilter:
      return "filter";
    case Family::kFailing:
      return "failing";
    case Family::kXPath:
      return "xpath";
    case Family::kRelab:
      return "relab";
    case Family::kWidth:
      return "width";
    case Family::kRePlus:
      return "replus";
    case Family::kNfa:
      return "nfa";
    case Family::kDelRelab:
      return "delrelab";
  }
  return "?";
}

std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string TagPrefix(std::uint64_t tag) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "k%016llx_",
                static_cast<unsigned long long>(tag));
  return buf;
}

xtc::StatusOr<Template> Template::Make(const Shape& shape) {
  if (shape.n < 1) return xtc::InvalidArgumentError("shape needs n >= 1");
  xtc::PaperExample ex = MakeExample(shape);
  Template t;
  t.shape_ = shape;
  XTC_ASSIGN_OR_RETURN(t.base_, xtc::TypecheckRequestFromExample(ex));
  if (shape.family == Family::kDelRelab) {
    t.base_.engine = xtc::TypecheckEngine::kDelRelab;
  }
  for (int s = 0; s < ex.alphabet->size(); ++s) {
    t.names_.insert(ex.alphabet->Name(s));
  }
  for (int q = 0; q < ex.transducer->num_states(); ++q) {
    t.names_.insert(ex.transducer->StateName(q));
  }
  return t;
}

xtc::ServiceRequest Template::Instantiate(std::uint64_t tag) const {
  const std::string prefix = TagPrefix(tag);
  auto rename = [&](const std::string& s) { return Rename(s, names_, prefix); };
  xtc::ServiceRequest r = base_;
  for (xtc::SchemaSpec* spec : {&r.din, &r.dout}) {
    spec->start = rename(spec->start);
    for (auto& [symbol, regex] : spec->rules) {
      symbol = rename(symbol);
      regex = rename(regex);
    }
  }
  for (std::string& state : r.transducer.states) state = rename(state);
  r.transducer.initial = rename(r.transducer.initial);
  for (auto& rule : r.transducer.rules) {
    for (std::string& part : rule) part = rename(part);
  }
  return r;
}

xtc::StatusOr<RequestSource> RequestSource::Make(std::vector<Slot> slots,
                                                 std::uint64_t seed) {
  if (slots.empty()) return xtc::InvalidArgumentError("empty mix");
  RequestSource source;
  std::vector<int> block;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    if (slots[s].weight < 1) {
      return xtc::InvalidArgumentError("slot weight must be >= 1");
    }
    XTC_ASSIGN_OR_RETURN(Template t, Template::Make(slots[s].shape));
    source.templates_.push_back(std::move(t));
    block.insert(block.end(), static_cast<std::size_t>(slots[s].weight),
                 static_cast<int>(s));
  }
  source.slots_ = std::move(slots);
  source.base_ = Mix64(seed);
  // Fisher-Yates over a splitmix64 stream, so the order is the same on
  // every platform and standard library.
  std::uint64_t rng = Mix64(seed ^ 0x5eed0f0bd3e5ull);
  for (int b = 0; b < kBlocks; ++b) {
    for (std::size_t k = block.size(); k > 1; --k) {
      rng = Mix64(rng);
      std::swap(block[k - 1], block[rng % k]);
    }
    source.order_.insert(source.order_.end(), block.begin(), block.end());
  }
  return source;
}

Item RequestSource::At(std::uint64_t i) const {
  Item item;
  item.slot = order_[i % order_.size()];
  item.id = static_cast<std::int64_t>(i) + 1;
  // Fresh tags are Mix64 of distinct words below 2^63; fixed tags of words
  // at or above it. Mix64 is a bijection, so no two tags of a run collide.
  item.tag = slots_[static_cast<std::size_t>(item.slot)].keys == Keys::kFresh
                 ? Mix64(base_ + (i & ~(1ull << 63)))
                 : Mix64(base_ + (1ull << 63) +
                         static_cast<std::uint64_t>(item.slot));
  return item;
}

xtc::ServiceRequest RequestSource::Request(const Item& item) const {
  xtc::ServiceRequest r = TemplateOf(item).Instantiate(item.tag);
  r.id = item.id;
  r.deadline_ms = slots_[static_cast<std::size_t>(item.slot)].deadline_ms;
  return r;
}

std::string RequestSource::Line(const Item& item) const {
  return xtc::ServiceRequestToJson(Request(item));
}

std::vector<Item> RequestSource::FixedItems() const {
  std::vector<Item> items;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].keys == Keys::kFresh) continue;
    // Any position of the slot gives its one tag; use the first.
    for (std::size_t i = 0; i < order_.size(); ++i) {
      if (order_[i] == static_cast<int>(s)) {
        items.push_back(At(i));
        break;
      }
    }
  }
  return items;
}

}  // namespace e2ebench
