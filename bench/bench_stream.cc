// Streaming vs DOM peak memory and throughput (DESIGN.md §5). Each
// iteration processes one whole generated document of `n` elements. The
// streaming rows feed generator chunks straight into the event reader —
// no component ever holds the document — so their peak_bytes must stay
// flat as n quadruples, while the DOM rows parse the full tree and their
// peak grows with the document. ci/ratio_gate.py asserts exactly that on
// the aggregated BENCH json.
//
// Registration order matters for the memory rows: bench_main.cc resets the
// VmHWM high-water mark after each report batch, but heap pages the DOM
// rows touch are not returned to the OS, so the streaming rows run FIRST
// to keep their peaks honest.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>
#include <string>

#include "src/base/arena.h"
#include "src/base/logging.h"
#include "src/fa/alphabet.h"
#include "src/schema/dtd.h"
#include "src/stream/doc_gen.h"
#include "src/stream/event_reader.h"
#include "src/stream/transform.h"
#include "src/stream/validate.h"
#include "src/td/exec.h"
#include "src/td/transducer.h"
#include "src/tree/codec.h"
#include "src/tree/tree.h"

namespace xtc {
namespace {

// Models a socket transport: output bytes leave the process as they are
// produced. Accumulating into a string would reintroduce an O(document)
// buffer and mask the O(depth) claim the rows exist to measure.
class DiscardSink : public StreamSink {
 public:
  Status Append(std::string_view bytes) override {
    bytes_ += bytes.size();
    benchmark::DoNotOptimize(bytes.data());
    return Status::Ok();
  }
  std::uint64_t bytes() const { return bytes_; }

 private:
  std::uint64_t bytes_ = 0;
};

struct StreamDocSchema {
  Alphabet alphabet;
  std::optional<Dtd> dtd;

  StreamDocSchema() {
    int root = alphabet.Intern("root");
    alphabet.Intern("section");
    alphabet.Intern("item");
    dtd.emplace(&alphabet, root);
    XTC_CHECK(dtd->SetRule("root", "(section|item)*").ok());
    XTC_CHECK(dtd->SetRule("section", "(section|item)*").ok());
    XTC_CHECK(dtd->SetRule("item", "%").ok());
    XTC_CHECK(dtd->Compile().ok());
  }

  Transducer MakeIdentity() {
    Transducer t(&alphabet);
    t.SetInitial(t.AddState("m"));
    XTC_CHECK(t.SetRuleFromString("m", "root", "root(m)").ok());
    XTC_CHECK(t.SetRuleFromString("m", "section", "section(m)").ok());
    XTC_CHECK(t.SetRuleFromString("m", "item", "item").ok());
    return t;
  }
};

StreamDocSpec SpecFor(std::int64_t n) {
  return StreamDocSpec{StreamDocSpec::Shape::kWide,
                       static_cast<std::uint64_t>(n)};
}

// Drives one generated document through `on_event`, chunk by chunk.
template <typename OnEvent>
void DriveGenerated(const StreamDocSpec& spec, Alphabet* alphabet,
                    OnEvent&& on_event) {
  XmlDocStream gen(spec);
  XmlEventReader reader(alphabet);
  XmlEvent event;
  std::string chunk;
  while (true) {
    StatusOr<XmlEventReader::ReadResult> r = reader.Next(&event);
    XTC_CHECK_MSG(r.ok(), r.status().ToString().c_str());
    if (*r == XmlEventReader::ReadResult::kEvent) {
      on_event(event);
      continue;
    }
    if (*r == XmlEventReader::ReadResult::kEndOfDocument) break;
    if (gen.Next(&chunk)) {
      reader.Push(chunk);
    } else {
      reader.FinishInput();
    }
  }
}

// --- Streaming rows (registered first; see the header comment) -----------

void BM_StreamValidate(benchmark::State& state) {
  StreamDocSchema schema;
  const StreamDocSpec spec = SpecFor(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    StreamValidator validator(&*schema.dtd);
    DriveGenerated(spec, &schema.alphabet,
                   [&](const XmlEvent& e) { XTC_CHECK(validator.OnEvent(e).ok()); });
    XTC_CHECK(validator.AtEndOfDocument());
    events = validator.events();
  }
  state.counters["events"] = static_cast<double>(events);
}
BENCHMARK(BM_StreamValidate)
    ->Arg(65536)
    ->Arg(131072)
    ->Arg(262144)
    ->Arg(524288);

void BM_StreamTransform(benchmark::State& state) {
  StreamDocSchema schema;
  Transducer t = schema.MakeIdentity();
  const StreamDocSpec spec = SpecFor(state.range(0));
  std::uint64_t bytes_out = 0;
  for (auto _ : state) {
    DiscardSink sink;
    StatusOr<std::unique_ptr<StreamTransducer>> exec =
        StreamTransducer::Create(&t, &sink);
    XTC_CHECK(exec.ok());
    DriveGenerated(spec, &schema.alphabet,
                   [&](const XmlEvent& e) { XTC_CHECK((*exec)->OnEvent(e).ok()); });
    XTC_CHECK((*exec)->Finish().ok());
    XTC_CHECK((*exec)->peak_spill_bytes() == 0);  // identity is linear
    bytes_out = sink.bytes();
  }
  state.counters["bytes_out"] = static_cast<double>(bytes_out);
}
BENCHMARK(BM_StreamTransform)
    ->Arg(65536)
    ->Arg(131072)
    ->Arg(262144)
    ->Arg(524288);

// --- DOM rows (the O(document) baseline) ----------------------------------

void BM_DomValidate(benchmark::State& state) {
  StreamDocSchema schema;
  const std::string doc = RenderDoc(SpecFor(state.range(0)));
  for (auto _ : state) {
    Arena arena;
    TreeBuilder builder(&arena);
    StatusOr<Node*> tree = ParseXml(doc, &schema.alphabet, &builder);
    XTC_CHECK_MSG(tree.ok(), tree.status().ToString().c_str());
    bool valid = schema.dtd->Valid(*tree);
    XTC_CHECK(valid);
    benchmark::DoNotOptimize(valid);
  }
  state.counters["doc_bytes"] = static_cast<double>(doc.size());
}
BENCHMARK(BM_DomValidate)->Arg(65536)->Arg(131072)->Arg(262144)->Arg(524288);

void BM_DomTransform(benchmark::State& state) {
  StreamDocSchema schema;
  Transducer t = schema.MakeIdentity();
  const std::string doc = RenderDoc(SpecFor(state.range(0)));
  std::uint64_t bytes_out = 0;
  for (auto _ : state) {
    Arena arena;
    TreeBuilder builder(&arena);
    StatusOr<Node*> tree = ParseXml(doc, &schema.alphabet, &builder);
    XTC_CHECK_MSG(tree.ok(), tree.status().ToString().c_str());
    Node* out = Apply(t, *tree, &builder);
    XTC_CHECK(out != nullptr);
    std::string xml = ToXml(out, schema.alphabet);
    benchmark::DoNotOptimize(xml.data());
    bytes_out = xml.size();
  }
  state.counters["bytes_out"] = static_cast<double>(bytes_out);
}
BENCHMARK(BM_DomTransform)->Arg(65536)->Arg(131072)->Arg(262144)->Arg(524288);

}  // namespace
}  // namespace xtc
