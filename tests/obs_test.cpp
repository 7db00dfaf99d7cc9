// Observability primitives: tracer spans/propagation, latency histograms,
// structured events, and the Chrome trace_event exporter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "obs/chrome_trace.h"
#include "obs/critical_path.h"
#include "obs/events.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "sim/kernel.h"
#include "sim/random.h"

namespace magma::obs {
namespace {

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(Tracer, RootSpanStartsFreshTrace) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  const TraceContext a = tracer.begin("a", "svc", "node");
  const TraceContext b = tracer.begin("b", "svc", "node");
  EXPECT_TRUE(a.valid());
  EXPECT_NE(a.trace_id, b.trace_id);  // no current context: distinct traces
  tracer.end(a);
  tracer.end(b);
  EXPECT_EQ(tracer.finished().size(), 2u);
}

TEST(Tracer, ScopeMakesImplicitParent) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  const TraceContext root = tracer.begin("root", "svc", "node");
  {
    const Tracer::Scope scope(&tracer, root);
    EXPECT_EQ(tracer.current().span_id, root.span_id);
    const TraceContext child = tracer.begin("child", "svc", "node");
    EXPECT_EQ(child.trace_id, root.trace_id);
    tracer.end(child);
  }
  EXPECT_FALSE(tracer.current().valid());
  tracer.end(root);

  const auto spans = tracer.trace_spans(root.trace_id);
  ASSERT_EQ(spans.size(), 2u);
  // Start-ordered: root first, child parented on it.
  EXPECT_EQ(spans[0].name, "root");
  EXPECT_EQ(spans[1].parent_span_id, root.span_id);
}

TEST(Tracer, ExplicitParentCrossesScopes) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  const TraceContext root = tracer.begin("root", "svc", "a");
  const TraceContext remote = tracer.begin("remote", "svc", "b",
                                           SpanKind::kServer, root);
  EXPECT_EQ(remote.trace_id, root.trace_id);
  tracer.end(remote);
  tracer.end(root);
  EXPECT_EQ(tracer.trace_spans(root.trace_id).size(), 2u);
}

TEST(Tracer, SpanTimesComeFromKernel) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  TraceContext span{};
  kernel.schedule(10 * sim::kMillisecond,
                  [&]() { span = tracer.begin("op", "svc", "node"); });
  kernel.schedule(25 * sim::kMillisecond, [&]() { tracer.end(span); });
  kernel.run_until(sim::kSecond);
  ASSERT_EQ(tracer.finished().size(), 1u);
  const SpanRecord& rec = tracer.finished().front();
  EXPECT_EQ(rec.start, 10 * sim::kMillisecond);
  EXPECT_EQ(rec.duration(), 15 * sim::kMillisecond);
}

TEST(Tracer, TagsAttachOnlyToOpenSpans) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  const TraceContext span = tracer.begin("op", "svc", "node");
  tracer.tag(span, "k", "v");
  tracer.end(span);
  tracer.tag(span, "late", "ignored");
  tracer.end(span);  // double-end: no-op
  ASSERT_EQ(tracer.finished().size(), 1u);
  const SpanRecord& rec = tracer.finished().front();
  ASSERT_EQ(rec.tags.size(), 1u);
  EXPECT_EQ(rec.tags[0].first, "k");
}

TEST(Tracer, FinishHooksSeeEverySpanAndRetentionDropsOldest) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  tracer.set_retention(2);
  int hook_calls = 0;
  const std::uint64_t id =
      tracer.add_finish_hook([&](const SpanRecord&) { ++hook_calls; });
  for (int i = 0; i < 5; ++i) {
    tracer.end(tracer.begin("op" + std::to_string(i), "svc", "node"));
  }
  EXPECT_EQ(hook_calls, 5);
  EXPECT_EQ(tracer.finished().size(), 2u);  // ring keeps the newest two
  EXPECT_EQ(tracer.finished().back().name, "op4");
  EXPECT_EQ(tracer.spans_dropped(), 3u);
  tracer.remove_finish_hook(id);
  tracer.end(tracer.begin("after", "svc", "node"));
  EXPECT_EQ(hook_calls, 5);
}

TEST(Tracer, NullSafeHelpers) {
  const TraceContext ctx = begin_span(nullptr, "op", "svc", "node");
  EXPECT_FALSE(ctx.valid());
  end_span(nullptr, ctx);                    // must not crash
  tag_span(nullptr, ctx, "k", "v");          // must not crash
  EXPECT_FALSE(current_context(nullptr).valid());
  const Tracer::Scope scope(nullptr, ctx);   // must not crash
}

TEST(Tracer, SpanLinksRecordCausallyRelatedTraces) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  // Three independent traces (batched events); one shipping span links them.
  const TraceContext e0 = tracer.begin("attach", "accessd", "gw0");
  const TraceContext e1 = tracer.begin("detach", "accessd", "gw0");
  tracer.end(e0);
  tracer.end(e1);

  const TraceContext ship = tracer.begin("ship_events", "magmad", "gw0");
  tracer.link(ship, e0);
  tracer.link(ship, e1);
  tracer.link(ship, TraceContext{});   // invalid target: no-op
  tracer.link(TraceContext{}, e0);     // invalid span: no-op
  link_span(nullptr, ship, e0);        // null-safe helper
  tracer.end(ship);
  tracer.link(ship, e0);  // closed span: no-op

  const auto spans = tracer.trace_spans(ship.trace_id);
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].links.size(), 2u);
  EXPECT_EQ(spans[0].links[0].trace_id, e0.trace_id);
  EXPECT_EQ(spans[0].links[0].span_id, e0.span_id);
  EXPECT_EQ(spans[0].links[1].trace_id, e1.trace_id);
}

TEST(Tracer, ErrorTagPinsTraceAgainstEviction) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  tracer.set_retention(3);

  const TraceContext failed = tracer.begin("attach", "accessd", "gw0");
  tracer.tag(failed, "error", "auth rejected");
  tracer.end(failed);
  EXPECT_TRUE(tracer.trace_pinned(failed.trace_id));

  // A flood of healthy spans evicts around the pinned failure trace.
  for (int i = 0; i < 10; ++i) {
    tracer.end(tracer.begin("ok" + std::to_string(i), "svc", "gw0"));
  }
  EXPECT_EQ(tracer.finished().size(), 3u);
  ASSERT_EQ(tracer.trace_spans(failed.trace_id).size(), 1u);
  EXPECT_TRUE(tracer.trace_spans(failed.trace_id)[0].error);
  EXPECT_EQ(tracer.finished().back().name, "ok9");
}

TEST(Tracer, PinCapReleasesOldestPinFirst) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  tracer.set_max_pinned_traces(2);
  TraceContext first{};
  for (int i = 0; i < 3; ++i) {
    const TraceContext span = tracer.begin("op", "svc", "gw0");
    if (i == 0) first = span;
    tracer.tag(span, "error", "boom");
    tracer.end(span);
  }
  EXPECT_EQ(tracer.pinned_traces(), 2u);
  EXPECT_FALSE(tracer.trace_pinned(first.trace_id));
}

TEST(Tracer, AddWaitAccumulatesOnOpenSpansOnly) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  const TraceContext span = tracer.begin("op", "svc", "gw0");
  tracer.add_wait(span, WaitState::kCpu, 10);
  tracer.add_wait(span, WaitState::kCpu, 5);
  tracer.add_wait(span, WaitState::kRunq, -3);  // non-positive: no-op
  tracer.add_wait(TraceContext{}, WaitState::kCpu, 5);  // invalid: no-op
  tracer.end(span);
  tracer.add_wait(span, WaitState::kTimer, 7);  // closed: no-op
  add_span_wait(nullptr, span, WaitState::kCpu, 5);  // null-safe helper

  ASSERT_EQ(tracer.finished().size(), 1u);
  const SpanRecord& rec = tracer.finished()[0];
  EXPECT_EQ(rec.wait(WaitState::kCpu), 15);
  EXPECT_EQ(rec.wait(WaitState::kRunq), 0);
  EXPECT_EQ(rec.wait(WaitState::kTimer), 0);
}

TEST(Tracer, SamplerPinsAreSeparateFromErrorPins) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  const TraceContext span = tracer.begin("op", "svc", "gw0");
  tracer.tag(span, "error", "boom");
  tracer.end(span);
  ASSERT_TRUE(tracer.error_pinned(span.trace_id));

  // A sampler pin on the same trace: releasing it leaves the error pin.
  tracer.pin(span.trace_id);
  EXPECT_EQ(tracer.tail_pinned_traces(), 1u);
  tracer.unpin(span.trace_id);
  EXPECT_EQ(tracer.tail_pinned_traces(), 0u);
  EXPECT_TRUE(tracer.error_pinned(span.trace_id));
  EXPECT_TRUE(tracer.trace_pinned(span.trace_id));

  // A pure sampler pin protects against eviction without an error anywhere.
  tracer.set_retention(2);
  const TraceContext kept = tracer.begin("kept", "svc", "gw0");
  tracer.end(kept);
  tracer.pin(kept.trace_id);
  EXPECT_FALSE(tracer.error_pinned(kept.trace_id));
  for (int i = 0; i < 6; ++i) {
    tracer.end(tracer.begin("flood", "svc", "gw0"));
  }
  EXPECT_FALSE(tracer.trace_spans(kept.trace_id).empty());
  tracer.pin(0);  // invalid trace id: no-op
  EXPECT_EQ(tracer.tail_pinned_traces(), 1u);
}

TEST(Tracer, RetentionBoundWinsWhenEverythingIsPinned) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  tracer.set_retention(2);
  for (int i = 0; i < 5; ++i) {
    const TraceContext span = tracer.begin("op" + std::to_string(i),
                                           "svc", "gw0");
    tracer.tag(span, "error", "boom");
    tracer.end(span);
  }
  // All finished spans belong to pinned traces; the ring bound still holds.
  EXPECT_EQ(tracer.finished().size(), 2u);
  EXPECT_EQ(tracer.finished().back().name, "op4");
}

// trace_spans() reads a per-trace index of raw pointers into the ring. The
// reference is the plain answer: filter finished() by trace id and order by
// (start, span_id).
std::vector<SpanRecord> brute_force_trace_spans(const Tracer& tracer,
                                                std::uint64_t trace_id) {
  std::vector<SpanRecord> out;
  for (const SpanRecord& span : tracer.finished()) {
    if (span.trace_id == trace_id) out.push_back(span);
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return std::tie(a.start, a.span_id) <
                     std::tie(b.start, b.span_id);
            });
  return out;
}

// The fields a stale index entry gets wrong: identity and times, plus the
// name and tags a move leaves empty behind it.
using SpanFields = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                              sim::TimePoint, sim::TimePoint, std::string,
                              std::size_t, bool>;
std::vector<SpanFields> span_fields(const std::vector<SpanRecord>& spans) {
  std::vector<SpanFields> out;
  for (const SpanRecord& s : spans) {
    out.emplace_back(s.trace_id, s.span_id, s.parent_span_id, s.start, s.end,
                     s.name, s.tags.size(), s.error);
  }
  return out;
}

using PathFields =
    std::tuple<bool, std::uint64_t, std::string, sim::TimePoint, sim::Duration,
               WaitVector, std::vector<std::pair<std::uint64_t, sim::Duration>>>;
PathFields path_fields(const CriticalPathResult& cp) {
  std::vector<std::pair<std::uint64_t, sim::Duration>> path;
  for (const CriticalPathEdge& edge : cp.path) {
    path.emplace_back(edge.span_id, edge.duration);
  }
  return {cp.valid, cp.trace_id, cp.root_name, cp.root_start,
          cp.total, cp.breakdown, path};
}

// Random steps over everything that moves spans in or out of the ring:
// interleaved open spans (a trace's spans finish out of order), error tags,
// refcounted pins (double pins, pin(0), pins of evicted traces), retention
// down to 1-2 and back up, and a pin cap down to 0. After every step, every
// trace id issued — evicted ones included — must read the same through the
// index as through the brute-force filter.
class TracerIndexSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TracerIndexSweep, TraceSpansMatchBruteForceFilter) {
  sim::Rng rng(GetParam());
  sim::Kernel kernel;
  Tracer tracer(kernel);
  tracer.set_retention(16);
  std::vector<TraceContext> open;
  std::vector<TraceContext> finished;
  std::uint64_t last_trace_id = 0;  // trace ids are issued from 1 upward
  const auto pick = [&rng](const std::vector<TraceContext>& from) {
    return from[rng.uniform_int(from.size())];
  };
  const auto any_trace = [&] { return rng.uniform_int(last_trace_id + 1); };

  for (int step = 0; step < 1500; ++step) {
    // Half the steps share the previous instant, so same-start spans lean
    // on the span_id tie-break.
    if (rng.bernoulli(0.5)) {
      kernel.run_until(kernel.now() +
                       static_cast<sim::Duration>(1 + rng.uniform_int(50)));
    }
    const std::uint64_t action = rng.uniform_int(100);
    if (open.empty() || action < 30) {
      TraceContext parent{};  // a fresh root, or a child of any span
      const std::uint64_t parent_from = rng.uniform_int(3);
      if (parent_from == 1 && !open.empty()) parent = pick(open);
      if (parent_from == 2 && !finished.empty()) parent = pick(finished);
      // Names past the small-string buffer, so a moved-from record reads
      // back empty.
      const TraceContext span = tracer.begin(
          "operation-with-a-long-name-" + std::to_string(step), "svc", "gw0",
          static_cast<SpanKind>(rng.uniform_int(3)), parent);
      last_trace_id = std::max(last_trace_id, span.trace_id);
      open.push_back(span);
    } else if (action < 62) {
      const std::size_t i = rng.uniform_int(open.size());
      tracer.end(open[i]);
      finished.push_back(open[i]);
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (action < 68) {
      tracer.tag(pick(open), "error", "boom");
    } else if (action < 74) {
      tracer.add_wait(pick(open),
                      static_cast<WaitState>(rng.uniform_int(kWaitStateCount)),
                      static_cast<sim::Duration>(rng.uniform_int(40)));
    } else if (action < 84) {
      tracer.pin(any_trace());
    } else if (action < 92) {
      tracer.unpin(any_trace());
    } else if (action < 97) {
      tracer.set_retention(rng.bernoulli(0.5) ? 1 + rng.uniform_int(2)
                                              : 1 + rng.uniform_int(64));
    } else {
      tracer.set_max_pinned_traces(rng.uniform_int(4));
    }

    for (std::uint64_t id = 1; id <= last_trace_id; ++id) {
      const std::vector<SpanRecord> expected =
          brute_force_trace_spans(tracer, id);
      ASSERT_EQ(span_fields(tracer.trace_spans(id)), span_fields(expected))
          << "trace " << id << " after step " << step;
      ASSERT_EQ(path_fields(critical_path(tracer, id)),
                path_fields(critical_path(expected)))
          << "trace " << id << " after step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TracerIndexSweep,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(Histogram, CountSumMean) {
  Histogram h;
  h.observe(0.010);
  h.observe(0.020);
  h.observe(0.030);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.060);
  EXPECT_DOUBLE_EQ(h.mean(), 0.020);
}

TEST(Histogram, QuantileBracketsObservations) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.observe(0.010);  // all in one bucket
  const double p50 = h.quantile(0.5);
  // Geometric interpolation inside the bucket: the answer stays within the
  // bucket that holds 10 ms (log-spaced, 5/decade ⇒ ≤ 59% width).
  EXPECT_GT(p50, 0.006);
  EXPECT_LT(p50, 0.016);
}

TEST(Histogram, QuantileOrdersMixedObservations) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.observe(0.001);
  for (int i = 0; i < 10; ++i) h.observe(1.0);
  EXPECT_LT(h.quantile(0.5), 0.01);
  EXPECT_GT(h.quantile(0.99), 0.5);
  EXPECT_DOUBLE_EQ(Histogram().quantile(0.5), 0.0);  // empty
}

TEST(Histogram, MergeRequiresMatchingLayout) {
  Histogram a;
  Histogram b;
  a.observe(0.1);
  b.observe(0.2);
  ASSERT_TRUE(a.merge(b));
  EXPECT_EQ(a.count(), 2u);
  Histogram other(Histogram::log_bounds(1e-3, 10.0, 3));
  EXPECT_FALSE(a.merge(other));
  EXPECT_EQ(a.count(), 2u);  // untouched on mismatch
}

TEST(Histogram, AssignValidatesLayout) {
  Histogram h;
  EXPECT_TRUE(h.assign({1.0, 2.0}, {1, 2, 3}, 6.0));
  EXPECT_EQ(h.count(), 6u);
  EXPECT_FALSE(h.assign({1.0, 2.0}, {1, 2}, 0.0));      // counts too short
  EXPECT_FALSE(h.assign({2.0, 1.0}, {1, 2, 3}, 0.0));   // unsorted bounds
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

TEST(EventBuffer, DropsOldestOnOverflow) {
  EventBuffer buffer(2);
  for (int i = 0; i < 4; ++i) {
    Event e;
    e.type = "e" + std::to_string(i);
    buffer.push(std::move(e));
  }
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.pushed(), 4u);
  EXPECT_EQ(buffer.dropped(), 2u);
  const auto taken = buffer.take(10);
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].type, "e2");  // oldest two were dropped
  EXPECT_EQ(taken[1].type, "e3");
  EXPECT_TRUE(buffer.empty());
}

TEST(EventBuffer, TakeRespectsMaxCount) {
  EventBuffer buffer(10);
  for (int i = 0; i < 5; ++i) buffer.push(Event{});
  EXPECT_EQ(buffer.take(3).size(), 3u);
  EXPECT_EQ(buffer.size(), 2u);
}

TEST(EventReport, CodecRoundTrip) {
  std::vector<Event> events(2);
  events[0].time = 123 * sim::kMillisecond;
  events[0].gateway_id = "gw0";
  events[0].type = "attach_success";
  events[0].source = "lte_frontend";
  events[0].message = "IMSI001010000000001";
  events[0].severity = EventSeverity::kInfo;
  events[0].trace = TraceContext{77, 78};
  events[1].severity = EventSeverity::kError;

  auto decoded = decode_event_report(encode_event_report(events));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().size(), 2u);
  EXPECT_EQ(decoded.value()[0].time, 123 * sim::kMillisecond);
  EXPECT_EQ(decoded.value()[0].type, "attach_success");
  EXPECT_EQ(decoded.value()[0].trace.trace_id, 77u);
  EXPECT_EQ(decoded.value()[0].trace.span_id, 78u);
  EXPECT_EQ(decoded.value()[1].severity, EventSeverity::kError);
}

TEST(EventReport, CodecRejectsGarbage) {
  EXPECT_FALSE(decode_event_report(common::to_bytes("nope")).ok());
}

// ---------------------------------------------------------------------------
// Chrome trace export — validated with a real (minimal) JSON parser.
// ---------------------------------------------------------------------------

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string,
               std::shared_ptr<JsonArray>, std::shared_ptr<JsonObject>>
      v = nullptr;

  bool is_object() const {
    return std::holds_alternative<std::shared_ptr<JsonObject>>(v);
  }
  const JsonObject& object() const {
    return *std::get<std::shared_ptr<JsonObject>>(v);
  }
  const JsonArray& array() const {
    return *std::get<std::shared_ptr<JsonArray>>(v);
  }
  double number() const { return std::get<double>(v); }
  const std::string& str() const { return std::get<std::string>(v); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool parse(JsonValue& out) {
    const bool ok = value(out);
    skip_ws();
    return ok && pos_ == text_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool literal(const char* s) {
    const std::size_t n = std::string(s).size();
    if (text_.compare(pos_, n, s) != 0) return false;
    pos_ += n;
    return true;
  }
  bool value(JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return object(out);
    if (c == '[') return array(out);
    if (c == '"') {
      std::string s;
      if (!string(s)) return false;
      out.v = s;
      return true;
    }
    if (literal("true")) { out.v = true; return true; }
    if (literal("false")) { out.v = false; return true; }
    if (literal("null")) { out.v = nullptr; return true; }
    return number(out);
  }
  bool string(std::string& out) {
    if (text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        switch (text_[pos_]) {
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u':
            if (pos_ + 4 >= text_.size()) return false;
            out += '?';  // escaped control char: content irrelevant here
            pos_ += 4;
            break;
          default: out += text_[pos_];
        }
      } else {
        out += text_[pos_];
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out.v = std::stod(text_.substr(start, pos_ - start));
    return true;
  }
  bool array(JsonValue& out) {
    ++pos_;  // '['
    auto arr = std::make_shared<JsonArray>();
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      out.v = arr;
      return true;
    }
    while (true) {
      JsonValue element;
      if (!value(element)) return false;
      arr->push_back(std::move(element));
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') { ++pos_; continue; }
      if (text_[pos_] == ']') { ++pos_; break; }
      return false;
    }
    out.v = arr;
    return true;
  }
  bool object(JsonValue& out) {
    ++pos_;  // '{'
    auto obj = std::make_shared<JsonObject>();
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      out.v = obj;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || !string(key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      JsonValue val;
      if (!value(val)) return false;
      (*obj)[key] = std::move(val);  // duplicate keys: last one wins
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') { ++pos_; continue; }
      if (text_[pos_] == '}') { ++pos_; break; }
      return false;
    }
    out.v = obj;
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST(ChromeTrace, ExportRoundTripsThroughJsonParser) {
  sim::Kernel kernel;
  Tracer tracer(kernel);

  TraceContext root{}, child{};
  kernel.schedule(sim::kMillisecond, [&]() {
    root = tracer.begin("attach", "lte_frontend", "gw0");
    tracer.tag(root, "imsi", "IMSI\"quoted\"");  // exercise escaping
    const Tracer::Scope scope(&tracer, root);
    child = tracer.begin("begin_attach", "accessd", "gw0");
  });
  kernel.schedule(3 * sim::kMillisecond, [&]() { tracer.end(child); });
  kernel.schedule(9 * sim::kMillisecond, [&]() { tracer.end(root); });
  kernel.run_until(sim::kSecond);

  const std::string json = export_chrome_trace(tracer);
  JsonValue doc;
  ASSERT_TRUE(JsonParser(json).parse(doc)) << json;
  ASSERT_TRUE(doc.is_object());
  const JsonObject& top = doc.object();
  EXPECT_EQ(top.at("displayTimeUnit").str(), "ms");

  const JsonArray& events = top.at("traceEvents").array();
  int metadata = 0;
  int complete = 0;
  for (const JsonValue& event : events) {
    const JsonObject& e = event.object();
    const std::string& ph = e.at("ph").str();
    if (ph == "M") {
      ++metadata;
      continue;
    }
    ASSERT_EQ(ph, "X");
    ++complete;
    EXPECT_GT(e.at("pid").number(), 0);
    EXPECT_GT(e.at("tid").number(), 0);
    EXPECT_GE(e.at("dur").number(), 0);
    const JsonObject& args = e.at("args").object();
    EXPECT_EQ(args.at("trace_id").number(), static_cast<double>(root.trace_id));
    if (e.at("name").str() == "attach") {
      EXPECT_EQ(args.at("imsi").str(), "IMSI\"quoted\"");
      EXPECT_DOUBLE_EQ(e.at("ts").number(), 1000.0);   // 1 ms in µs
      EXPECT_DOUBLE_EQ(e.at("dur").number(), 8000.0);  // 8 ms
    } else {
      EXPECT_EQ(args.at("parent_span_id").number(),
                static_cast<double>(root.span_id));
    }
  }
  EXPECT_EQ(metadata, 3);  // 1 process + 2 threads
  EXPECT_EQ(complete, 2);
}

TEST(ChromeTrace, FilterByTraceId) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  const TraceContext a = tracer.begin("a", "svc", "node");
  tracer.end(a);
  const TraceContext b = tracer.begin("b", "svc", "node");
  tracer.end(b);

  const std::string json = export_chrome_trace(tracer, b.trace_id);
  JsonValue doc;
  ASSERT_TRUE(JsonParser(json).parse(doc));
  int complete = 0;
  for (const JsonValue& event : doc.object().at("traceEvents").array()) {
    if (event.object().at("ph").str() == "X") {
      ++complete;
      EXPECT_EQ(event.object().at("name").str(), "b");
    }
  }
  EXPECT_EQ(complete, 1);
}

TEST(ChromeTrace, ExportsWaitStateArgsElidingZeroes) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  const TraceContext span = tracer.begin("op", "svc", "gw0");
  tracer.add_wait(span, WaitState::kLinkTransit, 2 * sim::kMillisecond);
  tracer.end(span);
  const std::string json = export_chrome_trace(tracer);
  EXPECT_NE(json.find("\"wait_link_transit_ms\":2.000000"), std::string::npos);
  EXPECT_EQ(json.find("wait_cpu_ms"), std::string::npos);
}

TEST(ChromeTrace, ExportsLinksAndErrorMarkers) {
  sim::Kernel kernel;
  Tracer tracer(kernel);
  const TraceContext batched = tracer.begin("attach", "accessd", "gw0");
  tracer.end(batched);
  const TraceContext ship = tracer.begin("ship_events", "magmad", "gw0");
  tracer.link(ship, batched);
  tracer.tag(ship, "error", "report lost");
  tracer.end(ship);

  const std::string json = export_chrome_trace(tracer, ship.trace_id);
  JsonValue doc;
  ASSERT_TRUE(JsonParser(json).parse(doc)) << json;
  int complete = 0;
  for (const JsonValue& event : doc.object().at("traceEvents").array()) {
    const JsonObject& e = event.object();
    if (e.at("ph").str() != "X") continue;
    ++complete;
    const JsonObject& args = e.at("args").object();
    ASSERT_EQ(args.count("error"), 1u);
    EXPECT_EQ(args.at("links").str(),
              std::to_string(batched.trace_id) + ":" +
                  std::to_string(batched.span_id));
  }
  EXPECT_EQ(complete, 1);
  // The machine-readable error marker rides next to the error tag.
  EXPECT_NE(json.find("\"error\":true"), std::string::npos);
}

}  // namespace
}  // namespace magma::obs
