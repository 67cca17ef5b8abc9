// Tracer contract (src/obs/trace.hpp): span capture, bounded buffer,
// and the Chrome trace-event JSON schema the exporter emits.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>

#include "core/dk_state.hpp"
#include "graph/builders.hpp"
#include "metrics/summary.hpp"
#include "obs/trace.hpp"
#include "json_checker.hpp"

namespace orbis::obs {
namespace {

TEST(Trace, DisabledTracerRecordsNothing) {
  Tracer tracer;
  tracer.record("ignored", std::chrono::steady_clock::now(),
                std::chrono::steady_clock::now());
  tracer.instant("also.ignored");
  EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(Trace, RecordsSpansAndInstants) {
  Tracer tracer;
  tracer.enable();
  const auto start = std::chrono::steady_clock::now();
  tracer.record("phase.a", start, start + std::chrono::microseconds(250));
  tracer.instant("event.b");
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "phase.a");
  EXPECT_EQ(events[0].duration_us, 250);
  EXPECT_STREQ(events[1].name, "event.b");
  EXPECT_EQ(events[1].duration_us, -1);  // instant marker
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Trace, BufferIsBoundedAndCountsDrops) {
  Tracer tracer;
  tracer.enable(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) tracer.instant("tick");
  EXPECT_EQ(tracer.snapshot().size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
}

TEST(Trace, EnableClearsPreviousBuffer) {
  Tracer tracer;
  tracer.enable();
  tracer.instant("old");
  tracer.enable();
  EXPECT_TRUE(tracer.snapshot().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

// Golden schema: the export must be one valid JSON document with the
// exact envelope and per-event keys chrome://tracing / Perfetto expect.
TEST(Trace, ChromeTraceSchema) {
  Tracer tracer;
  tracer.enable();
  const auto start = std::chrono::steady_clock::now();
  tracer.record("span.one", start, start + std::chrono::microseconds(10));
  tracer.instant("instant.one");
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const std::string doc = out.str();

  EXPECT_TRUE(test_json::is_valid_json(doc)) << doc;
  EXPECT_TRUE(test_json::has_key(doc, "traceEvents"));
  EXPECT_TRUE(test_json::has_key(doc, "displayTimeUnit"));
  // Complete spans carry ph:X with ts/dur; instants carry ph:i.
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_TRUE(test_json::has_key(doc, "ts"));
  EXPECT_TRUE(test_json::has_key(doc, "dur"));
  EXPECT_TRUE(test_json::has_key(doc, "pid"));
  EXPECT_TRUE(test_json::has_key(doc, "tid"));
  EXPECT_NE(doc.find("\"name\":\"span.one\""), std::string::npos);
}

TEST(Trace, DroppedEventsAreDeclaredInTheExport) {
  Tracer tracer;
  tracer.enable(/*capacity=*/1);
  tracer.instant("kept");
  tracer.instant("dropped");
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const std::string doc = out.str();
  EXPECT_TRUE(test_json::is_valid_json(doc)) << doc;
  EXPECT_TRUE(test_json::has_key(doc, "orbisDroppedEvents"));
}

TEST(Trace, SpanRaiiRecordsOnGlobalTracer) {
  Tracer::global().enable();
  {
    const Span span("raii.phase");
  }
  const auto events = Tracer::global().snapshot();
  Tracer::global().disable();
  ASSERT_FALSE(events.empty());
  EXPECT_STREQ(events.back().name, "raii.phase");
  EXPECT_GE(events.back().duration_us, 0);
}

TEST(Trace, ScalarMetricsRecordOneSpanPerPhase) {
  Tracer::global().enable();
  metrics::compute_scalar_metrics(builders::grid(6, 7));
  const auto events = Tracer::global().snapshot();
  Tracer::global().disable();
  for (const std::string name : {"metrics.scalars", "metrics.distance",
                                 "metrics.s2", "metrics.spectrum"}) {
    EXPECT_EQ(std::count_if(events.begin(), events.end(),
                            [&](const TraceEvent& e) {
                              return name == e.name && e.duration_us >= 0;
                            }),
              1)
        << name;
  }
}

TEST(Trace, ThreeKBuildRecordsOneSpanPerPhase) {
  // Counted before tracing starts: only the state's own build records.
  const auto target = dk::ThreeKProfile::from_graph(builders::complete(6));
  Tracer::global().enable();
  const dk::DkState state(builders::grid(6, 7),
                          dk::TrackLevel::full_three_k, &target);
  const auto events = Tracer::global().snapshot();
  Tracer::global().disable();
  for (const std::string name :
       {"dk.three_k.center_pairs", "dk.three_k.triangles",
        "dk.three_k.residual"}) {
    EXPECT_EQ(std::count_if(events.begin(), events.end(),
                            [&](const TraceEvent& e) {
                              return name == e.name && e.duration_us >= 0;
                            }),
              1)
        << name;
  }
}

}  // namespace
}  // namespace orbis::obs
