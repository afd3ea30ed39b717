// Tests for the src/obs observability subsystem (DESIGN.md §12): sharded
// counter exactness under concurrency, span nesting/ordering invariants,
// Chrome trace JSON round-trip through the offline loader, ring-buffer
// overflow accounting, and the determinism guard — a traced training run
// must produce bitwise-identical weights to an untraced one.
#include "amret.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace amret;

// ---------------------------------------------------------------- counters --

TEST(ObsCounters, MergeAcrossThreadsIsExact) {
    obs::Counter& c = obs::counter("test.merge");
    c.reset();

    constexpr int kThreads = 8;
    constexpr std::int64_t kAddsPerThread = 20000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c] {
            for (std::int64_t i = 0; i < kAddsPerThread; ++i) c.add(1);
        });
    }
    for (auto& t : threads) t.join();

    // Relaxed shard adds merged on read are exact once writers quiesced.
    EXPECT_EQ(c.value(), kThreads * kAddsPerThread);
    c.reset();
    EXPECT_EQ(c.value(), 0);
}

TEST(ObsCounters, RegistryReturnsStableHandlesAndSnapshots) {
    obs::reset_counters();
    obs::Counter& a = obs::counter("test.snapshot.a");
    obs::Counter& again = obs::counter("test.snapshot.a");
    EXPECT_EQ(&a, &again);
    a.add(3);
    AMRET_OBS_COUNT("test.snapshot.a", 4);

    const auto snap = obs::counters_snapshot();
    const auto it = std::find_if(snap.begin(), snap.end(), [](const auto& kv) {
        return kv.first == "test.snapshot.a";
    });
    ASSERT_NE(it, snap.end());
    EXPECT_EQ(it->second, 7);
    EXPECT_TRUE(std::is_sorted(snap.begin(), snap.end(),
                               [](const auto& x, const auto& y) {
                                   return x.first < y.first;
                               }));
    EXPECT_NE(obs::counters_table().find("test.snapshot.a"), std::string::npos);
}

TEST(ObsCounters, GaugeKeepsLastWrittenValue) {
    obs::Gauge& g = obs::gauge("test.gauge");
    AMRET_OBS_GAUGE_SET("test.gauge", 5);
    EXPECT_EQ(g.value(), 5);
    g.set(-2);
    EXPECT_EQ(g.value(), -2);
    const auto snap = obs::gauges_snapshot();
    EXPECT_TRUE(std::any_of(snap.begin(), snap.end(), [](const auto& kv) {
        return kv.first == "test.gauge" && kv.second == -2;
    }));
}

// ------------------------------------------------------------------ spans --

TEST(ObsTrace, SpanNestingAndOrderingInvariants) {
    obs::trace_start();
    {
        AMRET_OBS_SPAN("outer");
        {
            AMRET_OBS_SPAN("inner");
            AMRET_OBS_SPAN("inner2");
        }
        AMRET_OBS_SPAN("sibling");
    }
    obs::trace_stop();

    const auto events = obs::trace_events();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(obs::trace_dropped(), 0u);

    // Merged events come back sorted by (tid, start, depth).
    for (std::size_t i = 1; i < events.size(); ++i) {
        const auto& a = events[i - 1];
        const auto& b = events[i];
        EXPECT_TRUE(a.tid < b.tid ||
                    (a.tid == b.tid &&
                     (a.start_ns < b.start_ns ||
                      (a.start_ns == b.start_ns && a.depth <= b.depth))));
    }

    const auto find = [&](const char* name) {
        const auto it =
            std::find_if(events.begin(), events.end(), [&](const auto& e) {
                return std::strcmp(e.name, name) == 0;
            });
        EXPECT_NE(it, events.end()) << name;
        return *it;
    };
    const auto outer = find("outer");
    const auto inner = find("inner");
    const auto sibling = find("sibling");
    EXPECT_EQ(outer.depth, 0);
    EXPECT_EQ(inner.depth, 1);
    EXPECT_EQ(sibling.depth, 1);
    // Children nest inside the parent interval; siblings don't overlap.
    EXPECT_GE(inner.start_ns, outer.start_ns);
    EXPECT_LE(inner.end_ns, outer.end_ns);
    EXPECT_GE(sibling.start_ns, inner.end_ns);
    EXPECT_EQ(outer.tid, inner.tid);

    const std::string profile = obs::profile_table();
    EXPECT_NE(profile.find("outer"), std::string::npos);
    EXPECT_NE(profile.find("inner"), std::string::npos);
}

TEST(ObsTrace, SpansFromConcurrentThreadsGetDistinctTids) {
    obs::trace_start();
    constexpr int kThreads = 4;
    constexpr int kSpansPerThread = 50;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < kSpansPerThread; ++i) {
                AMRET_OBS_SPAN("worker.outer");
                AMRET_OBS_SPAN("worker.inner");
            }
        });
    }
    // Reading while writers run must be safe (and TSan-clean).
    (void)obs::trace_events();
    for (auto& t : threads) t.join();
    obs::trace_stop();

    const auto events = obs::trace_events();
    EXPECT_EQ(events.size(),
              static_cast<std::size_t>(kThreads) * kSpansPerThread * 2);
    std::set<std::uint32_t> tids;
    for (const auto& e : events) tids.insert(e.tid);
    EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}

TEST(ObsTrace, RingOverflowDropsOldestAndCounts) {
    obs::TraceConfig config;
    config.ring_capacity = 8;
    obs::trace_start(config);
    for (int i = 0; i < 30; ++i) {
        AMRET_OBS_SPAN("overflow");
    }
    obs::trace_stop();
    EXPECT_EQ(obs::trace_events().size(), 8u);
    EXPECT_EQ(obs::trace_dropped(), 22u);

    // The overflow is called out in the profile rendering.
    EXPECT_NE(obs::profile_table().find("overflowed"), std::string::npos);
}

TEST(ObsTrace, TimedSpanMeasuresWithAndWithoutTracing) {
    // Without tracing: still measures.
    obs::TimedSpan untraced("timed.untraced");
    untraced.stop();
    EXPECT_GE(untraced.seconds(), 0.0);
    const double frozen = untraced.seconds();
    untraced.stop(); // idempotent
    EXPECT_EQ(untraced.seconds(), frozen);

    // With tracing: the same interval lands in the trace.
    obs::trace_start();
    {
        obs::TimedSpan timed("timed.traced");
        timed.stop();
        EXPECT_GE(timed.millis(), 0.0);
    }
    obs::trace_stop();
    const auto events = obs::trace_events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "timed.traced");
}

// ------------------------------------------------------- JSON round-trip --

TEST(ObsTrace, ChromeJsonRoundTripsThroughLoader) {
    obs::trace_start();
    {
        AMRET_OBS_SPAN("rt.outer");
        AMRET_OBS_SPAN("rt.inner");
    }
    obs::trace_stop();
    const auto events = obs::trace_events();
    ASSERT_EQ(events.size(), 2u);

    const std::string json = obs::chrome_trace_json();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

    const std::string path =
        std::string(::testing::TempDir()) + "amret_obs_roundtrip.json";
    ASSERT_TRUE(obs::write_chrome_trace(path));

    std::string error;
    const auto records = obs::load_chrome_trace(path, &error);
    std::remove(path.c_str());
    ASSERT_EQ(records.size(), 2u) << error;

    std::set<std::string> names;
    for (const auto& r : records) names.insert(r.name);
    EXPECT_EQ(names, (std::set<std::string>{"rt.outer", "rt.inner"}));

    // Self time folds out the nested child.
    const auto folded = obs::fold_spans(records);
    ASSERT_EQ(folded.size(), 2u);
    for (const auto& f : folded) {
        EXPECT_LE(f.self_ms, f.total_ms + 1e-9) << f.name;
        if (f.name == "rt.inner") {
            EXPECT_NEAR(f.self_ms, f.total_ms, 1e-9);
        }
    }
    const std::string report = obs::fold_report(records, 10);
    EXPECT_NE(report.find("rt.outer"), std::string::npos);
}

TEST(ObsTrace, LoaderRejectsGarbage) {
    const std::string path =
        std::string(::testing::TempDir()) + "amret_obs_garbage.json";
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("{not json", f);
        std::fclose(f);
    }
    std::string error;
    EXPECT_TRUE(obs::load_chrome_trace(path, &error).empty());
    EXPECT_FALSE(error.empty());
    std::remove(path.c_str());
    EXPECT_TRUE(obs::load_chrome_trace("/nonexistent/trace.json", &error).empty());
    EXPECT_FALSE(error.empty());
}

TEST(ObsTrace, LoaderRejectsDeepNestingWithPositionedError) {
    // 200,000 unclosed arrays: the parser stops at its nesting limit with a
    // positioned error instead of recursing off the stack.
    const std::string path =
        std::string(::testing::TempDir()) + "amret_obs_deep.json";
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        const std::string deep(200000, '[');
        std::fputs(deep.c_str(), f);
        std::fclose(f);
    }
    std::string error;
    EXPECT_TRUE(obs::load_chrome_trace(path, &error).empty());
    std::remove(path.c_str());
    // The path once, then the positioned reason: trace_report prints this
    // text after its own name.
    EXPECT_EQ(error, path + ": nesting deeper than 256 at offset 256");
}

// ------------------------------------------------------------ determinism --

void expect_snapshots_equal(const train::ModelSnapshot& a,
                            const train::ModelSnapshot& b) {
    ASSERT_EQ(a.params.size(), b.params.size());
    for (std::size_t i = 0; i < a.params.size(); ++i) {
        ASSERT_EQ(a.params[i].shape(), b.params[i].shape());
        EXPECT_EQ(std::memcmp(a.params[i].data(), b.params[i].data(),
                              static_cast<std::size_t>(a.params[i].numel()) *
                                  sizeof(float)),
                  0)
            << "param " << i;
    }
    ASSERT_EQ(a.extra.size(), b.extra.size());
    EXPECT_EQ(std::memcmp(a.extra.data(), b.extra.data(),
                          a.extra.size() * sizeof(float)),
              0);
}

/// One microbatched quantized-LeNet training run, optionally traced.
train::ModelSnapshot run_tiny_training(bool traced) {
    data::SyntheticConfig dc;
    dc.num_classes = 4;
    dc.height = dc.width = 8;
    dc.train_samples = 64;
    dc.test_samples = 32;
    dc.noise_stddev = 0.25f;
    dc.seed = 13;
    const auto pair = data::make_synthetic(dc);

    models::ModelConfig mc;
    mc.in_size = 8;
    mc.num_classes = 4;
    mc.width_mult = 0.25f;
    auto model = models::make_lenet(mc);
    approx::configure_approx_layers(*model, approx::MultiplierConfig::exact_ste(7),
                                    approx::ComputeMode::kQuantized);

    train::TrainConfig tc;
    tc.epochs = 1;
    tc.batch_size = 32;
    tc.microbatches = 2;
    tc.lr = 3e-3;
    tc.paper_lr_schedule = false;
    tc.seed = 11;

    if (traced) obs::trace_start();
    train::Trainer trainer(*model, pair.train, pair.test, tc);
    trainer.run();
    if (traced) obs::trace_stop();
    return train::snapshot(*model);
}

TEST(ObsDeterminism, TracedTrainingBitwiseMatchesUntraced) {
    const auto untraced = run_tiny_training(false);
    const auto traced = run_tiny_training(true);
    // Spans only read clocks — the traced run's weights are identical.
    expect_snapshots_equal(untraced, traced);
    // And the trace actually captured the training structure.
    const auto events = obs::trace_events();
    EXPECT_FALSE(events.empty());
    EXPECT_TRUE(std::any_of(events.begin(), events.end(), [](const auto& e) {
        return std::strcmp(e.name, "train.step") == 0;
    }));
}

TEST(ObsTrace, InternedLabelsAreStableAndShared) {
    const std::string a = "engine.op07.conv";
    const char* p = obs::intern_label(a);
    EXPECT_STREQ(p, "engine.op07.conv");
    EXPECT_EQ(obs::intern_label(std::string("engine.op07.conv")), p);
    EXPECT_NE(obs::intern_label("engine.op08.conv"), p);
}

TEST(ObsDeterminism, TracedEngineBitwiseMatchesUntracedAndSpansEveryOp) {
    data::SyntheticConfig dc;
    dc.num_classes = 4;
    dc.height = dc.width = 8;
    dc.train_samples = 32;
    dc.test_samples = 8;
    dc.seed = 41;
    const auto pair = data::make_synthetic(dc);
    models::ModelConfig mc;
    mc.in_size = 8;
    mc.num_classes = 4;
    mc.width_mult = 0.5f;
    const auto model = train::make_model("lenet", mc);
    approx::configure_approx_layers(*model,
                                    approx::MultiplierConfig::exact_ste(8),
                                    approx::ComputeMode::kQuantized);
    model->set_training(false);
    approx::IntInferenceEngine engine(*model, pair.train, 32);
    util::Rng rng(42);
    const tensor::Tensor images =
        tensor::Tensor::randn(tensor::Shape{5, 3, 8, 8}, rng);

    const tensor::Tensor untraced = engine.forward(images);
    obs::trace_start();
    const tensor::Tensor traced = engine.forward(images);
    obs::trace_stop();
    ASSERT_EQ(traced.numel(), untraced.numel());
    EXPECT_EQ(std::memcmp(traced.data(), untraced.data(),
                          static_cast<std::size_t>(traced.numel()) * sizeof(float)),
              0);
#if defined(AMRET_OBS_DISABLED)
    GTEST_SKIP() << "obs instrumentation compiled out";
#endif
    // One span per compiled op, labelled by index and kind, plus the input
    // quantizer and the float head.
    std::set<std::string> names;
    for (const auto& e : obs::trace_events()) names.insert(e.name);
    EXPECT_TRUE(names.count("engine.input"));
    EXPECT_TRUE(names.count("engine.op00.conv"));
    EXPECT_TRUE(names.count("engine.op01.maxpool"));
    EXPECT_TRUE(names.count("engine.head"));
}

} // namespace
