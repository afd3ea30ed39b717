// Tests for the deterministic parallel runtime: pool lifecycle, exception
// propagation, nested-parallel handling, chunk decomposition edge cases, and
// the ordered-reduction helper. Thread counts are set explicitly so the
// suite exercises the threaded paths even on single-core CI machines.
#include "obs/obs.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace amret;

/// Restores the global thread configuration after each test.
class RuntimeTest : public ::testing::Test {
protected:
    void TearDown() override { runtime::set_num_threads(1); }
};

// ---------------------------------------------------------- thread pool --

TEST_F(RuntimeTest, PoolRunsEveryChunkExactlyOnce) {
    runtime::ThreadPool pool(3);
    EXPECT_EQ(pool.workers(), 3u);
    constexpr std::size_t kChunks = 97;
    std::vector<std::atomic<int>> hits(kChunks);
    pool.run(kChunks, [&](std::size_t c) { hits[c].fetch_add(1); });
    for (std::size_t c = 0; c < kChunks; ++c) EXPECT_EQ(hits[c].load(), 1) << c;
}

TEST_F(RuntimeTest, PoolWithZeroWorkersRunsOnCaller) {
    runtime::ThreadPool pool(0);
    const auto caller = std::this_thread::get_id();
    std::vector<std::thread::id> ran(5);
    pool.run(5, [&](std::size_t c) { ran[c] = std::this_thread::get_id(); });
    for (const auto& id : ran) EXPECT_EQ(id, caller);
}

TEST_F(RuntimeTest, PoolIsReusableAcrossJobs) {
    runtime::ThreadPool pool(2);
    for (int round = 0; round < 50; ++round) {
        std::atomic<int> count{0};
        pool.run(7, [&](std::size_t) { count.fetch_add(1); });
        ASSERT_EQ(count.load(), 7);
    }
}

TEST_F(RuntimeTest, PoolPropagatesFirstException) {
    runtime::ThreadPool pool(2);
    EXPECT_THROW(pool.run(16,
                          [&](std::size_t c) {
                              if (c == 3) throw std::runtime_error("chunk 3");
                          }),
                 std::runtime_error);
    // The pool must stay usable after a failed job.
    std::atomic<int> count{0};
    pool.run(4, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 4);
}

TEST_F(RuntimeTest, NestedPoolRunThrowsLogicError) {
    runtime::ThreadPool pool(2);
    std::atomic<int> rejections{0};
    pool.run(4, [&](std::size_t) {
        try {
            pool.run(2, [](std::size_t) {});
        } catch (const std::logic_error&) {
            rejections.fetch_add(1);
        }
    });
    EXPECT_EQ(rejections.load(), 4);
}

// --------------------------------------------------- chunk decomposition --

TEST_F(RuntimeTest, ChunkCountEdgeCases) {
    EXPECT_EQ(runtime::chunk_count(0, 0, 4), 0);
    EXPECT_EQ(runtime::chunk_count(5, 3, 4), 0);   // empty (reversed) range
    EXPECT_EQ(runtime::chunk_count(0, 10, 0), 10); // grain 0 behaves as 1
    EXPECT_EQ(runtime::chunk_count(0, 10, 3), 4);
    EXPECT_EQ(runtime::chunk_count(0, 10, 100), 1); // grain > range
    EXPECT_EQ(runtime::chunk_count(-4, 4, 3), 3);   // negative begin
}

TEST_F(RuntimeTest, GrainForBoundsChunksAndRespectsMinimum) {
    for (const std::int64_t n : {1, 7, 63, 64, 65, 1000, 1000000}) {
        const std::int64_t g = runtime::grain_for(n, 4);
        EXPECT_GE(g, 4);
        EXPECT_LE(runtime::chunk_count(0, n, g), runtime::kMaxChunks) << n;
    }
    EXPECT_EQ(runtime::grain_for(10, 0), 1); // min_grain clamped to 1
}

TEST_F(RuntimeTest, ParallelForCoversRangeWithoutOverlap) {
    runtime::set_num_threads(8);
    for (const std::int64_t grain : {0LL, 1LL, 3LL, 7LL, 100LL}) {
        std::vector<std::atomic<int>> hits(53);
        runtime::parallel_for(0, 53, grain, [&](std::int64_t b, std::int64_t e) {
            ASSERT_LT(b, e);
            for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
        });
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << "grain=" << grain << " i=" << i;
    }
}

TEST_F(RuntimeTest, ParallelForEmptyRangeNeverCallsBody) {
    runtime::set_num_threads(4);
    bool called = false;
    runtime::parallel_for(3, 3, 1, [&](std::int64_t, std::int64_t) { called = true; });
    runtime::parallel_for(5, 2, 1, [&](std::int64_t, std::int64_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST_F(RuntimeTest, ParallelForChunksPassesStableChunkIndices) {
    runtime::set_num_threads(8);
    std::vector<std::atomic<int>> seen(runtime::chunk_count(0, 40, 6));
    runtime::parallel_for_chunks(0, 40, 6,
                                 [&](std::int64_t b, std::int64_t e, std::size_t c) {
                                     EXPECT_EQ(b, static_cast<std::int64_t>(c) * 6);
                                     EXPECT_EQ(e, std::min<std::int64_t>(40, b + 6));
                                     seen[c].fetch_add(1);
                                 });
    for (std::size_t c = 0; c < seen.size(); ++c) EXPECT_EQ(seen[c].load(), 1);
}

TEST_F(RuntimeTest, ParallelForPropagatesExceptions) {
    runtime::set_num_threads(4);
    EXPECT_THROW(
        runtime::parallel_for(0, 100, 1,
                              [](std::int64_t b, std::int64_t) {
                                  if (b == 50) throw std::runtime_error("boom");
                              }),
        std::runtime_error);
    // Subsequent loops still work.
    std::atomic<int> count{0};
    runtime::parallel_for(0, 10, 1,
                          [&](std::int64_t b, std::int64_t e) {
                              count.fetch_add(static_cast<int>(e - b));
                          });
    EXPECT_EQ(count.load(), 10);
}

// ----------------------------------------------------- nesting + serial --

TEST_F(RuntimeTest, NestedParallelForSerializesInnerRegion) {
    runtime::set_num_threads(8);
    std::atomic<int> inner_total{0};
    std::atomic<bool> inner_saw_serial{true};
    runtime::parallel_for(0, 8, 1, [&](std::int64_t, std::int64_t) {
        const auto outer_thread = std::this_thread::get_id();
        runtime::parallel_for(0, 16, 1, [&](std::int64_t b, std::int64_t e) {
            if (std::this_thread::get_id() != outer_thread)
                inner_saw_serial.store(false);
            inner_total.fetch_add(static_cast<int>(e - b));
        });
    });
    EXPECT_TRUE(inner_saw_serial.load()); // inner chunks stayed on their thread
    EXPECT_EQ(inner_total.load(), 8 * 16);
}

TEST_F(RuntimeTest, SerialGuardForcesInlineExecution) {
    runtime::set_num_threads(8);
    EXPECT_FALSE(runtime::in_serial_region());
    runtime::SerialGuard guard;
    EXPECT_TRUE(runtime::in_serial_region());
    const auto caller = std::this_thread::get_id();
    std::int64_t last_end = 0;
    runtime::parallel_for(0, 100, 3, [&](std::int64_t b, std::int64_t e) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(b, last_end); // ascending chunk order
        last_end = e;
    });
    EXPECT_EQ(last_end, 100);
}

TEST_F(RuntimeTest, NumThreadsConfiguration) {
    runtime::set_num_threads(3);
    EXPECT_EQ(runtime::num_threads(), 3u);
    runtime::set_num_threads(1);
    EXPECT_EQ(runtime::num_threads(), 1u);
    runtime::set_num_threads(0); // re-resolve from env/hardware
    EXPECT_GE(runtime::num_threads(), 1u);
}

TEST_F(RuntimeTest, MalformedThreadsEnvFallsBackWithTypedWarning) {
    // The ctest re-runs pin AMRET_THREADS; restore whatever was set.
    const char* prev = std::getenv("AMRET_THREADS");
    const std::string saved = prev ? prev : "";
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    obs::Counter& warned = obs::counter("warn.runtime.threads_env_invalid");

    for (const char* bad : {"8x", "abc", "0", "-3", "3.5", " "}) {
        ::setenv("AMRET_THREADS", bad, 1);
        const std::int64_t before = warned.value();
        runtime::set_num_threads(0); // re-resolve from env/hardware
        EXPECT_EQ(runtime::num_threads(), hw) << bad;
        EXPECT_EQ(warned.value(), before + 1) << bad;
    }
    // Whole positive integers parse, without a warning.
    const std::int64_t before = warned.value();
    ::setenv("AMRET_THREADS", "3", 1);
    runtime::set_num_threads(0);
    EXPECT_EQ(runtime::num_threads(), 3u);
    ::setenv("AMRET_THREADS", "", 1); // empty means unset
    runtime::set_num_threads(0);
    EXPECT_EQ(runtime::num_threads(), hw);
    EXPECT_EQ(warned.value(), before);

    if (prev)
        ::setenv("AMRET_THREADS", saved.c_str(), 1);
    else
        ::unsetenv("AMRET_THREADS");
}

// -------------------------------------------------- ordered accumulation --

std::vector<float> accumulate_at(unsigned threads, std::int64_t n,
                                 std::int64_t grain, std::size_t width) {
    runtime::set_num_threads(threads);
    std::vector<float> out(width, 0.0f);
    runtime::parallel_accumulate(0, n, grain, width,
                                 [&](std::int64_t i, float* acc) {
                                     for (std::size_t j = 0; j < width; ++j)
                                         acc[j] += 0.1f * static_cast<float>(i) +
                                                   0.01f * static_cast<float>(j);
                                 },
                                 out.data());
    return out;
}

TEST_F(RuntimeTest, ParallelAccumulateIsBitwiseIdenticalAcrossThreadCounts) {
    const auto ref = accumulate_at(1, 1000, 16, 7);
    for (const unsigned t : {2u, 8u}) {
        const auto got = accumulate_at(t, 1000, 16, 7);
        ASSERT_EQ(got.size(), ref.size());
        for (std::size_t j = 0; j < ref.size(); ++j)
            EXPECT_EQ(got[j], ref[j]) << "threads=" << t << " j=" << j;
    }
}

TEST_F(RuntimeTest, ParallelAccumulateAddsIntoExistingOutput) {
    runtime::set_num_threads(2);
    std::vector<float> out = {10.0f, 20.0f};
    runtime::parallel_accumulate(0, 4, 1, 2,
                                 [](std::int64_t, float* acc) {
                                     acc[0] += 1.0f;
                                     acc[1] += 2.0f;
                                 },
                                 out.data());
    EXPECT_FLOAT_EQ(out[0], 14.0f);
    EXPECT_FLOAT_EQ(out[1], 28.0f);
}

// ------------------------------------------------------------ rng split --

TEST(RngSplit, DeterministicPerStream) {
    util::Rng parent(42), parent2(42);
    util::Rng a = parent.split(0);
    util::Rng b = parent2.split(0);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), b());
}

TEST(RngSplit, DoesNotAdvanceParent) {
    util::Rng parent(42), witness(42);
    (void)parent.split(1);
    (void)parent.split(2);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(parent(), witness());
}

TEST(RngSplit, DistinctStreamsDecorrelated) {
    util::Rng parent(42);
    util::Rng a = parent.split(0);
    util::Rng b = parent.split(1);
    int collisions = 0;
    for (int i = 0; i < 64; ++i) {
        if (a() == b()) ++collisions;
    }
    EXPECT_EQ(collisions, 0);
}

TEST(RngSplit, DependsOnParentState) {
    util::Rng p1(1), p2(2);
    EXPECT_NE(p1.split(0)(), p2.split(0)());
}

// ------------------------------------------------------ logging (smoke) --

TEST_F(RuntimeTest, LoggingIsSafeFromParallelChunks) {
    runtime::set_num_threads(8);
    const auto level = util::log_level();
    util::set_log_level(util::LogLevel::kOff);
    runtime::parallel_for(0, 64, 1, [](std::int64_t b, std::int64_t) {
        util::log_info("parallel chunk ", b);
        util::log_debug("debug from chunk ", b);
    });
    util::set_log_level(level);
}

} // namespace
