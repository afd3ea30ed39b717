// Tests for the batching inference service (src/serve): micro-batch
// coalescing policy, the multi-model registry, admission control, and the
// end-to-end determinism contract — logits served through any batch are
// bitwise-identical to a direct single-shot engine run.
#include "serve/loadgen.hpp"
#include "serve/registry.hpp"
#include "serve/serve.hpp"

#include "appmult/registry.hpp"
#include "models/models.hpp"
#include "train/pipeline.hpp"
#include "train/trainer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <limits>
#include <thread>

namespace {

using namespace amret;

// ------------------------------------------------------------ BatchBuilder

using IntBuilder = serve::detail::BatchBuilder<int>;

TEST(ServeBatchBuilder, FlushesWhenFull) {
    IntBuilder b(4, 1'000'000); // deadline far away: only fullness triggers
    for (int i = 0; i < 3; ++i) b.add(i, 100);
    EXPECT_TRUE(b.take_due(101, false).empty()) << "partial batch, no deadline";
    b.add(3, 100);
    const auto batch = b.take_due(101, false);
    ASSERT_EQ(batch.size(), 4u);
    EXPECT_EQ(b.size(), 0u);
}

TEST(ServeBatchBuilder, FlushesAtDeadline) {
    IntBuilder b(8, 500);
    b.add(1, 1000);
    EXPECT_TRUE(b.take_due(1499, false).empty());
    const auto batch = b.take_due(1500, false); // oldest waited >= deadline
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0], 1);
}

TEST(ServeBatchBuilder, KeepsFifoOrderAndCapsBatch) {
    IntBuilder b(3, 0); // deadline 0: everything due immediately
    for (int i = 0; i < 7; ++i) b.add(i, i);
    const auto first = b.take_due(10, false);
    ASSERT_EQ(first.size(), 3u);
    EXPECT_EQ(first, (std::vector<int>{0, 1, 2}));
    const auto second = b.take_due(10, false);
    EXPECT_EQ(second, (std::vector<int>{3, 4, 5}));
    EXPECT_EQ(b.take_due(10, false), std::vector<int>{6});
}

TEST(ServeBatchBuilder, ForceFlushesPartial) {
    IntBuilder b(8, 1'000'000);
    b.add(42, 0);
    EXPECT_TRUE(b.take_due(1, false).empty());
    EXPECT_EQ(b.take_due(1, true), std::vector<int>{42});
}

TEST(ServeBatchBuilder, ExpiresOldestFirst) {
    IntBuilder b(8, 1'000'000);
    b.add(1, 100);
    b.add(2, 200);
    b.add(3, 300);
    EXPECT_EQ(b.expire_older_than(250), (std::vector<int>{1, 2}));
    EXPECT_EQ(b.size(), 1u);
    EXPECT_EQ(b.take_due(0, true), std::vector<int>{3});
}

TEST(ServeBatchBuilder, NextFlushTracksOldest) {
    IntBuilder b(2, 500);
    EXPECT_EQ(b.next_flush_us(), std::numeric_limits<std::int64_t>::max());
    b.add(1, 1000);
    EXPECT_EQ(b.next_flush_us(), 1500);
    b.add(2, 2000); // now full: due immediately
    EXPECT_LE(b.next_flush_us(), 1500);
}

// ----------------------------------------------------------- ModelRegistry

TEST(ServeRegistry, KeyIsContentAddressed) {
    const serve::ModelSpec a{"lenet", "mul8u_acc", "v0"};
    const serve::ModelSpec b{"lenet", "mul8u_acc", "v0"};
    EXPECT_EQ(a.key(), b.key());
    EXPECT_NE(a.key(), (serve::ModelSpec{"lenet", "mul8u_acc", "v1"}.key()));
    EXPECT_NE(a.key(), (serve::ModelSpec{"lenet", "mul7u_rm6", "v0"}.key()));
    EXPECT_NE(a.key(), (serve::ModelSpec{"vgg11", "mul8u_acc", "v0"}.key()));
    // Field boundaries matter: ("ab","c") != ("a","bc").
    EXPECT_NE((serve::ModelSpec{"ab", "c", ""}.key()),
              (serve::ModelSpec{"a", "bc", ""}.key()));
    EXPECT_EQ(a.key().size(), 16u);
}

// A loader that returns null engines — registry mechanics don't need a real
// model, and InferenceServer is never involved in these tests.
serve::ModelRegistry::Loader counting_loader(std::atomic<int>& loads) {
    return [&loads](const serve::ModelSpec&) {
        loads.fetch_add(1);
        // A non-null placeholder; never dereferenced by the registry.
        return std::shared_ptr<approx::IntInferenceEngine>(
            reinterpret_cast<approx::IntInferenceEngine*>(0x1),
            [](approx::IntInferenceEngine*) {});
    };
}

TEST(ServeRegistry, CachesAndCountsHits) {
    std::atomic<int> loads{0};
    serve::ModelRegistry registry(counting_loader(loads), 4);
    const serve::ModelSpec spec{"lenet", "mul8u_acc", "v0"};
    auto r1 = registry.acquire(spec);
    auto r2 = registry.acquire(spec);
    EXPECT_EQ(r1.get(), r2.get());
    EXPECT_EQ(loads.load(), 1);
    const auto stats = registry.stats();
    EXPECT_EQ(stats.loads, 1);
    EXPECT_EQ(stats.hits, 1);
    EXPECT_EQ(stats.resident, 1u);
}

TEST(ServeRegistry, EvictsLeastRecentlyUsed) {
    std::atomic<int> loads{0};
    serve::ModelRegistry registry(counting_loader(loads), 2);
    const serve::ModelSpec a{"m", "a", ""}, b{"m", "b", ""}, c{"m", "c", ""};
    auto ra = registry.acquire(a);
    registry.acquire(b);
    registry.acquire(a);              // a is now most recently used
    registry.acquire(c);              // evicts b, the LRU victim
    EXPECT_EQ(registry.stats().evictions, 1);
    EXPECT_EQ(registry.stats().resident, 2u);
    const auto keys = registry.resident_keys();
    EXPECT_EQ(keys.front(), c.key());
    EXPECT_TRUE(std::find(keys.begin(), keys.end(), b.key()) == keys.end());
    registry.acquire(b);              // reload after eviction
    EXPECT_EQ(loads.load(), 4);
    // The shared_ptr handed out before eviction stays valid throughout.
    EXPECT_EQ(ra->spec, a);
}

TEST(ServeRegistry, SingleFlightColdLoad) {
    std::atomic<int> loads{0};
    std::atomic<int> in_loader{0};
    serve::ModelRegistry registry(
        [&](const serve::ModelSpec&) {
            in_loader.fetch_add(1);
            loads.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            EXPECT_EQ(in_loader.load(), 1) << "two loads of one spec raced";
            in_loader.fetch_sub(1);
            return std::shared_ptr<approx::IntInferenceEngine>(
                reinterpret_cast<approx::IntInferenceEngine*>(0x1),
                [](approx::IntInferenceEngine*) {});
        },
        4);
    const serve::ModelSpec spec{"lenet", "mul8u_acc", "v0"};
    std::vector<std::thread> threads;
    std::vector<std::shared_ptr<serve::Resident>> out(8);
    for (int i = 0; i < 8; ++i)
        threads.emplace_back([&, i] { out[i] = registry.acquire(spec); });
    for (auto& t : threads) t.join();
    EXPECT_EQ(loads.load(), 1);
    for (int i = 1; i < 8; ++i) EXPECT_EQ(out[0].get(), out[i].get());
}

TEST(ServeRegistry, FailedLoadRetriesLater) {
    std::atomic<int> calls{0};
    serve::ModelRegistry registry(
        [&](const serve::ModelSpec&)
            -> std::shared_ptr<approx::IntInferenceEngine> {
            if (calls.fetch_add(1) == 0)
                throw std::runtime_error("transient load failure");
            return std::shared_ptr<approx::IntInferenceEngine>(
                reinterpret_cast<approx::IntInferenceEngine*>(0x1),
                [](approx::IntInferenceEngine*) {});
        },
        4);
    const serve::ModelSpec spec{"lenet", "mul8u_acc", "v0"};
    EXPECT_THROW(registry.acquire(spec), std::runtime_error);
    EXPECT_EQ(registry.stats().resident, 0u);
    EXPECT_NE(registry.acquire(spec), nullptr); // the failure wasn't cached
    EXPECT_EQ(calls.load(), 2);
}

// ----------------------------------------------- end-to-end serving fixture

/// Trains one tiny LeNet on the synthetic task once per process and exposes
/// a registry loader that compiles an IntInferenceEngine per multiplier from
/// the shared snapshot — the same recipe as `amret_cli serve`.
class ServeEndToEnd : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        data::SyntheticConfig dc;
        dc.num_classes = 6;
        dc.height = dc.width = 8;
        dc.train_samples = 240;
        dc.test_samples = 120;
        dc.noise_stddev = 0.3f;
        dc.seed = 77;
        data_ = new data::DatasetPair(data::make_synthetic(dc));

        models::ModelConfig mc;
        mc.in_size = 8;
        mc.num_classes = 6;
        mc.width_mult = 0.5f;
        auto model = train::make_model("lenet", mc);
        auto& reg = appmult::Registry::instance();
        approx::MultiplierConfig config;
        config.lut =
            std::make_shared<appmult::AppMultLut>(reg.lut("mul8u_acc"));
        config.grad = std::make_shared<core::GradLut>(
            core::build_ste_grad(reg.info("mul8u_acc").bits));
        approx::configure_approx_layers(*model, config,
                                        approx::ComputeMode::kQuantized);
        train::TrainConfig tc;
        tc.epochs = 2;
        tc.batch_size = 24;
        tc.lr = 3e-3;
        train::Trainer trainer(*model, data_->train, data_->test, tc);
        trainer.train_only(2);
        snapshot_ = new train::ModelSnapshot(train::snapshot(*model));
    }

    static void TearDownTestSuite() {
        delete snapshot_;
        snapshot_ = nullptr;
        delete data_;
        data_ = nullptr;
    }

    static std::shared_ptr<approx::IntInferenceEngine>
    load_engine(const serve::ModelSpec& spec) {
        models::ModelConfig mc;
        mc.in_size = 8;
        mc.num_classes = 6;
        mc.width_mult = 0.5f;
        auto m = train::make_model(spec.model, mc);
        auto& reg = appmult::Registry::instance();
        approx::MultiplierConfig config;
        config.lut =
            std::make_shared<appmult::AppMultLut>(reg.lut(spec.multiplier));
        config.grad = std::make_shared<core::GradLut>(
            core::build_ste_grad(reg.info(spec.multiplier).bits));
        approx::configure_approx_layers(*m, config,
                                        approx::ComputeMode::kQuantized);
        train::restore(*m, *snapshot_);
        m->set_training(false);
        return std::make_shared<approx::IntInferenceEngine>(*m, data_->train,
                                                            64);
    }

    static serve::ModelRegistry make_registry(std::size_t capacity = 4) {
        return serve::ModelRegistry(&ServeEndToEnd::load_engine, capacity);
    }

    /// Test sample i as a (1, C, H, W) tensor.
    static tensor::Tensor sample(std::int64_t i) {
        const auto& test = data_->test;
        tensor::Tensor t(
            tensor::Shape{1, test.channels, test.height, test.width});
        std::copy_n(test.images.data() + i * test.sample_numel(),
                    test.sample_numel(), t.data());
        return t;
    }

    static data::DatasetPair* data_;
    static train::ModelSnapshot* snapshot_;
};

data::DatasetPair* ServeEndToEnd::data_ = nullptr;
train::ModelSnapshot* ServeEndToEnd::snapshot_ = nullptr;

bool bitwise_equal(const tensor::Tensor& a, const tensor::Tensor& b) {
    return a.numel() == b.numel() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST_F(ServeEndToEnd, ServedLogitsBitwiseMatchSingleShot) {
    auto registry = make_registry();
    const serve::ModelSpec spec{"lenet", "mul8u_acc", "v0"};
    // Direct single-shot reference, one sample at a time.
    auto engine = load_engine(spec);
    std::vector<tensor::Tensor> expected;
    for (std::int64_t i = 0; i < 24; ++i)
        expected.push_back(engine->forward(sample(i)));

    serve::ServeConfig sc;
    sc.workers = 2;
    sc.max_batch = 8;
    sc.deadline_us = 2000;
    serve::InferenceServer server(registry, sc);
    std::vector<std::future<serve::Result>> futures;
    for (std::int64_t i = 0; i < 24; ++i)
        futures.push_back(server.submit(spec, sample(i)));
    bool saw_multi_row_batch = false;
    for (std::int64_t i = 0; i < 24; ++i) {
        serve::Result r = futures[static_cast<std::size_t>(i)].get();
        ASSERT_EQ(r.status, serve::Status::kOk) << "request " << i;
        ASSERT_EQ(r.logits.numel(), 6);
        EXPECT_TRUE(bitwise_equal(r.logits, expected[static_cast<std::size_t>(i)]))
            << "batched logits diverged from single-shot at request " << i;
        saw_multi_row_batch |= r.batch_size > 1;
    }
    server.stop(true);
    EXPECT_TRUE(saw_multi_row_batch)
        << "coalescer never packed a multi-row batch";
    EXPECT_EQ(server.stats().served, 24);
}

TEST_F(ServeEndToEnd, AdmissionRejectsWhenQueueFull) {
    auto registry = make_registry();
    const serve::ModelSpec spec{"lenet", "mul8u_acc", "v0"};
    registry.acquire(spec); // pre-warm so submit never blocks on a load

    serve::ServeConfig sc;
    sc.workers = 1;
    sc.queue_depth = 4;
    sc.max_batch = 4;
    sc.deadline_us = 100;
    serve::InferenceServer server(registry, sc);
    server.set_paused(true); // nothing drains: the queue must fill

    std::vector<std::future<serve::Result>> futures;
    for (int i = 0; i < 10; ++i)
        futures.push_back(server.submit(spec, sample(i)));

    int ok = 0, rejected = 0;
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < futures.size(); ++i) {
        if (futures[i].wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
            EXPECT_EQ(futures[i].get().status, serve::Status::kRejected);
            ++rejected;
        } else {
            pending.push_back(i);
        }
    }
    EXPECT_EQ(rejected, 6) << "queue_depth=4 must reject the overflow";

    server.set_paused(false); // the 4 admitted requests now get served
    for (const std::size_t i : pending) {
        EXPECT_EQ(futures[i].get().status, serve::Status::kOk);
        ++ok;
    }
    EXPECT_EQ(ok, 4);
    server.stop(true);
    const auto stats = server.stats();
    EXPECT_EQ(stats.rejected, 6);
    EXPECT_EQ(stats.served, 4);
}

TEST_F(ServeEndToEnd, QueueTimeoutWhilePaused) {
    auto registry = make_registry();
    const serve::ModelSpec spec{"lenet", "mul8u_acc", "v0"};
    registry.acquire(spec);

    serve::ServeConfig sc;
    sc.workers = 1;
    sc.queue_timeout_us = 20'000; // 20 ms
    serve::InferenceServer server(registry, sc);
    server.set_paused(true);
    auto future = server.submit(spec, sample(0));
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    server.set_paused(false);
    EXPECT_EQ(future.get().status, serve::Status::kTimeout);
    server.stop(true);
    EXPECT_EQ(server.stats().timeouts, 1);
}

TEST_F(ServeEndToEnd, BadShapeAndUnknownModelAreTyped) {
    auto registry = make_registry();
    const serve::ModelSpec spec{"lenet", "mul8u_acc", "v0"};
    serve::ServeConfig sc;
    serve::InferenceServer server(registry, sc);

    // Establish the (C, H, W) contract, then violate it.
    EXPECT_EQ(server.submit(spec, sample(0)).get().status, serve::Status::kOk);
    tensor::Tensor wrong(tensor::Shape{1, 3, 4, 4});
    EXPECT_EQ(server.submit(spec, wrong).get().status,
              serve::Status::kBadRequest);

    const serve::ModelSpec unknown{"lenet", "no_such_multiplier", "v0"};
    EXPECT_EQ(server.submit(unknown, sample(0)).get().status,
              serve::Status::kLoadFailed);
    server.stop(true);
    EXPECT_EQ(server.stats().bad_requests, 1);
    EXPECT_EQ(server.stats().load_failures, 1);
}

TEST_F(ServeEndToEnd, WrongShapedFirstRequestDoesNotFixTheShape) {
    // The engine's calibrated shape is the contract, not the first request:
    // a malformed first request is refused and later well-formed ones run.
    auto registry = make_registry();
    const serve::ModelSpec spec{"lenet", "mul8u_acc", "v0"};
    serve::InferenceServer server(registry, serve::ServeConfig{});
    const tensor::Tensor good = sample(3);
    for (const tensor::Shape& bad :
         {tensor::Shape{1, good.dim(1), 2 * good.dim(2), 2 * good.dim(3)},
          tensor::Shape{1, good.dim(1) + 1, good.dim(2), good.dim(3)}}) {
        EXPECT_EQ(server.submit(spec, tensor::Tensor(bad)).get().status,
                  serve::Status::kBadRequest);
    }
    const serve::Result r = server.submit(spec, good).get();
    ASSERT_EQ(r.status, serve::Status::kOk);

    auto engine = load_engine(spec);
    kernels::Workspace ws;
    tensor::Tensor expected;
    engine->forward_into(good, ws, expected);
    EXPECT_TRUE(bitwise_equal(r.logits, expected));
    server.stop(true);
    EXPECT_EQ(server.stats().bad_requests, 2);
}

TEST(ServeShapes, OneWorkerAlternatesEqualSizeModelsOfDifferentShape) {
    // Samples of (3, 8, 8) and (12, 4, 4) hold the same number of floats; a
    // worker alternating between the two models must not hand one model's
    // reused input buffer, shaped for the other, to forward_into.
    struct Model {
        data::DatasetPair data;
        std::unique_ptr<nn::Sequential> net;
        std::shared_ptr<approx::IntInferenceEngine> engine;
    };
    const auto make = [](std::int64_t channels, std::int64_t size) {
        Model m;
        data::SyntheticConfig dc;
        dc.num_classes = 4;
        dc.channels = channels;
        dc.height = dc.width = size;
        dc.train_samples = 16;
        dc.test_samples = 4;
        m.data = data::make_synthetic(dc);
        models::ModelConfig mc;
        mc.in_channels = channels;
        mc.in_size = size;
        mc.num_classes = 4;
        mc.width_mult = 0.5f;
        m.net = train::make_model("lenet", mc);
        m.net->set_training(false);
        m.engine = std::make_shared<approx::IntInferenceEngine>(*m.net, m.data.train, 16);
        return m;
    };
    const Model a = make(3, 8), b = make(12, 4);
    serve::ModelRegistry registry(
        [&](const serve::ModelSpec& spec) { return spec.model == "a" ? a.engine : b.engine; },
        4);
    serve::ServeConfig sc;
    sc.workers = 1;
    serve::InferenceServer server(registry, sc);
    for (int round = 0; round < 3; ++round) {
        for (const Model* m : {&a, &b}) {
            const auto& test = m->data.test;
            tensor::Tensor x(tensor::Shape{1, test.channels, test.height, test.width});
            std::copy_n(test.images.data(), test.sample_numel(), x.data());
            const serve::Result r =
                server.submit({m == &a ? "a" : "b", "", ""}, x).get();
            ASSERT_EQ(r.status, serve::Status::kOk) << "round " << round;
            const tensor::Tensor want = m->engine->forward(x);
            ASSERT_EQ(r.logits.numel(), want.numel());
            EXPECT_EQ(std::memcmp(r.logits.data(), want.data(),
                                  static_cast<std::size_t>(want.numel()) * sizeof(float)),
                      0);
        }
    }
    server.stop(true);
}

TEST_F(ServeEndToEnd, ConcurrentClientsTwoModelsStayDeterministic) {
    auto registry = make_registry();
    const serve::ModelSpec specs[2] = {{"lenet", "mul8u_acc", "v0"},
                                       {"lenet", "mul7u_rm6", "v0"}};
    // Single-shot references for both models over the first 8 samples.
    tensor::Tensor expected[2][8];
    for (int m = 0; m < 2; ++m) {
        auto engine = load_engine(specs[m]);
        for (std::int64_t i = 0; i < 8; ++i)
            expected[m][i] = engine->forward(sample(i));
    }

    serve::ServeConfig sc;
    sc.workers = 3;
    sc.max_batch = 4;
    sc.deadline_us = 500;
    serve::InferenceServer server(registry, sc);

    constexpr int kClients = 8, kPerClient = 25;
    std::atomic<int> mismatches{0}, failures{0};
    std::vector<std::thread> clients;
    for (int ci = 0; ci < kClients; ++ci) {
        clients.emplace_back([&, ci] {
            for (int r = 0; r < kPerClient; ++r) {
                const int m = (ci + r) % 2;
                const std::int64_t i = (ci * 7 + r) % 8;
                serve::Result result =
                    server.submit(specs[m], sample(i)).get();
                if (result.status != serve::Status::kOk) {
                    failures.fetch_add(1);
                    continue;
                }
                if (!bitwise_equal(result.logits,
                                   expected[m][static_cast<std::size_t>(i)]))
                    mismatches.fetch_add(1);
            }
        });
    }
    for (auto& t : clients) t.join();
    server.stop(true);
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(mismatches.load(), 0)
        << "a batched run diverged from its single-shot reference";
    const auto stats = server.stats();
    EXPECT_EQ(stats.served, kClients * kPerClient);
    EXPECT_EQ(registry.stats().resident, 2u);
}

TEST_F(ServeEndToEnd, StopWithoutDrainFailsPendingTyped) {
    auto registry = make_registry();
    const serve::ModelSpec spec{"lenet", "mul8u_acc", "v0"};
    registry.acquire(spec);
    serve::ServeConfig sc;
    sc.workers = 1;
    serve::InferenceServer server(registry, sc);
    server.set_paused(true);
    std::vector<std::future<serve::Result>> futures;
    for (int i = 0; i < 4; ++i)
        futures.push_back(server.submit(spec, sample(i)));
    server.stop(/*drain=*/false);
    for (auto& f : futures)
        EXPECT_EQ(f.get().status, serve::Status::kShutdown);
    EXPECT_EQ(server.submit(spec, sample(0)).get().status,
              serve::Status::kShutdown);
}

// ------------------------------------------------------ coalescer wakes

/// Runs \p start once inside the window between the coalescer's wake check
/// and its block, and returns the future \p start made. \p start launches
/// a thread that acts on the server; the hook gives it 50 ms to finish
/// before the coalescer blocks, which is how an unlocked wake-state change
/// would slip through unseen. The coalescer must be idle (blocked, nothing
/// pending) on entry: resuming the unpaused server wakes it without
/// changing its state, so it re-checks, and the hook runs as it blocks
/// again.
template <typename Start>
auto act_inside_block_window(serve::InferenceServer& server, Start start) {
    std::atomic<bool> fired{false};
    decltype(start()) done;
    server.set_before_block_hook([&] {
        if (fired.load()) return;
        done = start();
        done.wait_for(std::chrono::milliseconds(50));
        fired.store(true);
    });
    server.set_paused(false);
    const auto t0 = std::chrono::steady_clock::now();
    while (!fired.load()) {
        if (std::chrono::steady_clock::now() - t0 > std::chrono::seconds(10)) {
            ADD_FAILURE() << "the coalescer never reached its block";
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    server.set_before_block_hook({}); // also orders the hook's writes first
    return done;
}

/// Lets the last completion's slot-freed wake land, so the coalescer is idle.
void settle() { std::this_thread::sleep_for(std::chrono::milliseconds(20)); }

TEST_F(ServeEndToEnd, SubmitInsideTheBlockWindowIsServed) {
    auto registry = make_registry();
    const serve::ModelSpec spec{"lenet", "mul8u_acc", "v0"};
    registry.acquire(spec);
    serve::ServeConfig sc;
    sc.workers = 1;
    sc.max_batch = 1;
    serve::InferenceServer server(registry, sc);
    ASSERT_EQ(server.submit(spec, sample(0)).get().status, serve::Status::kOk);
    settle();

    // No deadline is pending, so only the submit's own wake can get this
    // request served.
    auto late = act_inside_block_window(server, [&] {
        return std::async(std::launch::async,
                          [&] { return server.submit(spec, sample(1)); });
    });
    ASSERT_TRUE(late.valid());
    std::future<serve::Result> result = late.get();
    ASSERT_EQ(result.wait_for(std::chrono::seconds(10)), std::future_status::ready)
        << "a submit made while the coalescer went to sleep was never served";
    EXPECT_EQ(result.get().status, serve::Status::kOk);
    server.stop(true);
}

TEST_F(ServeEndToEnd, StopInsideTheBlockWindowReturns) {
    auto registry = make_registry();
    const serve::ModelSpec spec{"lenet", "mul8u_acc", "v0"};
    registry.acquire(spec);
    serve::ServeConfig sc;
    sc.workers = 1;
    serve::InferenceServer server(registry, sc);
    ASSERT_EQ(server.submit(spec, sample(0)).get().status, serve::Status::kOk);
    settle();

    auto stopped = act_inside_block_window(server, [&] {
        return std::async(std::launch::async, [&] { server.stop(true); });
    });
    ASSERT_TRUE(stopped.valid());
    EXPECT_EQ(stopped.wait_for(std::chrono::seconds(10)), std::future_status::ready)
        << "stop() issued while the coalescer went to sleep never returned";
}

TEST_F(ServeEndToEnd, CappedLaneIsWokenByItsFreedSlot) {
    auto registry = make_registry();
    const serve::ModelSpec spec{"lenet", "mul8u_acc", "v0"};
    registry.acquire(spec);
    serve::ServeConfig sc;
    sc.workers = 2;
    sc.max_batch = 1;
    sc.deadline_us = 0;
    sc.model_concurrency = 1; // every pending request waits on a freed slot
    serve::InferenceServer server(registry, sc);
    std::vector<std::future<serve::Result>> futures;
    for (std::int64_t i = 0; i < 64; ++i)
        futures.push_back(server.submit(spec, sample(i % 8)));
    for (auto& f : futures) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(10)), std::future_status::ready)
            << "a lane held at its in-flight cap was never woken";
        EXPECT_EQ(f.get().status, serve::Status::kOk);
    }
    server.stop(true);
    EXPECT_EQ(server.stats().served, 64);
}

TEST_F(ServeEndToEnd, SingleClientClosedLoopNeverLosesAWake) {
    auto registry = make_registry();
    const serve::ModelSpec spec{"lenet", "mul8u_acc", "v0"};
    registry.acquire(spec);
    serve::ServeConfig sc;
    sc.workers = 2;
    sc.deadline_us = 0; // each lone request flushes at once
    serve::InferenceServer server(registry, sc);
    // One request in flight at a time: every submit lands while the
    // coalescer is idle or on its way to sleep, and nothing else would wake
    // it. No rescue: a lost wake shows as a watchdog failure.
    constexpr int kRequests = 20000;
    for (int i = 0; i < kRequests; ++i) {
        std::future<serve::Result> f = server.submit(spec, sample(i % 8));
        ASSERT_EQ(f.wait_for(std::chrono::seconds(10)), std::future_status::ready)
            << "request " << i << " lost its wake";
        ASSERT_EQ(f.get().status, serve::Status::kOk) << "request " << i;
    }
    server.stop(true);
    EXPECT_EQ(server.stats().served, kRequests);
}

TEST_F(ServeEndToEnd, LoadGenReportsServedTraffic) {
    auto registry = make_registry();
    serve::ServeConfig sc;
    sc.workers = 2;
    sc.max_batch = 8;
    serve::InferenceServer server(registry, sc);
    std::vector<serve::ModelSpec> hot{{"lenet", "mul8u_acc", "v0"}};
    std::vector<serve::ModelSpec> cold{{"lenet", "mul7u_rm6", "v0"}};
    std::vector<tensor::Tensor> samples;
    for (std::int64_t i = 0; i < 4; ++i) samples.push_back(sample(i));

    serve::LoadGenConfig lc;
    lc.clients = 4;
    lc.duration_ms = 200;
    lc.hot_fraction = 0.75;
    const auto report = serve::run_loadgen(server, hot, cold, samples, lc);
    server.stop(true);
    EXPECT_GT(report.total, 0);
    EXPECT_EQ(report.ok, report.total);
    EXPECT_EQ(report.errors, 0);
    EXPECT_GT(report.qps, 0.0);
    EXPECT_GE(report.p99_us, report.p50_us);
    EXPECT_EQ(static_cast<std::int64_t>(report.latencies_us.size()), report.ok);
}

} // namespace
