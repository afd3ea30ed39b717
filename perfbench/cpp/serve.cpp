/// \file serve.cpp
/// \brief serve_lenet: the serving layer under closed bursts and open-loop
///        Poisson traffic.
///
/// The server has 2 workers, max_batch 16, a 1 ms deadline and a 1-thread
/// kernel pool, so generator + coalescer + workers use 4 threads. It serves
/// two pre-warmed LeNet engines: 90 % of requests go to mul8u_acc, 10 % to
/// mul7u_rm6. The run has two parts:
///
///  - Cost: bursts of kBurst requests submitted at once, so batches fill,
///    and lone requests submitted one at a time, so each waits out the
///    deadline as a batch of one. Each records the CPU time of the server
///    threads (all but the generator).
///  - Open loop: one generator thread submits requests on a seeded schedule
///    at their due times whether or not earlier ones completed (independent
///    users): light (2000 req/s, partial batches flush on the deadline),
///    heavy (8000 req/s, batches of about 7), then a ladder of 14 rising
///    rates from 5000 req/s. Each phase drains before the next. Every
///    request records its due time, send time and the server's queue/total
///    time; each phase records the CPU time of the server threads and of
///    the busiest of them.
///
/// Every served logits row must be memcmp-equal to a single-shot
/// forward_into of the same engine and input.
#include "common.hpp"

#include "amret.hpp"

#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <thread>

namespace perfbench {

namespace {

using namespace amret;

const std::vector<std::string> kMultipliers{"mul8u_acc", "mul7u_rm6"};
constexpr double kHeavyModelShare = 0.9; ///< share of traffic to model 0
constexpr std::int64_t kInputs = 64;     ///< distinct request inputs
constexpr int kClasses = 10;
constexpr std::int64_t kInSize = 16;
constexpr float kWidth = 0.5f;
constexpr int kLadderRungs = 14;
constexpr double kLadderBase = 5000.0;
constexpr double kLadderStep = 1.08;
/// Requests per closed burst: two full batches, one per worker.
constexpr std::int64_t kBurst = 32;
/// Share of --seconds each cost part (bursts, lone requests) runs for.
constexpr double kCostShare = 0.1;

struct PhaseSpec {
    std::string name;
    double rate;    ///< mean arrivals per second
    double seconds; ///< schedule length
};

std::vector<PhaseSpec> phases_for(double seconds) {
    std::vector<PhaseSpec> phases{{"light", 2000.0, 0.2 * seconds},
                                  {"heavy", 8000.0, 0.2 * seconds}};
    double rate = kLadderBase;
    for (int r = 0; r < kLadderRungs; ++r, rate *= kLadderStep) {
        char name[16];
        std::snprintf(name, sizeof name, "ladder%d", r);
        phases.push_back({name, rate, 0.025 * seconds});
    }
    return phases;
}

/// One scheduled request.
struct Due {
    std::int64_t due_us; ///< offset from the phase start
    int model;
    std::int64_t input;
};

/// Seeded Poisson schedule: exponential gaps at \p rate, a 90/10 model mix
/// and uniformly drawn inputs. Same seed and phase, same schedule.
std::vector<Due> schedule(std::uint64_t seed, std::uint64_t phase, const PhaseSpec& p) {
    util::Rng rng = util::Rng(seed).split(phase + 1);
    const auto uniform = [&rng] {
        return (static_cast<double>(rng() >> 11) + 0.5) * 0x1.0p-53;
    };
    std::vector<Due> out;
    double t_s = 0.0;
    for (;;) {
        t_s += -std::log(uniform()) / p.rate;
        if (t_s >= p.seconds) break;
        Due d;
        d.due_us = static_cast<std::int64_t>(t_s * 1e6);
        d.model = uniform() < kHeavyModelShare ? 0 : 1;
        d.input = static_cast<std::int64_t>(rng() % kInputs);
        out.push_back(d);
    }
    return out;
}

struct Fixture {
    data::DatasetPair data;
    std::vector<std::shared_ptr<appmult::AppMultLut>> luts;
    std::vector<std::shared_ptr<core::GradLut>> grads;
    std::unique_ptr<serve::ModelRegistry> registry;
    std::vector<serve::ModelSpec> specs;
    std::vector<tensor::Tensor> inputs;
    std::vector<std::vector<tensor::Tensor>> expected; ///< [model][input]
    std::unique_ptr<serve::InferenceServer> server;
    double compile_ms = 0.0; ///< engine compiles done by the registry loader
};

/// Waits for \p future. The coalescer can miss the notify of a submit that
/// races with its going to sleep (the wake counter changes outside the
/// condition variable's mutex), and then sleeps until the next submit; with
/// no further submit coming, the request would never be served. After
/// \p patience without a result, resuming the (unpaused) server wakes the
/// coalescer; each such rescue is counted and reported.
serve::Result get_rescued(serve::InferenceServer& server,
                          std::future<serve::Result>& future,
                          std::chrono::milliseconds patience, std::int64_t& rescues) {
    while (future.wait_for(patience) != std::future_status::ready) {
        server.set_paused(false);
        ++rescues;
    }
    return future.get();
}

std::unique_ptr<Fixture> set_up(const Options& opt, Report& report,
                                std::int64_t& rescues) {
    auto s = std::make_unique<Fixture>();
    auto& reg = appmult::Registry::instance();
    report.setup_ms["data.synth_ms"] = time_ms([&] {
        data::SyntheticConfig dc;
        dc.num_classes = kClasses;
        dc.height = dc.width = kInSize;
        dc.train_samples = 128;
        dc.test_samples = kInputs;
        dc.seed = opt.seed;
        s->data = data::make_synthetic(dc);
    });
    report.setup_ms["appmult.lut_build_ms"] = time_ms([&] {
        for (const std::string& name : kMultipliers) {
            const multgen::MultiplierSpec mspec = reg.info(name).spec;
            s->luts.push_back(std::make_shared<appmult::AppMultLut>(
                mspec.bits, [&mspec](std::uint64_t w, std::uint64_t x) {
                    return multgen::behavioral(mspec, w, x);
                }));
        }
    });
    report.setup_ms["core.grad_lut_build_ms"] = time_ms([&] {
        for (const std::string& name : kMultipliers)
            s->grads.push_back(std::make_shared<core::GradLut>(
                core::build_ste_grad(reg.info(name).bits)));
    });

    Fixture* raw = s.get();
    const std::uint64_t seed = opt.seed;
    s->registry = std::make_unique<serve::ModelRegistry>(
        [raw, seed](const serve::ModelSpec& spec) {
            std::size_t m = 0;
            while (kMultipliers[m] != spec.multiplier) ++m;
            models::ModelConfig mc;
            mc.num_classes = kClasses;
            mc.in_size = kInSize;
            mc.width_mult = kWidth;
            mc.seed = seed;
            auto model = train::make_model(spec.model, mc);
            approx::MultiplierConfig mult;
            mult.lut = raw->luts[m];
            mult.grad = raw->grads[m];
            mult.name = spec.multiplier;
            approx::configure_approx_layers(*model, mult,
                                            approx::ComputeMode::kQuantized);
            model->set_training(false);
            std::shared_ptr<approx::IntInferenceEngine> engine;
            raw->compile_ms += time_ms([&] {
                engine = std::make_shared<approx::IntInferenceEngine>(
                    *model, raw->data.train, 64);
            });
            return engine;
        },
        4);
    for (const std::string& name : kMultipliers)
        s->specs.push_back(serve::ModelSpec{"lenet", name, "v0"});
    report.setup_ms["serve.registry_warm_ms"] = time_ms([&] {
        for (const auto& spec : s->specs) s->registry->acquire(spec);
    });
    report.setup_ms["approx.engine_compile_ms"] = s->compile_ms;

    // Requests and their single-shot reference logits.
    const std::int64_t numel = s->data.test.sample_numel();
    for (std::int64_t i = 0; i < kInputs; ++i) {
        tensor::Tensor t(tensor::Shape{1, s->data.test.channels, kInSize, kInSize});
        std::memcpy(t.data(), s->data.test.images.data() + i * numel,
                    static_cast<std::size_t>(numel) * sizeof(float));
        s->inputs.push_back(std::move(t));
    }
    kernels::Workspace ws;
    for (const auto& spec : s->specs) {
        const auto engine = s->registry->acquire(spec)->engine;
        s->expected.emplace_back();
        for (const auto& in : s->inputs) {
            tensor::Tensor logits;
            engine->forward_into(in, ws, logits);
            s->expected.back().push_back(logits);
        }
    }

    serve::ServeConfig sc;
    sc.workers = 2;
    sc.max_batch = 16;
    sc.deadline_us = 1000;
    sc.queue_depth = 1 << 16; // admission never binds at the offered rates
    s->server = std::make_unique<serve::InferenceServer>(*s->registry, sc);
    // Warm-up burst: first batches grow the worker workspaces.
    std::vector<std::future<serve::Result>> warm;
    for (std::size_t i = 0; i < 4 * static_cast<std::size_t>(sc.max_batch); ++i)
        warm.push_back(s->server->submit(s->specs[i % 2], s->inputs[i % kInputs]));
    for (auto& f : warm)
        get_rescued(*s->server, f, std::chrono::milliseconds(200), rescues);
    return s;
}

/// Waits until the server clock reaches \p due_us. Sleeps only while the
/// due time is far away: a sleep can overshoot by a scheduler tick, which
/// would make the generator, not the server, set the latency.
void wait_until(const serve::InferenceServer& server, std::int64_t due_us) {
    for (;;) {
        const std::int64_t left = due_us - server.now_us();
        if (left <= 0) return;
        if (left > 200) {
            std::this_thread::sleep_for(std::chrono::microseconds(left - 100));
        } else {
            std::this_thread::yield();
        }
    }
}

/// Stops \p server. stop() sets the stopping flag outside the coalescer's
/// mutex too, so the coalescer can miss that notify and never wake to see
/// the flag; the same no-op resume wakes it.
void stop_rescued(serve::InferenceServer& server, std::int64_t& rescues) {
    auto stopped = std::async(std::launch::async, [&server] { server.stop(true); });
    while (stopped.wait_for(std::chrono::milliseconds(200)) != std::future_status::ready) {
        server.set_paused(false);
        ++rescues;
    }
    stopped.get();
}

} // namespace

void run_serve(const Options& opt, Report& report) {
    runtime::set_num_threads(1);
    report.threads = 4; // generator, coalescer and two workers

    std::int64_t rescues = 0;
    std::unique_ptr<Fixture> s;
    timed_setup(report, [&] { s = set_up(opt, report, rescues); });
    if (opt.setup_only) {
        stop_rescued(*s->server, rescues);
        report.scalars["serve.missed_wakeups"] = static_cast<double>(rescues);
        return;
    }

    TraceFolder folder;
    if (opt.trace) {
        obs::reset_counters();
        folder.start();
    }
    serve::InferenceServer& server = *s->server;
    using std::chrono::milliseconds;
    std::int64_t mismatches = 0, not_ok = 0, served = 0;
    std::uint64_t digest = kFnvBasis;
    // Checks one completed request; returns whether it was served.
    const auto check = [&](const serve::Result& r, const Due& d) {
        if (r.status != serve::Status::kOk) {
            ++not_ok;
            return false;
        }
        ++served;
        const tensor::Tensor& want = s->expected[static_cast<std::size_t>(d.model)]
                                                [static_cast<std::size_t>(d.input)];
        if (r.logits.numel() != want.numel() ||
            std::memcmp(r.logits.data(), want.data(),
                        static_cast<std::size_t>(want.numel()) * sizeof(float)) != 0) {
            ++mismatches;
        } else if (served <= 64) {
            digest = fnv1a(r.logits.data(),
                           static_cast<std::size_t>(r.logits.numel()) * sizeof(float),
                           digest);
        }
        return true;
    };
    const auto submit = [&](const Due& d) {
        return server.submit(s->specs[static_cast<std::size_t>(d.model)],
                             s->inputs[static_cast<std::size_t>(d.input)]);
    };
    // Server CPU: the whole process minus this generator thread.
    const auto server_cpu_ns = [] { return process_cpu_ns() - thread_cpu_ns(); };
    const std::int64_t t_begin = now_ns();

    // ---- cost: closed bursts and lone requests --------------------------
    {
        const std::vector<Due> plan = schedule(opt.seed, 100, {"burst", 4096.0, 1.0});
        std::vector<double> burst_cpu, lone_cpu;
        std::size_t next = 0;
        const auto take = [&] { return plan[next++ % plan.size()]; };
        const auto budget = static_cast<std::int64_t>(kCostShare * opt.seconds * 1e9);
        for (const std::int64_t t0 = now_ns();
             burst_cpu.size() < 5 || now_ns() - t0 < budget;) {
            std::vector<Due> reqs;
            std::vector<std::future<serve::Result>> futures;
            const std::int64_t c0 = server_cpu_ns();
            for (std::int64_t i = 0; i < kBurst; ++i) {
                reqs.push_back(take());
                futures.push_back(submit(reqs.back()));
            }
            for (std::size_t i = 0; i < futures.size(); ++i) {
                check(get_rescued(server, futures[i], milliseconds(200), rescues),
                      reqs[i]);
            }
            burst_cpu.push_back(static_cast<double>(server_cpu_ns() - c0) * 1e-6 /
                                kBurst);
            report.attempted += kBurst;
        }
        for (const std::int64_t t0 = now_ns();
             lone_cpu.size() < 20 || now_ns() - t0 < budget;) {
            const Due d = take();
            const std::int64_t c0 = server_cpu_ns();
            auto future = submit(d);
            check(get_rescued(server, future, milliseconds(50), rescues), d);
            lone_cpu.push_back(static_cast<double>(server_cpu_ns() - c0) * 1e-6);
            report.attempted += 1;
        }
        report.series["serve.burst_cpu_ms"] = std::move(burst_cpu);
        report.series["serve.lone_cpu_ms"] = std::move(lone_cpu);
        // Peak memory of serving at a bounded load. In the open-loop phases
        // a host stall queues requests, and the heap grows with the backlog.
        report.scalars["serve.steady_peak_rss_mb"] = peak_rss_mb();
        if (opt.trace) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            folder.harvest();
        }
    }

    const std::vector<PhaseSpec> phases = phases_for(opt.seconds);
    for (std::size_t p = 0; p < phases.size(); ++p) {
        const PhaseSpec& phase = phases[p];
        const std::vector<Due> plan = schedule(opt.seed, p, phase);
        std::vector<std::future<serve::Result>> futures;
        futures.reserve(plan.size());
        std::vector<double> sent(plan.size());
        const serve::ServerStats before = server.stats();
        const std::int64_t cpu0 = server_cpu_ns();
        ThreadClocks server_threads(false); // all but this generator thread
        const std::int64_t start_us = server.now_us() + 1000;
        for (std::size_t i = 0; i < plan.size(); ++i) {
            wait_until(server, start_us + plan[i].due_us);
            sent[i] = static_cast<double>(server.now_us() - start_us);
            futures.push_back(submit(plan[i]));
        }
        std::vector<double> due(plan.size()), total(plan.size()), queue(plan.size()),
            ok(plan.size());
        for (std::size_t i = 0; i < plan.size(); ++i) {
            const serve::Result r =
                get_rescued(server, futures[i], milliseconds(200), rescues);
            due[i] = static_cast<double>(plan[i].due_us);
            total[i] = static_cast<double>(r.total_us);
            queue[i] = static_cast<double>(r.queue_us);
            ok[i] = check(r, plan[i]) ? 1.0 : 0.0;
        }
        const std::string key = "serve." + phase.name;
        report.scalars[key + ".server_cpu_ms"] =
            static_cast<double>(server_cpu_ns() - cpu0) * 1e-6;
        server_threads.add();
        report.scalars[key + ".busiest_ms"] = server_threads.busiest_ms();
        const serve::ServerStats after = server.stats();
        report.series[key + ".due_us"] = std::move(due);
        report.series[key + ".sent_us"] = std::move(sent);
        report.series[key + ".total_us"] = std::move(total);
        report.series[key + ".queue_us"] = std::move(queue);
        report.series[key + ".ok"] = std::move(ok);
        report.scalars[key + ".rate"] = phase.rate;
        report.scalars[key + ".seconds"] = phase.seconds;
        report.scalars[key + ".batches"] =
            static_cast<double>(after.batches - before.batches);
        report.scalars[key + ".batch_rows"] =
            static_cast<double>(after.batch_rows - before.batch_rows);
        report.attempted += static_cast<std::int64_t>(plan.size());
        if (opt.trace) {
            // Workers close their batch span just after completing the
            // futures; let them finish before the rings are restarted.
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            folder.harvest();
        }
    }
    const double wall_s = static_cast<double>(now_ns() - t_begin) * 1e-9;
    if (opt.trace) folder.stop();
    stop_rescued(server, rescues);
    report.failed = not_ok + mismatches;

    report.check("all_requests_ok", not_ok == 0, std::to_string(not_ok) + " not kOk");
    report.check("served_equals_single_shot", mismatches == 0,
                 std::to_string(mismatches) + " served rows differ from forward_into");
    report.digest = hex64(digest);
    report.scalars["serve.missed_wakeups"] = static_cast<double>(rescues);
    if (!opt.trace) return;

    auto& L = report.layers;
    const auto batch_span = folder.totals().find("serve.worker.batch");
    if (batch_span != folder.totals().end() && batch_span->second.count > 0)
        L["serve.worker_batch_ms"] = batch_span->second.total_ms /
                                     static_cast<double>(batch_span->second.count);
    L["serve.missed_wakeups"] = static_cast<double>(rescues);
    for (const char* c : {"serve.rejected", "serve.timeouts", "serve.registry.hits",
                          "serve.registry.loads", "serve.workspace_trims"})
        L[c] = static_cast<double>(counter_value(c));
    fill_shared_layers(folder, static_cast<double>(served), wall_s, 4,
                       folder.get("serve.worker.batch", &SpanTotals::total_ms),
                       folder.get("serve.worker.batch", &SpanTotals::excl_ms), report);
}

} // namespace perfbench
