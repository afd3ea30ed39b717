#include "serve/serve.hpp"

#include "kernels/simd/simd.hpp"
#include "kernels/workspace.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace amret::serve {

const char* to_string(Status status) {
    switch (status) {
    case Status::kOk: return "ok";
    case Status::kRejected: return "rejected";
    case Status::kTimeout: return "timeout";
    case Status::kBadRequest: return "bad_request";
    case Status::kLoadFailed: return "load_failed";
    case Status::kError: return "error";
    case Status::kShutdown: return "shutdown";
    }
    return "?";
}

// ------------------------------------------------------- internal types --

struct InferenceServer::Item {
    std::uint64_t seq = 0;
    std::int64_t submit_us = 0;
    std::shared_ptr<Resident> resident;
    tensor::Tensor input; ///< one sample, (1, C, H, W)
    std::promise<Result> promise;
};

struct InferenceServer::Batch {
    std::shared_ptr<Resident> resident;
    std::vector<Item> items;
    std::int64_t dispatch_us = 0;
};

struct InferenceServer::Shard {
    std::mutex mutex;
    std::deque<Item> items;
    bool closed = false; ///< set by the coalescer's final shutdown sweep
};

struct InferenceServer::Worker {
    kernels::Workspace ws;
    tensor::Tensor input;  ///< reused batch input (N, C, H, W)
    tensor::Tensor logits; ///< reused batch output (N, classes)
};

// ------------------------------------------------------------- lifecycle --

InferenceServer::InferenceServer(ModelRegistry& registry, ServeConfig config)
    : registry_(registry),
      config_(config),
      epoch_(std::chrono::steady_clock::now()),
      batch_hist_(static_cast<std::size_t>(
          std::clamp<std::int64_t>(config.max_batch, 1, 256) + 1)) {
    if (config_.workers < 1)
        throw std::invalid_argument("ServeConfig: workers < 1");
    if (config_.queue_shards < 1)
        throw std::invalid_argument("ServeConfig: queue_shards < 1");
    if (config_.queue_depth < 1)
        throw std::invalid_argument("ServeConfig: queue_depth < 1");
    if (config_.max_batch < 1 || config_.max_batch > 256)
        throw std::invalid_argument("ServeConfig: max_batch out of [1, 256]");
    if (config_.deadline_us < 0)
        throw std::invalid_argument("ServeConfig: deadline_us < 0");
    if (config_.queue_timeout_us < 0)
        throw std::invalid_argument("ServeConfig: queue_timeout_us < 0");
    if (config_.model_concurrency < 1)
        throw std::invalid_argument("ServeConfig: model_concurrency < 1");

    shards_.reserve(config_.queue_shards);
    for (std::size_t i = 0; i < config_.queue_shards; ++i)
        shards_.push_back(std::make_unique<Shard>());
    workers_.reserve(config_.workers);
    for (std::size_t i = 0; i < config_.workers; ++i)
        workers_.push_back(std::make_unique<Worker>());

    // One startup line pinning the kernel dispatch level this server runs
    // at: batch latencies are meaningless in a bug report without it, and it
    // surfaces an AMRET_SIMD typo (which warns and falls back) immediately.
    util::log_info("serve: ", config_.workers, " workers, ",
                   config_.queue_shards, " shards, SIMD dispatch ",
                   kernels::simd::isa_name(kernels::simd::select()));

    coalescer_thread_ = std::thread([this] { coalescer_loop(); });
    worker_threads_.reserve(config_.workers);
    for (std::size_t i = 0; i < config_.workers; ++i)
        worker_threads_.emplace_back(
            [this, w = workers_[i].get()] { worker_loop(*w); });
}

InferenceServer::~InferenceServer() { stop(true); }

void InferenceServer::stop(bool drain) {
    std::lock_guard<std::mutex> stop_lock(stop_mutex_);
    if (joined_) return;
    {
        std::lock_guard<std::mutex> lock(coalescer_mutex_);
        drain_ = drain;
        paused_ = false; // a paused server must still drain on stop
        stopping_.store(true, std::memory_order_release);
    }
    coalescer_cv_.notify_all();
    coalescer_thread_.join(); // sets coalescer_done_ + wakes the workers
    for (std::thread& t : worker_threads_) t.join();
    joined_ = true;
}

void InferenceServer::set_paused(bool paused) {
    {
        std::lock_guard<std::mutex> lock(coalescer_mutex_);
        paused_ = paused;
    }
    coalescer_cv_.notify_all();
}

void InferenceServer::set_before_block_hook(std::function<void()> hook) {
    std::lock_guard<std::mutex> lock(coalescer_mutex_);
    before_block_ = std::move(hook);
}

std::int64_t InferenceServer::now_us() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

// ---------------------------------------------------------------- submit --

namespace {

std::future<Result> immediate(Result result) {
    std::promise<Result> promise;
    std::future<Result> future = promise.get_future();
    promise.set_value(std::move(result));
    return future;
}

} // namespace

std::future<Result> InferenceServer::submit(const ModelSpec& spec,
                                            const tensor::Tensor& input) {
    submitted_.fetch_add(1, std::memory_order_relaxed);
    AMRET_OBS_COUNT("serve.submitted", 1);
    const std::int64_t submit_us = now_us();

    Result fail;
    fail.total_us = 0;
    if (stopping_.load(std::memory_order_acquire)) {
        shutdown_drops_.fetch_add(1, std::memory_order_relaxed);
        fail.status = Status::kShutdown;
        return immediate(std::move(fail));
    }

    // Resolve the model (lazy load; the slow path of a cold model).
    std::shared_ptr<Resident> resident;
    try {
        resident = registry_.acquire(spec);
    } catch (const std::exception&) {
        load_failures_.fetch_add(1, std::memory_order_relaxed);
        AMRET_OBS_COUNT("serve.load_failures", 1);
        fail.status = Status::kLoadFailed;
        return immediate(std::move(fail));
    }

    // Validate the sample shape against the engine's calibrated one.
    std::int64_t c = 0, h = 0, w = 0;
    if (input.rank() == 3) {
        c = input.dim(0), h = input.dim(1), w = input.dim(2);
    } else if (input.rank() == 4 && input.dim(0) == 1) {
        c = input.dim(1), h = input.dim(2), w = input.dim(3);
    }
    const approx::IntInferenceEngine& engine = *resident->engine;
    if (c != engine.input_channels() || h != engine.input_height() ||
        w != engine.input_width()) {
        bad_requests_.fetch_add(1, std::memory_order_relaxed);
        fail.status = Status::kBadRequest;
        return immediate(std::move(fail));
    }

    // Admission control: bounded waiting-room depth.
    if (queue_depth_.fetch_add(1, std::memory_order_acq_rel) >=
        static_cast<std::int64_t>(config_.queue_depth)) {
        queue_depth_.fetch_sub(1, std::memory_order_acq_rel);
        rejected_.fetch_add(1, std::memory_order_relaxed);
        AMRET_OBS_COUNT("serve.rejected", 1);
        fail.status = Status::kRejected;
        fail.total_us = now_us() - submit_us;
        return immediate(std::move(fail));
    }

    Item item;
    item.seq = seq_.fetch_add(1, std::memory_order_relaxed);
    item.submit_us = submit_us;
    item.resident = std::move(resident);
    item.input = input.rank() == 3
                     ? input.reshaped(tensor::Shape{1, c, h, w})
                     : input;
    std::future<Result> future = item.promise.get_future();

    Shard& shard = *shards_[item.seq % shards_.size()];
    bool accepted;
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        accepted = !shard.closed;
        if (accepted) shard.items.push_back(std::move(item));
    }
    if (!accepted) {
        // The coalescer already performed its shutdown sweep on this shard.
        queue_depth_.fetch_sub(1, std::memory_order_acq_rel);
        shutdown_drops_.fetch_add(1, std::memory_order_relaxed);
        item.promise.set_value(Result{Status::kShutdown, {}, 0,
                                      now_us() - submit_us, 0});
        return future;
    }
    {
        std::lock_guard<std::mutex> lock(coalescer_mutex_);
        ++wake_count_;
    }
    coalescer_cv_.notify_one();
    return future;
}

// ------------------------------------------------------------- coalescer --

void InferenceServer::complete(Item& item, Status status,
                               std::int32_t batch_size,
                               std::int64_t dispatch_us) {
    Result result;
    result.status = status;
    result.batch_size = batch_size;
    result.queue_us = (dispatch_us ? dispatch_us : now_us()) - item.submit_us;
    result.total_us = now_us() - item.submit_us;
    item.promise.set_value(std::move(result));
}

void InferenceServer::coalescer_loop() {
    struct Lane {
        std::shared_ptr<Resident> pin;
        detail::BatchBuilder<Item> builder;
    };
    std::unordered_map<Resident*, Lane> lanes;
    std::vector<Item> drained;
    std::uint64_t seen_wake = 0;

    const auto finish_item = [&](Item& item, Status status) {
        queue_depth_.fetch_sub(1, std::memory_order_acq_rel);
        if (status == Status::kTimeout) {
            timeouts_.fetch_add(1, std::memory_order_relaxed);
            AMRET_OBS_COUNT("serve.timeouts", 1);
        } else {
            shutdown_drops_.fetch_add(1, std::memory_order_relaxed);
        }
        complete(item, status, 0, 0);
    };

    for (;;) {
        const bool stopping = stopping_.load(std::memory_order_acquire);

        // --- drain the submission shards in global submission order -------
        drained.clear();
        {
            bool paused;
            {
                std::lock_guard<std::mutex> lock(coalescer_mutex_);
                paused = paused_;
            }
            if (!paused || stopping) {
                for (auto& shard : shards_) {
                    std::lock_guard<std::mutex> lock(shard->mutex);
                    while (!shard->items.empty()) {
                        drained.push_back(std::move(shard->items.front()));
                        shard->items.pop_front();
                    }
                }
                std::sort(drained.begin(), drained.end(),
                          [](const Item& a, const Item& b) {
                              return a.seq < b.seq;
                          });
            }
        }

        const std::int64_t now = now_us();
        for (Item& item : drained) {
            if (stopping && !drain_) {
                finish_item(item, Status::kShutdown);
                continue;
            }
            if (config_.queue_timeout_us > 0 &&
                now - item.submit_us >= config_.queue_timeout_us) {
                finish_item(item, Status::kTimeout);
                continue;
            }
            const std::int64_t submit_us = item.submit_us;
            auto [it, fresh] = lanes.try_emplace(
                item.resident.get(),
                Lane{item.resident,
                     detail::BatchBuilder<Item>(config_.max_batch,
                                                config_.deadline_us)});
            (void)fresh;
            it->second.builder.add(std::move(item), submit_us);
        }

        // --- expire + flush due micro-batches per lane --------------------
        for (auto it = lanes.begin(); it != lanes.end();) {
            Lane& lane = it->second;
            if (config_.queue_timeout_us > 0) {
                for (Item& item : lane.builder.expire_older_than(
                         now - config_.queue_timeout_us))
                    finish_item(item, Status::kTimeout);
            }
            if (stopping && !drain_) {
                for (Item& item : lane.builder.expire_older_than(
                         std::numeric_limits<std::int64_t>::max()))
                    finish_item(item, Status::kShutdown);
            }
            while (lane.builder.size() > 0 &&
                   lane.pin->inflight_batches.load(std::memory_order_acquire) <
                       config_.model_concurrency) {
                std::vector<Item> items =
                    lane.builder.take_due(now, /*force=*/stopping && drain_);
                if (items.empty()) break;
                AMRET_OBS_COUNT("serve.batches", 1);
                AMRET_OBS_COUNT("serve.batch_rows",
                                static_cast<std::int64_t>(items.size()));
                queue_depth_.fetch_sub(static_cast<std::int64_t>(items.size()),
                                       std::memory_order_acq_rel);
                lane.pin->inflight_batches.fetch_add(
                    1, std::memory_order_acq_rel);
                Batch batch;
                batch.resident = lane.pin;
                batch.items = std::move(items);
                batch.dispatch_us = now_us();
                {
                    std::lock_guard<std::mutex> lock(dispatch_mutex_);
                    dispatch_.push_back(std::move(batch));
                }
                dispatch_cv_.notify_one();
            }
            it = lane.builder.size() == 0 ? lanes.erase(it) : std::next(it);
        }

        // --- shutdown: close the shards once everything is dispatched -----
        if (stopping && lanes.empty() &&
            queue_depth_.load(std::memory_order_acquire) == 0) {
            bool all_empty = true;
            for (auto& shard : shards_) {
                std::lock_guard<std::mutex> lock(shard->mutex);
                if (!shard->items.empty()) {
                    all_empty = false;
                } else {
                    shard->closed = true; // late submits now fail in submit()
                }
            }
            if (all_empty) break;
            continue; // a racing submit slipped in; drain once more
        }

        // --- sleep until the next flush deadline or a wake ----------------
        // A lane at its in-flight cap cannot flush before a worker frees a
        // slot, and that worker wakes the coalescer, so the lane stays out
        // of the deadline instead of making the coalescer spin. Its expired
        // requests time out on that wake.
        std::int64_t wake_us = std::numeric_limits<std::int64_t>::max();
        for (auto& [key, lane] : lanes) {
            (void)key;
            if (lane.pin->inflight_batches.load(std::memory_order_acquire) <
                config_.model_concurrency)
                wake_us = std::min(wake_us, lane.builder.next_flush_us());
        }
        if (stopping) // poll while draining: worker completions free caps
            wake_us = std::min(wake_us, now + 1000);
        {
            std::unique_lock<std::mutex> lock(coalescer_mutex_);
            const bool hold = paused_ && !stopping;
            const bool timed =
                !hold && wake_us != std::numeric_limits<std::int64_t>::max();
            // While draining, stop() is old news: wait for a freed slot or
            // the poll deadline instead of spinning.
            const auto woken = [&] {
                return (!stopping && stopping_.load(std::memory_order_acquire)) ||
                       (hold ? !paused_ : wake_count_ != seen_wake);
            };
            while (!woken()) {
                if (timed && wake_us <= now_us()) break;
                if (before_block_) before_block_();
                if (!timed) {
                    coalescer_cv_.wait(lock);
                } else if (coalescer_cv_.wait_until(
                               lock, epoch_ + std::chrono::microseconds(wake_us)) ==
                           std::cv_status::timeout) {
                    break;
                }
            }
            seen_wake = wake_count_;
        }
    }

    // Unblock the workers: no more batches will be produced.
    {
        std::lock_guard<std::mutex> lock(dispatch_mutex_);
        coalescer_done_ = true;
    }
    dispatch_cv_.notify_all();
}

// --------------------------------------------------------------- workers --

void InferenceServer::worker_loop(Worker& self) {
    for (;;) {
        Batch batch;
        {
            std::unique_lock<std::mutex> lock(dispatch_mutex_);
            if (dispatch_.empty() && !coalescer_done_ &&
                self.ws.capacity() > config_.workspace_low_water) {
                // Going idle after a burst: shed slab memory. The arena
                // keeps max(low_water, hottest engine plan high-water) —
                // forward_into opens each epoch under the engine's layout
                // plan key, so under mixed-model load the hot model's
                // working set survives the trim instead of thrashing
                // (regrowth events are counted in kernels.workspace.regrow).
                lock.unlock();
                self.ws.trim(config_.workspace_low_water);
                AMRET_OBS_COUNT("serve.workspace_trims", 1);
                lock.lock();
            }
            dispatch_cv_.wait(lock, [&] {
                return !dispatch_.empty() || coalescer_done_;
            });
            if (dispatch_.empty()) return;
            batch = std::move(dispatch_.front());
            dispatch_.pop_front();
        }
        run_batch(batch, self);
        batch.resident->inflight_batches.fetch_sub(1,
                                                   std::memory_order_acq_rel);
        {
            // A per-model concurrency slot freed: the coalescer's only wake
            // for a lane it left out of its deadline.
            std::lock_guard<std::mutex> lock(coalescer_mutex_);
            ++wake_count_;
        }
        coalescer_cv_.notify_one();
    }
}

void InferenceServer::run_batch(Batch& batch, Worker& self) {
    AMRET_OBS_SPAN("serve.worker.batch");
    const std::int64_t n = static_cast<std::int64_t>(batch.items.size());
    const approx::IntInferenceEngine& engine = *batch.resident->engine;
    const std::int64_t c = engine.input_channels(), h = engine.input_height(),
                       w = engine.input_width();
    const std::int64_t sample = c * h * w;
    // Reused only at the same (N, C, H, W): forward_into checks the dims,
    // not just the element count.
    if (self.input.rank() != 4 || self.input.dim(0) != n || self.input.dim(1) != c ||
        self.input.dim(2) != h || self.input.dim(3) != w)
        self.input = tensor::Tensor(tensor::Shape{n, c, h, w});
    for (std::int64_t i = 0; i < n; ++i)
        std::memcpy(self.input.data() + i * sample,
                    batch.items[static_cast<std::size_t>(i)].input.data(),
                    static_cast<std::size_t>(sample) * sizeof(float));

    try {
        engine.forward_into(self.input, self.ws, self.logits);
    } catch (const std::exception&) {
        errors_.fetch_add(n, std::memory_order_relaxed);
        AMRET_OBS_COUNT("serve.errors", n);
        for (Item& item : batch.items)
            complete(item, Status::kError, static_cast<std::int32_t>(n),
                     batch.dispatch_us);
        return;
    }

    const std::int64_t classes = self.logits.dim(1);
    const std::int64_t done_us = now_us();
    for (std::int64_t i = 0; i < n; ++i) {
        Item& item = batch.items[static_cast<std::size_t>(i)];
        Result result;
        result.status = Status::kOk;
        result.logits = tensor::Tensor(tensor::Shape{1, classes});
        std::memcpy(result.logits.data(), self.logits.data() + i * classes,
                    static_cast<std::size_t>(classes) * sizeof(float));
        result.queue_us = batch.dispatch_us - item.submit_us;
        result.total_us = done_us - item.submit_us;
        result.batch_size = static_cast<std::int32_t>(n);
        item.promise.set_value(std::move(result));
    }

    served_.fetch_add(n, std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_relaxed);
    batch_rows_.fetch_add(n, std::memory_order_relaxed);
    batch_hist_[static_cast<std::size_t>(n)].fetch_add(
        1, std::memory_order_relaxed);
    AMRET_OBS_COUNT("serve.served", n);
}

// ----------------------------------------------------------------- stats --

ServerStats InferenceServer::stats() const {
    ServerStats s;
    s.submitted = submitted_.load(std::memory_order_relaxed);
    s.served = served_.load(std::memory_order_relaxed);
    s.rejected = rejected_.load(std::memory_order_relaxed);
    s.timeouts = timeouts_.load(std::memory_order_relaxed);
    s.bad_requests = bad_requests_.load(std::memory_order_relaxed);
    s.load_failures = load_failures_.load(std::memory_order_relaxed);
    s.errors = errors_.load(std::memory_order_relaxed);
    s.shutdown_drops = shutdown_drops_.load(std::memory_order_relaxed);
    s.batches = batches_.load(std::memory_order_relaxed);
    s.batch_rows = batch_rows_.load(std::memory_order_relaxed);
    s.batch_hist.reserve(batch_hist_.size());
    for (const auto& bucket : batch_hist_)
        s.batch_hist.push_back(bucket.load(std::memory_order_relaxed));
    return s;
}

} // namespace amret::serve
