/// \file serve.hpp
/// \brief In-process batching inference server over IntInferenceEngines.
///
/// Request path (DESIGN.md §13):
///
///   submit() ──► sharded MPMC queue ──► coalescer thread ──► dispatch
///   (admission)   (bounded depth)       (per-model micro-    queue ──►
///                                        batch builders)     worker pool
///
/// submit() resolves the model through the ModelRegistry (lazy load, LRU),
/// applies admission control (bounded total queue depth, typed kRejected
/// results) and enqueues; the coalescer drains the shards in global
/// submission order and packs per-model micro-batches that flush when they
/// reach `max_batch` or when their oldest request has waited `deadline_us`,
/// whichever comes first, subject to a per-model in-flight-batch cap.
/// Workers execute whole batches through IntInferenceEngine::forward_into
/// with a per-worker kernels::Workspace, so steady-state serving performs
/// no heap allocation on the integer path, and complete each request's
/// future with its logits row.
///
/// Determinism contract: every kernel under forward_into is row-independent
/// (integer arithmetic; fixed-order float dot products in the head), so the
/// logits a request receives are bitwise-identical to a single-shot
/// IntInferenceEngine run on the same input — regardless of which batch the
/// coalescer packed it into or which worker ran it (tests/test_serve.cpp
/// asserts memcmp equality under concurrency, including under TSan).
#pragma once

#include "serve/registry.hpp"
#include "tensor/tensor.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace amret::serve {

/// Terminal state of one request.
enum class Status {
    kOk,         ///< served; logits valid
    kRejected,   ///< admission control: queue full at submit
    kTimeout,    ///< waited past queue_timeout_us before dispatch
    kBadRequest, ///< input shape conflicts with the model's contract
    kLoadFailed, ///< lazy model load threw
    kError,      ///< inference threw while executing the batch
    kShutdown,   ///< server stopped before the request could be served
};

const char* to_string(Status status);

/// Completion record handed back through the request's future.
struct Result {
    Status status = Status::kShutdown;
    tensor::Tensor logits;        ///< (1, classes); valid when status == kOk
    std::int64_t queue_us = 0;    ///< submit -> batch dispatch
    std::int64_t total_us = 0;    ///< submit -> completion
    std::int32_t batch_size = 0;  ///< micro-batch size the request rode in
};

/// Server tuning knobs. Validated by the InferenceServer constructor.
struct ServeConfig {
    std::size_t workers = 2;           ///< batch-executing threads (>= 1)
    std::size_t queue_shards = 4;      ///< MPMC submission-queue shards
    std::size_t queue_depth = 1024;    ///< admission bound on pending requests
    std::int64_t max_batch = 8;        ///< micro-batch size cap (1..256)
    std::int64_t deadline_us = 2000;   ///< partial-batch flush deadline
    std::int64_t queue_timeout_us = 0; ///< pre-dispatch timeout (0 = none)
    std::int64_t model_concurrency = 2; ///< per-model in-flight batch cap
    /// Idle workers trim their workspace down to this many bytes, so a
    /// long-lived server sheds slab memory after a traffic burst.
    std::size_t workspace_low_water = std::size_t{1} << 18;
};

/// Monotonic server statistics (snapshot; counters never reset).
struct ServerStats {
    std::int64_t submitted = 0;
    std::int64_t served = 0;
    std::int64_t rejected = 0;   ///< admission rejects
    std::int64_t timeouts = 0;
    std::int64_t bad_requests = 0;
    std::int64_t load_failures = 0;
    std::int64_t errors = 0;
    std::int64_t shutdown_drops = 0;
    std::int64_t batches = 0;
    std::int64_t batch_rows = 0; ///< sum of batch sizes (mean = rows/batches)
    std::vector<std::int64_t> batch_hist; ///< [0..max_batch] dispatch counts

    [[nodiscard]] double mean_batch() const {
        return batches ? static_cast<double>(batch_rows) /
                             static_cast<double>(batches)
                       : 0.0;
    }
};

namespace detail {

/// Per-model micro-batch packing policy, shared by the coalescer and the
/// unit tests. Single-threaded (the coalescer owns it); time is injected so
/// tests can drive the deadline logic deterministically.
template <typename T>
class BatchBuilder {
public:
    BatchBuilder(std::int64_t max_batch, std::int64_t deadline_us)
        : max_batch_(max_batch), deadline_us_(deadline_us) {}

    void add(T item, std::int64_t now_us) {
        pending_.push_back(Slot{std::move(item), now_us});
    }

    [[nodiscard]] std::size_t size() const { return pending_.size(); }

    /// Pops items from the FIFO front whose enqueue time is strictly older
    /// than \p cutoff_us (the coalescer completes them as kTimeout).
    std::vector<T> expire_older_than(std::int64_t cutoff_us) {
        std::vector<T> expired;
        while (!pending_.empty() && pending_.front().enqueue_us < cutoff_us) {
            expired.push_back(std::move(pending_.front().item));
            pending_.pop_front();
        }
        return expired;
    }

    /// Returns the next micro-batch to flush, or empty if none is due.
    /// A full batch (>= max_batch pending) is always due; a partial batch
    /// becomes due once its oldest request has waited deadline_us, or
    /// immediately when \p force is set (shutdown drain).
    std::vector<T> take_due(std::int64_t now_us, bool force) {
        if (pending_.empty()) return {};
        const bool full =
            pending_.size() >= static_cast<std::size_t>(max_batch_);
        const bool expired =
            now_us - pending_.front().enqueue_us >= deadline_us_;
        if (!full && !expired && !force) return {};
        std::vector<T> batch;
        const std::size_t n =
            std::min(pending_.size(), static_cast<std::size_t>(max_batch_));
        batch.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            batch.push_back(std::move(pending_.front().item));
            pending_.pop_front();
        }
        return batch;
    }

    /// Absolute time at which the current partial batch becomes due
    /// (max() when empty; now or earlier when already full).
    [[nodiscard]] std::int64_t next_flush_us() const {
        if (pending_.empty()) return std::numeric_limits<std::int64_t>::max();
        if (pending_.size() >= static_cast<std::size_t>(max_batch_))
            return std::numeric_limits<std::int64_t>::min();
        return pending_.front().enqueue_us + deadline_us_;
    }

private:
    struct Slot {
        T item;
        std::int64_t enqueue_us;
    };
    std::deque<Slot> pending_;
    std::int64_t max_batch_;
    std::int64_t deadline_us_;
};

} // namespace detail

/// The in-process batching inference server. Construction spawns the
/// coalescer and worker threads; stop() (or the destructor) drains them.
class InferenceServer {
public:
    /// \p registry outlives the server. Throws std::invalid_argument on an
    /// out-of-range config.
    InferenceServer(ModelRegistry& registry, ServeConfig config);
    ~InferenceServer();

    InferenceServer(const InferenceServer&) = delete;
    InferenceServer& operator=(const InferenceServer&) = delete;

    /// Enqueues one sample — shape (C, H, W) or (1, C, H, W) — for \p spec.
    /// Never blocks on inference; may block on a cold-model lazy load.
    /// Admission failures and validation errors resolve the future
    /// immediately with a typed non-kOk Result.
    std::future<Result> submit(const ModelSpec& spec,
                               const tensor::Tensor& input);

    /// Stops the server. drain = true serves everything already admitted
    /// first; drain = false fails pending requests with kShutdown.
    /// Idempotent; the destructor calls stop(true).
    void stop(bool drain = true);

    /// Pauses / resumes the coalescer (operational lever + test hook: while
    /// paused, admitted requests accumulate in the submission queue and
    /// admission control becomes observable deterministically).
    void set_paused(bool paused);

    /// Test hook: runs on the coalescer thread each time it has checked its
    /// wake condition and is about to block, with the coalescer mutex held.
    /// submit(), stop() and set_paused() take that mutex, so the hook must
    /// not call them itself; it may start a thread that does, which then
    /// acts inside the window. An empty function disarms it.
    void set_before_block_hook(std::function<void()> hook);

    [[nodiscard]] ServerStats stats() const;

    /// Microseconds since server construction (the clock used by all
    /// latency fields in Result).
    [[nodiscard]] std::int64_t now_us() const;

private:
    struct Item; ///< one in-flight request (defined in serve.cpp)
    struct Batch;
    struct Shard;
    struct Worker;

    void coalescer_loop();
    void worker_loop(Worker& self);
    void run_batch(Batch& batch, Worker& self);
    void complete(Item& item, Status status, std::int32_t batch_size,
                  std::int64_t dispatch_us);

    ModelRegistry& registry_;
    ServeConfig config_;
    std::chrono::steady_clock::time_point epoch_;

    // Sharded MPMC submission queue.
    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<std::uint64_t> seq_{0};        ///< global submission order
    std::atomic<std::int64_t> queue_depth_{0}; ///< admission counter

    // Coalescer. Every wake source (submit, a freed in-flight slot, stop,
    // resume) changes its state under coalescer_mutex_ before notifying, so
    // the coalescer cannot check its wake condition and then miss the wake.
    std::mutex coalescer_mutex_;
    std::condition_variable coalescer_cv_;
    std::uint64_t wake_count_ = 0; ///< bumped by submits and freed slots
    bool paused_ = false;
    std::atomic<bool> stopping_{false}; ///< stored under coalescer_mutex_
    bool drain_ = true;
    std::function<void()> before_block_; ///< test hook (set_before_block_hook)

    // Dispatch queue (coalescer -> workers).
    std::mutex dispatch_mutex_;
    std::condition_variable dispatch_cv_;
    std::deque<Batch> dispatch_;
    bool coalescer_done_ = false;

    std::vector<std::unique_ptr<Worker>> workers_;
    std::thread coalescer_thread_;
    std::vector<std::thread> worker_threads_;
    bool joined_ = false;
    std::mutex stop_mutex_;

    // Stats (atomics; snapshot under no lock).
    std::atomic<std::int64_t> submitted_{0}, served_{0}, rejected_{0},
        timeouts_{0}, bad_requests_{0}, load_failures_{0}, errors_{0},
        shutdown_drops_{0}, batches_{0}, batch_rows_{0};
    std::vector<std::atomic<std::int64_t>> batch_hist_;
};

} // namespace amret::serve
