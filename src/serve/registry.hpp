/// \file registry.hpp
/// \brief Multi-model registry for the serving layer.
///
/// Holds several resident IntInferenceEngines, content-addressed by the
/// (model, multiplier, checkpoint) triple: the registry key is an FNV-1a
/// hash of the spec, so two specs that differ in any component load (and
/// cache) distinct engines, and identical specs share one. Engines are
/// loaded lazily on first acquire through a caller-provided loader, with
/// single-flight semantics (concurrent acquirers of a cold model wait for
/// one load instead of racing N of them), and evicted in LRU order once
/// more than `capacity` models are resident.
///
/// Eviction only drops the registry's reference: acquire() hands out
/// shared_ptrs, so requests already queued or executing against an evicted
/// engine keep it alive until they drain. A hot model is by definition
/// recently used and therefore never the LRU victim.
#pragma once

#include "approx/inference.hpp"

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace amret::serve {

/// Identity of one deployable model. `multiplier` is a registry name
/// (empty = exact 8-bit); `checkpoint` names the weight snapshot (a file
/// path or version tag) so retrained weights get a distinct key;
/// `assignment` is the per-layer MultiplierAssignment content key
/// (approx::MultiplierAssignment::key(); empty = uniform `multiplier`
/// everywhere) so two mixed configs of one model never alias in the LRU.
struct ModelSpec {
    std::string model;      ///< architecture name ("lenet", "vgg11", ...)
    std::string multiplier; ///< AppMult registry name, "" = exact
    std::string checkpoint; ///< weight snapshot id, "" = default
    std::string assignment{}; ///< per-layer assignment digest, "" = uniform

    /// Content hash of the spec: 16 hex digits of FNV-1a(model \0
    /// multiplier \0 checkpoint \0 assignment).
    [[nodiscard]] std::string key() const;

    bool operator==(const ModelSpec& other) const = default;
};

/// One resident model: the compiled engine plus the serving-side metadata
/// the coalescer needs (the per-model in-flight batch count). Requests must
/// match the engine's calibrated sample shape (input_channels() etc.).
struct Resident {
    ModelSpec spec;
    std::string key;
    std::shared_ptr<approx::IntInferenceEngine> engine;

    /// Batches currently dispatched to workers (per-model concurrency cap).
    std::atomic<std::int64_t> inflight_batches{0};
};

/// Registry statistics snapshot.
struct RegistryStats {
    std::int64_t loads = 0;     ///< cold loads performed
    std::int64_t hits = 0;      ///< acquires served from residency
    std::int64_t evictions = 0; ///< engines dropped by LRU
    std::size_t resident = 0;   ///< models currently resident
};

class ModelRegistry {
public:
    /// Builds the engine for a spec. Called outside the registry lock (loads
    /// can be slow); may throw — the failure propagates to every concurrent
    /// acquirer of that spec and the entry is not cached.
    using Loader =
        std::function<std::shared_ptr<approx::IntInferenceEngine>(const ModelSpec&)>;

    /// \p capacity is the resident-model bound (>= 1).
    ModelRegistry(Loader loader, std::size_t capacity);

    /// Returns the resident entry for \p spec, loading it on a miss and
    /// touching it in the LRU order. Thread-safe; concurrent cold acquires
    /// of one spec perform a single load.
    std::shared_ptr<Resident> acquire(const ModelSpec& spec);

    [[nodiscard]] RegistryStats stats() const;

    /// Keys currently resident, most recently used first (diagnostics).
    [[nodiscard]] std::vector<std::string> resident_keys() const;

private:
    struct Entry {
        std::shared_ptr<Resident> resident;
        std::mutex load_mutex; ///< single-flight cold-load gate
        bool loaded = false;   ///< guarded by load_mutex
        std::list<std::string>::iterator lru_it;
    };

    void touch_locked(Entry& entry, const std::string& key);
    void evict_over_capacity_locked();

    Loader loader_;
    std::size_t capacity_;
    mutable std::mutex mutex_;
    std::unordered_map<std::string, std::shared_ptr<Entry>> entries_;
    std::list<std::string> lru_; ///< front = most recently used
    std::int64_t loads_ = 0, hits_ = 0, evictions_ = 0;
};

} // namespace amret::serve
