#include "kernels/workspace.hpp"

#include "obs/obs.hpp"

#include <algorithm>

namespace amret::kernels {

namespace {
constexpr std::size_t kMinSlabBytes = 1u << 16; // 64 KiB

// Slabs are left uninitialised, as alloc() documents: value-initialising
// them would memset every byte and keep each arena resident at the full
// capacity of its doubling chain.
std::unique_ptr<std::byte[]> slab_bytes(std::size_t n) {
    return std::make_unique_for_overwrite<std::byte[]>(n);
}
} // namespace

std::size_t Workspace::capacity() const {
    std::size_t total = 0;
    for (const Slab& s : slabs_) total += s.size;
    return total;
}

void Workspace::note_epoch_end() {
    if (plan_key_ == 0 || used_ == 0) return;
    // Fixed-size direct-mapped table: a serve worker cycles through a handful
    // of engines, so collisions just merge two plans' marks (conservatively
    // keeping the larger) instead of growing a map in the kernel layer.
    PlanStat& slot = plans_[plan_key_ % kPlanSlots];
    if (slot.key != plan_key_) {
        slot.key = plan_key_;
        slot.high_water = used_;
    } else {
        slot.high_water = std::max(slot.high_water, used_);
    }
}

std::size_t Workspace::plan_high_water() const {
    std::size_t hw = 0;
    for (const PlanStat& s : plans_) hw = std::max(hw, s.high_water);
    return hw;
}

void Workspace::reset() {
    note_epoch_end();
    plan_key_ = 0;
    if (slabs_.size() > 1) {
        // Coalesce: one slab big enough for everything the last epoch used,
        // so the next epoch allocates nothing.
        const std::size_t want = std::max(capacity(), used_);
        slabs_.clear();
        slabs_.push_back(Slab{slab_bytes(want), want});
    }
    cursor_ = 0;
    used_ = 0;
}

void Workspace::begin(std::uint64_t plan_key) {
    reset();
    plan_key_ = plan_key;
}

void Workspace::trim(std::size_t keep_bytes) {
    note_epoch_end();
    plan_key_ = 0;
    // Never trim below the hot working set: alternating models through one
    // worker used to release-then-regrow the slab every idle gap when the
    // low-water mark was sized for the smaller model.
    const std::size_t keep = std::max(keep_bytes, plan_high_water());
    if (capacity() <= keep) {
        if (slabs_.size() > 1) {
            const std::size_t want = std::max(capacity(), used_);
            slabs_.clear();
            slabs_.push_back(Slab{slab_bytes(want), want});
        }
        cursor_ = 0;
        used_ = 0;
        return;
    }
    slabs_.clear();
    if (keep > 0)
        slabs_.push_back(Slab{slab_bytes(keep), keep});
    cursor_ = 0;
    used_ = 0;
}

void* Workspace::raw_alloc(std::size_t bytes, std::size_t align) {
    if (bytes == 0) bytes = 1; // keep returned pointers distinct
    if (!slabs_.empty()) {
        Slab& top = slabs_.back();
        const std::size_t base = reinterpret_cast<std::size_t>(top.data.get());
        const std::size_t aligned = (base + cursor_ + align - 1) & ~(align - 1);
        const std::size_t offset = aligned - base;
        if (offset + bytes <= top.size) {
            used_ += (offset - cursor_) + bytes; // padding + payload
            cursor_ = offset + bytes;
            return reinterpret_cast<void*>(aligned);
        }
        // An existing arena had to grow mid-epoch: in steady state this never
        // fires, so the counter directly surfaces trim() thrash under mixed
        // model load.
        AMRET_OBS_COUNT("kernels.workspace.regrow", 1);
    }
    // Chain a new slab; old slabs stay alive so earlier pointers remain valid.
    const std::size_t want =
        std::max({kMinSlabBytes, bytes + align, capacity() * 2});
    slabs_.push_back(Slab{slab_bytes(want), want});
    Slab& top = slabs_.back();
    const std::size_t base = reinterpret_cast<std::size_t>(top.data.get());
    const std::size_t aligned = (base + align - 1) & ~(align - 1);
    cursor_ = (aligned - base) + bytes;
    used_ += cursor_;
    return reinterpret_cast<void*>(aligned);
}

} // namespace amret::kernels
