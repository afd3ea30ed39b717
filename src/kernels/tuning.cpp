#include "kernels/tuning.hpp"

#include "runtime/parallel.hpp"

#include <algorithm>

namespace amret::kernels {

std::int64_t chunk_grain(std::int64_t count, std::int64_t item_work,
                         std::int64_t align) {
    const std::int64_t min_items = std::max<std::int64_t>(
        1, tune::kMinChunkWork / std::max<std::int64_t>(1, item_work));
    const std::int64_t g = runtime::grain_for(count, min_items);
    return (g + align - 1) / align * align;
}

const Tuning& Tuning::current() {
    static const Tuning compiled;
    return compiled;
}

LayoutMode layout_mode() { return LayoutMode::kBlocked; }

} // namespace amret::kernels
