#include "common.hpp"

#include <algorithm>

namespace perfbench {

namespace {

/// Rings large enough that one harvest segment (one training epoch, one
/// inference round, one serve phase) never overwrites a span.
constexpr std::size_t kRingCapacity = std::size_t{1} << 20;

bool is_runtime(const char* name) {
    return std::string_view(name).rfind("runtime.", 0) == 0;
}

} // namespace

void TraceFolder::start() {
    amret::obs::TraceConfig config;
    config.ring_capacity = kRingCapacity;
    amret::obs::trace_start(config);
    running_ = true;
}

void TraceFolder::harvest() {
    if (!running_) return;
    fold(amret::obs::trace_events());
    dropped_ += amret::obs::trace_dropped();
    start(); // clears the rings
}

void TraceFolder::stop() {
    if (!running_) return;
    fold(amret::obs::trace_events());
    dropped_ += amret::obs::trace_dropped();
    amret::obs::trace_stop();
    running_ = false;
}

void TraceFolder::fold(const std::vector<amret::obs::SpanEvent>& events) {
    // trace_events() is sorted by (tid, start, depth): an enclosing span
    // precedes the spans it contains, so one stack per thread finds each
    // span's direct parent.
    struct Open {
        std::size_t index;
        std::uint64_t end_ns;
    };
    std::vector<double> child_all(events.size(), 0.0);
    std::vector<double> child_excl(events.size(), 0.0);
    std::vector<Open> stack;
    std::uint32_t tid = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const auto& e = events[i];
        if (i == 0 || e.tid != tid) {
            stack.clear();
            tid = e.tid;
        }
        while (!stack.empty() && stack.back().end_ns <= e.start_ns) stack.pop_back();
        const double dur = static_cast<double>(e.end_ns - e.start_ns) * 1e-6;
        if (!stack.empty()) child_all[stack.back().index] += dur;
        if (!is_runtime(e.name)) {
            // excl_ms looks through runtime spans: the time goes to the
            // nearest enclosing span that is not a runtime one.
            for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
                if (!is_runtime(events[it->index].name)) {
                    child_excl[it->index] += dur;
                    break;
                }
            }
        }
        stack.push_back(Open{i, e.end_ns});
    }
    for (std::size_t i = 0; i < events.size(); ++i) {
        const auto& e = events[i];
        const double dur = static_cast<double>(e.end_ns - e.start_ns) * 1e-6;
        SpanTotals& t = totals_[e.name];
        t.count += 1;
        t.total_ms += dur;
        t.self_ms += dur - child_all[i];
        t.excl_ms += dur - child_excl[i];
        const auto kept = kept_.find(e.name);
        if (kept != kept_.end()) kept->second.push_back(dur);
    }
}

const std::vector<double>& TraceFolder::durations(const std::string& name) const {
    static const std::vector<double> kEmpty;
    const auto it = kept_.find(name);
    return it == kept_.end() ? kEmpty : it->second;
}

double TraceFolder::get(const std::string& name, double SpanTotals::*field) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : it->second.*field;
}

double TraceFolder::sum(const std::string& prefix, const std::string& suffix,
                        double SpanTotals::*field) const {
    double s = 0.0;
    for (const auto& [name, t] : totals_) {
        if (name.size() < prefix.size() + suffix.size()) continue;
        if (name.compare(0, prefix.size(), prefix) != 0) continue;
        if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
            continue;
        s += t.*field;
    }
    return s;
}

void fill_shared_layers(const TraceFolder& folder, double ops, double wall_s,
                        int threads, double root_ms, double glue_ms,
                        Report& report) {
    auto& L = report.layers;
    const auto per_op = [&](double v) { return ops > 0 ? v / ops : 0.0; };
    for (const char* k : {"lut_backward_blocked", "lut_forward_blocked", "quantize",
                          "pack_weights", "col2im", "im2col_panels",
                          "lut_forward_serial"}) {
        const std::string span = std::string("kernels.") + k;
        L[span + "_ms"] = per_op(folder.get(span, &SpanTotals::excl_ms));
    }
    for (const char* c : {"kernels.gemm.rows", "kernels.gemm.backward_rows",
                          "runtime.parallel_for.calls", "runtime.parallel_for.chunks"})
        L[c] = per_op(static_cast<double>(counter_value(c)));
    for (const char* c : {"panels", "grad_x_blocks", "grad_w_blocks"}) {
        const std::string name = std::string("kernels.simd.") + c;
        L[name] = per_op(static_cast<double>(counter_sum(name + ".")));
    }
    L["kernels.workspace.regrow"] =
        static_cast<double>(counter_value("kernels.workspace.regrow"));
    L["runtime.dispatch_ms"] =
        per_op(folder.get("runtime.parallel_for", &SpanTotals::self_ms));
    L["runtime.busy_share"] =
        wall_s > 0 ? folder.get("runtime.chunk", &SpanTotals::total_ms) /
                         (threads * wall_s * 1e3)
                   : 0.0;
    L["trace.unattributed_share"] = root_ms > 0 ? glue_ms / root_ms : 0.0;
    L["trace.dropped"] = static_cast<double>(folder.dropped());
}

} // namespace perfbench
