/// \file main.cpp
/// \brief amret_perfbench: runs one benchmark workload and writes its raw
///        result as JSON (perfbench/run.py reduces it to metrics).
///
///   amret_perfbench --workload <name> --seed <n> --seconds <s>
///                   [--trace 0|1] [--setup-only 0|1] [--out <file>]
///
/// Workloads: retrain_vgg19, retrain_mobilenet, infer_vgg19, serve_lenet.
/// --setup-only 1 stops after the set-up, so a fresh process gives one more
/// set-up time from process start.
/// Exit status: 0 when the workload ran (output checks are reported in the
/// JSON), 2 on a usage error, 1 when the workload threw.
#include "common.hpp"

#include "kernels/layout.hpp"
#include "kernels/simd/simd.hpp"
#include "kernels/tuning.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

namespace {

using namespace perfbench;

const char* layout_name(amret::kernels::LayoutMode mode) {
    switch (mode) {
    case amret::kernels::LayoutMode::kScalar: return "scalar";
    case amret::kernels::LayoutMode::kBlocked: return "blocked";
    case amret::kernels::LayoutMode::kBlockedNhwc: return "blocked-nhwc";
    }
    return "unknown";
}

int usage(const char* why) {
    std::fprintf(stderr,
                 "amret_perfbench: %s\nusage: amret_perfbench --workload <name> "
                 "--seed <n> --seconds <s> [--trace 0|1] [--setup-only 0|1] "
                 "[--out <file>]\n",
                 why);
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    mark_process_start();
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") opt.workload = value;
            else if (flag == "--seed") opt.seed = std::stoull(value);
            else if (flag == "--seconds") opt.seconds = std::stod(value);
            else if (flag == "--trace") opt.trace = std::stoi(value) != 0;
            else if (flag == "--setup-only") opt.setup_only = std::stoi(value) != 0;
            else if (flag == "--out") opt.out_path = value;
            else return usage(("unknown flag " + flag).c_str());
        } catch (const std::exception&) {
            return usage(("bad value for " + flag).c_str());
        }
    }
    if (opt.seconds <= 0) return usage("--seconds must be positive");

    Report report;
    try {
        if (opt.workload == "retrain_vgg19" || opt.workload == "retrain_mobilenet") {
            run_retrain(opt, report);
        } else if (opt.workload == "infer_vgg19") {
            run_infer(opt, report);
        } else if (opt.workload == "serve_lenet") {
            run_serve(opt, report);
        } else {
            return usage(("unknown workload '" + opt.workload + "'").c_str());
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "amret_perfbench: %s failed: %s\n",
                     opt.workload.c_str(), e.what());
        return 1;
    }

    const auto& tiles = amret::kernels::Tuning::current();
    namespace simd = amret::kernels::simd;
    report.info["simd"] = simd::isa_name(simd::select());
    report.info["layout"] = layout_name(amret::kernels::layout_mode());
    report.info["tiles"] = "tp=" + std::to_string(tiles.tp) +
                           " to=" + std::to_string(tiles.to) +
                           " tk=" + std::to_string(tiles.tk);
    report.info["build_type"] = PERFBENCH_BUILD_TYPE;
    report.info["amret_obs"] = PERFBENCH_OBS ? "on" : "off";

    const std::string json = to_json(opt, report);
    if (opt.out_path.empty()) {
        std::fwrite(json.data(), 1, json.size(), stdout);
    } else {
        std::ofstream out(opt.out_path, std::ios::binary);
        out << json;
        if (!out) {
            std::fprintf(stderr, "amret_perfbench: cannot write %s\n",
                         opt.out_path.c_str());
            return 1;
        }
    }
    return 0;
}
