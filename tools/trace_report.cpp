/// \file trace_report.cpp
/// \brief Folds a Chrome trace JSON (e.g. from `amret_cli train --trace` or
/// a bench run) into a top-N self-time table.
///
/// Usage:
///   trace_report trace.json [--top N]
#include "obs/report.hpp"
#include "util/args.hpp"

#include <cstdio>
#include <string>

int main(int argc, char** argv) {
    const amret::util::ArgParser args(argc, argv);
    if (args.positional().empty()) {
        std::fputs("usage: trace_report <trace.json> [--top N]\n", stderr);
        return 1;
    }
    const std::string path = args.positional()[0];
    const auto top_n = static_cast<std::size_t>(args.get_int("top", 20));

    std::string error;
    const auto records = amret::obs::load_chrome_trace(path, &error);
    if (records.empty()) {
        // The loader's errors name the path already.
        if (error.empty())
            std::fprintf(stderr, "trace_report: %s: no complete (\"X\") events\n",
                         path.c_str());
        else
            std::fprintf(stderr, "trace_report: %s\n", error.c_str());
        return 1;
    }
    std::printf("%s: %zu spans\n", path.c_str(), records.size());
    std::fputs(amret::obs::fold_report(records, top_n).c_str(), stdout);
    return 0;
}
