#include "appmult/appmult.hpp"

#include "netlist/sim.hpp"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

namespace amret::appmult {

AppMultLut::AppMultLut(unsigned bits,
                       const std::function<std::uint64_t(std::uint64_t, std::uint64_t)>& fn) {
    assert(bits >= 2 && bits <= 10);
    const std::uint64_t n = std::uint64_t{1} << bits;
    std::vector<std::int32_t> table(n * n);
    for (std::uint64_t w = 0; w < n; ++w) {
        for (std::uint64_t x = 0; x < n; ++x) {
            table[(w << bits) | x] = static_cast<std::int32_t>(fn(w, x));
        }
    }
    set_table(bits, std::move(table));
}

void AppMultLut::set_table(unsigned bits, std::vector<std::int32_t> table) {
    bits_ = bits;
    table_ = std::move(table);
    planes_.clear();
    if (kernels::lut_has_planes(table_.data(), bits_)) {
        planes_.resize(std::size_t{1} << bits_);
        kernels::fill_lut_planes(table_.data(), bits_, planes_.data());
    }
}

AppMultLut AppMultLut::from_netlist(unsigned bits, const netlist::Netlist& netlist) {
    assert(netlist.num_inputs() == 2 * bits);
    assert(netlist.num_outputs() == 2 * bits);
    const auto outputs = netlist::eval_all_patterns(netlist);
    const std::uint64_t n = std::uint64_t{1} << bits;
    std::vector<std::int32_t> table(n * n);
    // Simulation pattern p carries W in its low bits and X in its high bits
    // (inputs were added W-first); LUT index is (W << B) | X.
    for (std::uint64_t p = 0; p < n * n; ++p) {
        const std::uint64_t w = p & (n - 1);
        const std::uint64_t x = p >> bits;
        table[(w << bits) | x] = static_cast<std::int32_t>(outputs[p]);
    }
    AppMultLut lut;
    lut.set_table(bits, std::move(table));
    return lut;
}

AppMultLut AppMultLut::exact(unsigned bits) {
    return AppMultLut(bits, [](std::uint64_t w, std::uint64_t x) { return w * x; });
}

bool AppMultLut::save(const std::string& path) const {
    std::ofstream f(path, std::ios::binary);
    if (!f) return false;
    const char magic[8] = {'A', 'M', 'L', 'U', 'T', '1', 0, 0};
    f.write(magic, sizeof(magic));
    const std::uint32_t b = bits_;
    f.write(reinterpret_cast<const char*>(&b), sizeof(b));
    f.write(reinterpret_cast<const char*>(table_.data()),
            static_cast<std::streamsize>(table_.size() * sizeof(std::int32_t)));
    return static_cast<bool>(f);
}

AppMultLut AppMultLut::load(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    AppMultLut lut;
    if (!f) return lut;
    char magic[8];
    f.read(magic, sizeof(magic));
    if (!f || std::string(magic, 5) != "AMLUT") return lut;
    std::uint32_t b = 0;
    f.read(reinterpret_cast<char*>(&b), sizeof(b));
    if (!f || b < 2 || b > 10) return lut;
    const std::uint64_t n = std::uint64_t{1} << b;
    std::vector<std::int32_t> table(n * n);
    f.read(reinterpret_cast<char*>(table.data()),
           static_cast<std::streamsize>(table.size() * sizeof(std::int32_t)));
    if (!f) return lut;
    lut.set_table(b, std::move(table));
    return lut;
}

ErrorMetrics measure_error(unsigned bits, const std::vector<std::int32_t>& approx,
                           const std::vector<std::int32_t>& reference) {
    assert(approx.size() == reference.size());
    const std::uint64_t total = approx.size();
    const double max_product = std::ldexp(1.0, static_cast<int>(2 * bits)) - 1.0;

    std::uint64_t mismatches = 0;
    double sum_abs = 0.0;
    double sum_signed = 0.0;
    std::int64_t max_ed = 0;
    for (std::uint64_t i = 0; i < total; ++i) {
        const std::int64_t diff =
            static_cast<std::int64_t>(approx[i]) - static_cast<std::int64_t>(reference[i]);
        if (diff != 0) ++mismatches;
        const std::int64_t ad = diff < 0 ? -diff : diff;
        sum_abs += static_cast<double>(ad);
        sum_signed += static_cast<double>(diff);
        if (ad > max_ed) max_ed = ad;
    }

    ErrorMetrics m;
    m.error_rate = static_cast<double>(mismatches) / static_cast<double>(total);
    m.nmed = sum_abs / static_cast<double>(total) / max_product;
    m.max_ed = max_ed;
    m.mean_error = sum_signed / static_cast<double>(total);
    return m;
}

ErrorMetrics measure_error(const AppMultLut& lut) {
    const AppMultLut exact = AppMultLut::exact(lut.bits());
    return measure_error(lut.bits(), lut.table(), exact.table());
}

} // namespace amret::appmult
