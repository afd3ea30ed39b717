#include "approx/assignment.hpp"

#include "appmult/registry.hpp"
#include "obs/obs.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace amret::approx {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// FNV-1a over a byte range, continuing from \p h, with a field separator
/// (the serve-registry keying discipline).
std::uint64_t fnv_field(std::uint64_t h, const std::string& s) {
    for (const char ch : s) {
        h ^= static_cast<std::uint8_t>(ch);
        h *= kFnvPrime;
    }
    h ^= 0u;
    h *= kFnvPrime;
    return h;
}

std::uint64_t fnv_field(std::uint64_t h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= static_cast<std::uint8_t>(v >> (8 * i));
        h *= kFnvPrime;
    }
    h ^= 0u;
    h *= kFnvPrime;
    return h;
}

std::uint64_t fnv_choice(std::uint64_t h, const LayerChoice& c) {
    h = fnv_field(h, c.multiplier);
    h = fnv_field(h, c.hws);
    h = fnv_field(h, static_cast<std::uint64_t>(c.grad));
    return h;
}

core::GradientMode parse_grad_mode(const std::string& name, bool& ok) {
    ok = true;
    if (name == "ste") return core::GradientMode::kSte;
    if (name == "diff" || name.empty()) return core::GradientMode::kDifference;
    if (name == "true") return core::GradientMode::kTrue;
    ok = false;
    return core::GradientMode::kDifference;
}

// ------------------------------------------------- minimal JSON scanning ----
// The repo carries no JSON library; the parser below scans for the exact
// shapes to_json() emits (and tolerates re-ordered fields and extra
// whitespace). It is not a general JSON parser.

void skip_ws(const std::string& s, std::size_t& pos) {
    while (pos < s.size() &&
           (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' || s[pos] == '\r'))
        ++pos;
}

/// Finds `"key"` at object depth relative to \p from and returns the index
/// just past the following ':'; npos when absent.
std::size_t find_key(const std::string& s, const std::string& key,
                     std::size_t from, std::size_t to) {
    const std::string quoted = "\"" + key + "\"";
    std::size_t pos = s.find(quoted, from);
    while (pos != std::string::npos && pos < to) {
        std::size_t p = pos + quoted.size();
        skip_ws(s, p);
        if (p < s.size() && s[p] == ':') return p + 1;
        pos = s.find(quoted, pos + 1);
    }
    return std::string::npos;
}

bool parse_string_at(const std::string& s, std::size_t pos, std::string& out) {
    skip_ws(s, pos);
    if (pos >= s.size() || s[pos] != '"') return false;
    const std::size_t end = s.find('"', pos + 1);
    if (end == std::string::npos) return false;
    out = s.substr(pos + 1, end - pos - 1);
    return true;
}

bool parse_uint_at(const std::string& s, std::size_t pos, std::uint64_t& out) {
    skip_ws(s, pos);
    if (pos >= s.size() || s[pos] < '0' || s[pos] > '9') return false;
    out = 0;
    while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
        out = out * 10 + static_cast<std::uint64_t>(s[pos] - '0');
        ++pos;
    }
    return true;
}

/// Extent [open, close] of the object/array starting at the first '{' or '['
/// at/after \p pos; false when unbalanced.
bool find_extent(const std::string& s, std::size_t pos, char open, char close,
                 std::size_t& begin, std::size_t& end) {
    begin = s.find(open, pos);
    if (begin == std::string::npos) return false;
    int depth = 0;
    for (std::size_t i = begin; i < s.size(); ++i) {
        if (s[i] == open) ++depth;
        else if (s[i] == close && --depth == 0) {
            end = i;
            return true;
        }
    }
    return false;
}

/// Parses one {"multiplier": ..., "hws": ..., "grad": ...} object body.
bool parse_choice(const std::string& s, std::size_t begin, std::size_t end,
                  LayerChoice& out) {
    const std::size_t mult_pos = find_key(s, "multiplier", begin, end);
    if (mult_pos == std::string::npos ||
        !parse_string_at(s, mult_pos, out.multiplier) || out.multiplier.empty())
        return false;
    const std::size_t hws_pos = find_key(s, "hws", begin, end);
    if (hws_pos != std::string::npos) {
        std::uint64_t v = 0;
        if (!parse_uint_at(s, hws_pos, v) || v > 1024) return false;
        out.hws = static_cast<unsigned>(v);
    }
    const std::size_t grad_pos = find_key(s, "grad", begin, end);
    if (grad_pos != std::string::npos) {
        std::string name;
        if (!parse_string_at(s, grad_pos, name)) return false;
        bool ok = false;
        out.grad = parse_grad_mode(name, ok);
        if (!ok) return false;
    }
    return true;
}

void append_choice_fields(std::ostringstream& os, const LayerChoice& c) {
    os << "\"multiplier\": \"" << c.multiplier << "\", \"hws\": " << c.hws
       << ", \"grad\": \"" << core::gradient_mode_name(c.grad) << "\"";
}

} // namespace

// ------------------------------------------------- MultiplierAssignment ----

void MultiplierAssignment::set_fallback(LayerChoice def) {
    default_ = std::move(def);
    // Re-canonicalize: overrides that now equal the default are redundant.
    for (auto it = overrides_.begin(); it != overrides_.end();) {
        if (it->second == default_) it = overrides_.erase(it);
        else ++it;
    }
}

void MultiplierAssignment::set_layer(std::size_t layer_index, LayerChoice choice) {
    if (choice == default_) overrides_.erase(layer_index);
    else overrides_[layer_index] = std::move(choice);
}

const LayerChoice& MultiplierAssignment::at(std::size_t layer_index) const {
    const auto it = overrides_.find(layer_index);
    return it == overrides_.end() ? default_ : it->second;
}

std::uint64_t MultiplierAssignment::digest() const {
    std::uint64_t h = kFnvOffset;
    h = fnv_field(h, std::string("AMASSIGN1"));
    h = fnv_choice(h, default_);
    h = fnv_field(h, static_cast<std::uint64_t>(overrides_.size()));
    for (const auto& [index, choice] : overrides_) {
        h = fnv_field(h, static_cast<std::uint64_t>(index));
        h = fnv_choice(h, choice);
    }
    return h;
}

std::string MultiplierAssignment::key() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(digest()));
    return std::string(buf);
}

std::string MultiplierAssignment::to_json() const {
    std::ostringstream os;
    os << "{\n  \"version\": 1,\n  \"default\": {";
    append_choice_fields(os, default_);
    os << "},\n  \"layers\": [";
    bool first = true;
    for (const auto& [index, choice] : overrides_) {
        os << (first ? "\n" : ",\n") << "    {\"index\": " << index << ", ";
        append_choice_fields(os, choice);
        os << "}";
        first = false;
    }
    os << (first ? "]" : "\n  ]") << "\n}\n";
    return os.str();
}

std::optional<MultiplierAssignment> MultiplierAssignment::from_json(
    const std::string& text) {
    const std::size_t def_pos = find_key(text, "default", 0, text.size());
    if (def_pos == std::string::npos) return std::nullopt;
    std::size_t def_begin = 0, def_end = 0;
    if (!find_extent(text, def_pos, '{', '}', def_begin, def_end))
        return std::nullopt;
    LayerChoice def;
    if (!parse_choice(text, def_begin, def_end, def)) return std::nullopt;
    MultiplierAssignment out(std::move(def));

    const std::size_t layers_pos = find_key(text, "layers", 0, text.size());
    if (layers_pos == std::string::npos) return out; // uniform document
    std::size_t arr_begin = 0, arr_end = 0;
    if (!find_extent(text, layers_pos, '[', ']', arr_begin, arr_end))
        return std::nullopt;
    std::size_t cursor = arr_begin + 1;
    while (cursor < arr_end) {
        std::size_t obj_begin = 0, obj_end = 0;
        if (!find_extent(text, cursor, '{', '}', obj_begin, obj_end) ||
            obj_begin >= arr_end)
            break;
        const std::size_t idx_pos = find_key(text, "index", obj_begin, obj_end);
        std::uint64_t index = 0;
        LayerChoice choice;
        if (idx_pos == std::string::npos || !parse_uint_at(text, idx_pos, index) ||
            index > 100000 || !parse_choice(text, obj_begin, obj_end, choice))
            return std::nullopt;
        out.set_layer(static_cast<std::size_t>(index), std::move(choice));
        cursor = obj_end + 1;
    }
    return out;
}

std::optional<MultiplierAssignment> MultiplierAssignment::load(
    const std::string& path) {
    std::ifstream f(path);
    if (!f) return std::nullopt;
    std::ostringstream buf;
    buf << f.rdbuf();
    return from_json(buf.str());
}

bool MultiplierAssignment::save(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    f << to_json();
    return static_cast<bool>(f);
}

// ----------------------------------------------------- MultiplierCache ----

MultiplierCache& MultiplierCache::instance() {
    static MultiplierCache cache; // invariant-ok: the synchronized singleton itself
    return cache;
}

std::shared_ptr<const appmult::AppMultLut> MultiplierCache::lut(
    const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = luts_.find(name);
    if (it != luts_.end()) {
        ++stats_.hits;
        AMRET_OBS_COUNT("approx.mult_cache.hits", 1);
        return it->second;
    }
    // The one sanctioned registry lookup on the layer-config path.
    auto& reg = appmult::Registry::instance(); // invariant-ok: MultiplierCache is the assignment path
    auto built = std::make_shared<const appmult::AppMultLut>(reg.lut(name));
    ++stats_.lut_builds;
    AMRET_OBS_COUNT("approx.mult_cache.lut_builds", 1);
    luts_.emplace(name, built);
    return built;
}

std::shared_ptr<const core::GradLut> MultiplierCache::grad(
    const std::string& name, core::GradientMode mode, unsigned hws) {
    const unsigned resolved = resolve_hws(name, hws);
    const std::string key = name + '\0' +
                            std::string(core::gradient_mode_name(mode)) + '\0' +
                            std::to_string(resolved);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = grads_.find(key);
        if (it != grads_.end()) {
            ++stats_.hits;
            AMRET_OBS_COUNT("approx.mult_cache.hits", 1);
            return it->second;
        }
    }
    // Build outside the cache lock: gradient tables are big and the product
    // LUT fetch below re-enters lut().
    const auto product = lut(name);
    auto built = std::make_shared<const core::GradLut>(
        core::build_grad(*product, mode, resolved));
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = grads_.emplace(key, std::move(built));
    if (inserted) {
        ++stats_.grad_builds;
        AMRET_OBS_COUNT("approx.mult_cache.grad_builds", 1);
    }
    return it->second;
}

MultiplierConfig MultiplierCache::config(const LayerChoice& choice) {
    MultiplierConfig config;
    config.name = choice.multiplier;
    config.hws = resolve_hws(choice.multiplier, choice.hws);
    config.grad_mode = choice.grad;
    config.lut = lut(choice.multiplier);
    config.grad = grad(choice.multiplier, choice.grad, config.hws);
    return config;
}

unsigned MultiplierCache::resolve_hws(const std::string& name, unsigned hws) const {
    if (hws != 0) return hws;
    auto& reg = appmult::Registry::instance(); // invariant-ok: MultiplierCache is the assignment path
    return reg.info(name).default_hws;
}

MultiplierCache::Stats MultiplierCache::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void MultiplierCache::clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    luts_.clear();
    grads_.clear();
    stats_ = Stats{};
}

// ---------------------------------------------------- model application ----

std::size_t apply_assignment(nn::Module& root,
                             const MultiplierAssignment& assignment,
                             ComputeMode mode) {
    if (assignment.empty())
        throw std::invalid_argument("apply_assignment: empty assignment");
    auto& cache = MultiplierCache::instance();
    std::size_t index = 0;
    root.visit([&](nn::Module& m) {
        if (auto* layer = dynamic_cast<ApproxLayer*>(&m)) {
            layer->set_multiplier(cache.config(assignment.at(index++)));
            layer->set_mode(mode);
        }
    });
    return index;
}

std::size_t count_approx_layers(nn::Module& root) {
    std::size_t count = 0;
    root.visit([&](nn::Module& m) {
        if (dynamic_cast<ApproxLayer*>(&m) != nullptr) ++count;
    });
    return count;
}

} // namespace amret::approx
