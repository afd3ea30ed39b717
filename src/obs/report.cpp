#include "obs/report.hpp"

#include "util/table.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

namespace amret::obs {

namespace {

/// Minimal JSON value model — just enough for trace-event files. Numbers
/// are doubles; objects/arrays own their children.
struct JsonValue {
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind =
        Kind::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    [[nodiscard]] const JsonValue* find(const std::string& key) const {
        for (const auto& [k, v] : object)
            if (k == key) return &v;
        return nullptr;
    }
};

/// Recursive-descent parser. Tolerant only in what it accepts from valid
/// JSON; any malformed input fails with a position-stamped message. Arrays
/// and objects nest at most kMaxDepth deep, so no input can exhaust the
/// stack; a trace file nests 4 deep.
class JsonParser {
public:
    explicit JsonParser(const std::string& text) : text_(text) {}

    bool parse(JsonValue& out, std::string& error) {
        if (!value(out, error)) return false;
        skip_ws();
        if (pos_ != text_.size()) {
            error = fail("trailing characters after JSON value");
            return false;
        }
        return true;
    }

private:
    std::string fail(const std::string& what) const {
        return what + " at offset " + std::to_string(pos_);
    }

    void skip_ws() {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])) != 0)
            ++pos_;
    }

    bool literal(const char* word, std::string& error) {
        for (const char* p = word; *p != '\0'; ++p, ++pos_) {
            if (pos_ >= text_.size() || text_[pos_] != *p) {
                error = fail("invalid literal");
                return false;
            }
        }
        return true;
    }

    bool string_value(std::string& out, std::string& error) {
        ++pos_; // opening quote
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"') return true;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size()) break;
            const char esc = text_[pos_++];
            switch (esc) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': {
                    if (pos_ + 4 > text_.size()) {
                        error = fail("truncated \\u escape");
                        return false;
                    }
                    const unsigned long code =
                        std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16);
                    pos_ += 4;
                    // Non-ASCII escapes are preserved as '?' — span names in
                    // our traces are ASCII identifiers.
                    out.push_back(code < 0x80 ? static_cast<char>(code) : '?');
                    break;
                }
                default: error = fail("unknown escape"); return false;
            }
        }
        error = fail("unterminated string");
        return false;
    }

    bool value(JsonValue& out, std::string& error) {
        skip_ws();
        if (pos_ >= text_.size()) {
            error = fail("unexpected end of input");
            return false;
        }
        const char c = text_[pos_];
        if (c == '{' || c == '[') {
            if (depth_ == kMaxDepth) {
                error = fail("nesting deeper than " + std::to_string(kMaxDepth));
                return false;
            }
            ++depth_;
            const bool ok =
                c == '{' ? object_value(out, error) : array_value(out, error);
            --depth_;
            return ok;
        }
        if (c == '"') {
            out.kind = JsonValue::Kind::kString;
            return string_value(out.string, error);
        }
        if (c == 't') {
            out.kind = JsonValue::Kind::kBool;
            out.boolean = true;
            return literal("true", error);
        }
        if (c == 'f') {
            out.kind = JsonValue::Kind::kBool;
            out.boolean = false;
            return literal("false", error);
        }
        if (c == 'n') {
            out.kind = JsonValue::Kind::kNull;
            return literal("null", error);
        }
        return number_value(out, error);
    }

    bool number_value(JsonValue& out, std::string& error) {
        const char* start = text_.c_str() + pos_;
        char* end = nullptr;
        out.number = std::strtod(start, &end);
        if (end == start || !std::isfinite(out.number)) {
            error = fail("invalid number");
            return false;
        }
        out.kind = JsonValue::Kind::kNumber;
        pos_ += static_cast<std::size_t>(end - start);
        return true;
    }

    bool array_value(JsonValue& out, std::string& error) {
        out.kind = JsonValue::Kind::kArray;
        ++pos_; // '['
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue elem;
            if (!value(elem, error)) return false;
            out.array.push_back(std::move(elem));
            skip_ws();
            if (pos_ >= text_.size()) {
                error = fail("unterminated array");
                return false;
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            error = fail("expected ',' or ']'");
            return false;
        }
    }

    bool object_value(JsonValue& out, std::string& error) {
        out.kind = JsonValue::Kind::kObject;
        ++pos_; // '{'
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skip_ws();
            if (pos_ >= text_.size() || text_[pos_] != '"') {
                error = fail("expected object key");
                return false;
            }
            std::string key;
            if (!string_value(key, error)) return false;
            skip_ws();
            if (pos_ >= text_.size() || text_[pos_] != ':') {
                error = fail("expected ':'");
                return false;
            }
            ++pos_;
            JsonValue val;
            if (!value(val, error)) return false;
            out.object.emplace_back(std::move(key), std::move(val));
            skip_ws();
            if (pos_ >= text_.size()) {
                error = fail("unterminated object");
                return false;
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            error = fail("expected ',' or '}'");
            return false;
        }
    }

    static constexpr int kMaxDepth = 256;

    const std::string& text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

double number_or(const JsonValue* v, double fallback) {
    return v != nullptr && v->kind == JsonValue::Kind::kNumber ? v->number
                                                               : fallback;
}

} // namespace

std::vector<TraceRecord> load_chrome_trace(const std::string& path,
                                           std::string* error) {
    const auto set_error = [&](const std::string& message) {
        if (error != nullptr) *error = message;
    };
    std::ifstream f(path, std::ios::binary);
    if (!f) {
        set_error("cannot open " + path);
        return {};
    }
    std::ostringstream buffer;
    buffer << f.rdbuf();
    const std::string text = buffer.str();

    JsonValue root;
    std::string parse_error;
    if (!JsonParser(text).parse(root, parse_error)) {
        set_error(path + ": " + parse_error);
        return {};
    }

    // Accept both the object form {"traceEvents": [...]} and the bare
    // array form that some exporters emit.
    const JsonValue* events = &root;
    if (root.kind == JsonValue::Kind::kObject) {
        events = root.find("traceEvents");
        if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
            set_error(path + ": no traceEvents array");
            return {};
        }
    } else if (root.kind != JsonValue::Kind::kArray) {
        set_error(path + ": top-level value is neither object nor array");
        return {};
    }

    std::vector<TraceRecord> records;
    for (const JsonValue& ev : events->array) {
        if (ev.kind != JsonValue::Kind::kObject) continue;
        const JsonValue* ph = ev.find("ph");
        if (ph == nullptr || ph->kind != JsonValue::Kind::kString ||
            ph->string != "X")
            continue; // metadata / non-complete events
        TraceRecord rec;
        const JsonValue* name = ev.find("name");
        rec.name = name != nullptr && name->kind == JsonValue::Kind::kString
                       ? name->string
                       : "?";
        rec.ts_us = number_or(ev.find("ts"), 0.0);
        rec.dur_us = number_or(ev.find("dur"), 0.0);
        rec.tid = static_cast<std::int64_t>(number_or(ev.find("tid"), 0.0));
        if (const JsonValue* args = ev.find("args");
            args != nullptr && args->kind == JsonValue::Kind::kObject)
            rec.cpu_ms = number_or(args->find("cpu_ms"), 0.0);
        records.push_back(std::move(rec));
    }
    return records;
}

std::vector<FoldedSpan> fold_spans(const std::vector<TraceRecord>& records) {
    std::vector<const TraceRecord*> sorted;
    sorted.reserve(records.size());
    for (const TraceRecord& rec : records) sorted.push_back(&rec);
    std::sort(sorted.begin(), sorted.end(),
              [](const TraceRecord* a, const TraceRecord* b) {
                  if (a->tid != b->tid) return a->tid < b->tid;
                  if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
                  return a->dur_us > b->dur_us; // parent before equal-start child
              });

    struct Agg {
        std::uint64_t count = 0;
        double total_ms = 0.0;
        double child_ms = 0.0;
        double cpu_ms = 0.0;
    };
    std::map<std::string, Agg> aggs;

    // Per-thread interval nesting: a record is a child of the innermost
    // still-open interval that contains its start.
    std::vector<std::pair<double, std::string>> stack; // (end_us, name)
    std::int64_t current_tid = -1;
    for (const TraceRecord* rec : sorted) {
        if (rec->tid != current_tid) {
            stack.clear();
            current_tid = rec->tid;
        }
        while (!stack.empty() && stack.back().first <= rec->ts_us)
            stack.pop_back();
        Agg& agg = aggs[rec->name];
        ++agg.count;
        agg.total_ms += rec->dur_us * 1e-3;
        agg.cpu_ms += rec->cpu_ms;
        if (!stack.empty()) aggs[stack.back().second].child_ms += rec->dur_us * 1e-3;
        stack.emplace_back(rec->ts_us + rec->dur_us, rec->name);
    }

    std::vector<FoldedSpan> folded;
    folded.reserve(aggs.size());
    for (auto& [name, agg] : aggs) {
        FoldedSpan span;
        span.name = name;
        span.count = agg.count;
        span.total_ms = agg.total_ms;
        span.self_ms = std::max(0.0, agg.total_ms - agg.child_ms);
        span.cpu_ms = agg.cpu_ms;
        folded.push_back(std::move(span));
    }
    std::sort(folded.begin(), folded.end(),
              [](const FoldedSpan& a, const FoldedSpan& b) {
                  if (a.self_ms != b.self_ms) return a.self_ms > b.self_ms;
                  return a.name < b.name;
              });
    return folded;
}

std::string fold_report(const std::vector<TraceRecord>& records,
                        std::size_t top_n) {
    const auto folded = fold_spans(records);
    if (folded.empty()) return "no complete spans in trace\n";

    double total_self_ms = 0.0;
    for (const FoldedSpan& span : folded) total_self_ms += span.self_ms;

    util::TablePrinter table(
        {"Span", "Count", "Total/ms", "Self/ms", "CPU/ms", "Self%"});
    const std::size_t n = std::min(top_n, folded.size());
    for (std::size_t i = 0; i < n; ++i) {
        const FoldedSpan& span = folded[i];
        table.add_row({span.name, std::to_string(span.count),
                       util::TablePrinter::num(span.total_ms, 3),
                       util::TablePrinter::num(span.self_ms, 3),
                       util::TablePrinter::num(span.cpu_ms, 3),
                       util::TablePrinter::num(
                           total_self_ms > 0.0
                               ? 100.0 * span.self_ms / total_self_ms
                               : 0.0,
                           1)});
    }
    std::ostringstream out;
    out << table.str();
    if (folded.size() > n)
        out << "(" << folded.size() - n << " more spans below the top " << n
            << ")\n";
    return out.str();
}

} // namespace amret::obs
