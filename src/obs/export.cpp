#include "obs/export.hpp"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

#include "obs/merge.hpp"
#include "util/error.hpp"
#include "util/value.hpp"

namespace osprey::obs {

using osprey::util::Value;
using osprey::util::ValueArray;
using osprey::util::ValueObject;

std::vector<SpanRecord> canonical_spans(std::vector<SpanRecord> spans) {
  std::stable_sort(
      spans.begin(), spans.end(),
      [](const SpanRecord& a, const SpanRecord& b) {
        return std::tie(a.begin_ns, a.end_ns, a.category, a.name, a.detail,
                        a.shard, a.instant, a.id) <
               std::tie(b.begin_ns, b.end_ns, b.category, b.name, b.detail,
                        b.shard, b.instant, b.id);
      });
  std::map<SpanId, SpanId> renumber;
  renumber[kNoSpan] = kNoSpan;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    renumber[spans[i].id] = static_cast<SpanId>(i) + 1;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    spans[i].id = static_cast<SpanId>(i) + 1;
    const auto it = renumber.find(spans[i].parent);
    spans[i].parent = it == renumber.end() ? kNoSpan : it->second;
  }
  return spans;
}

std::string chrome_trace_json(const std::vector<SpanRecord>& spans) {
  const std::vector<SpanRecord> canon = canonical_spans(spans);
  ValueArray events;
  events.reserve(canon.size());
  for (const SpanRecord& s : canon) {
    ValueObject args;
    args["id"] = static_cast<std::int64_t>(s.id);
    if (s.parent != kNoSpan) {
      args["parent"] = static_cast<std::int64_t>(s.parent);
    }
    if (!s.ok) args["ok"] = false;
    if (s.open) args["open"] = true;
    if (!s.detail.empty()) args["detail"] = s.detail;
    if (!s.shard.empty()) args["shard"] = s.shard;
    if (s.wall_begin_ns != 0) {
      args["wall_begin_ns"] = static_cast<std::int64_t>(s.wall_begin_ns);
    }
    if (s.wall_end_ns != 0) {
      args["wall_end_ns"] = static_cast<std::int64_t>(s.wall_end_ns);
    }
    ValueObject ev;
    ev["name"] = s.name;
    ev["cat"] = category_name(s.category);
    ev["ph"] = s.instant ? "i" : "X";
    ev["ts"] = static_cast<std::int64_t>(s.begin_ns / 1000);
    if (s.instant) {
      ev["s"] = "t";  // thread-scoped instant
    } else {
      ev["dur"] = static_cast<std::int64_t>(s.duration_ns() / 1000);
    }
    ev["pid"] = 1;
    // One Perfetto track per category keeps the timeline readable.
    ev["tid"] = static_cast<std::int64_t>(s.category) + 1;
    ev["args"] = std::move(args);
    events.emplace_back(std::move(ev));
  }
  ValueObject doc;
  doc["displayTimeUnit"] = "ms";
  doc["traceEvents"] = std::move(events);
  return Value(std::move(doc)).to_json();
}

std::string chrome_trace_json(const TraceRecorder& recorder) {
  return chrome_trace_json(recorder.snapshot());
}

std::vector<SpanRecord> parse_chrome_trace(const std::string& json) {
  const Value doc = Value::parse_json(json);
  OSPREY_REQUIRE(doc.is_object() && doc.contains("traceEvents"),
                 "not a chrome trace document");
  std::vector<SpanRecord> spans;
  for (const Value& ev : doc.at("traceEvents").as_array()) {
    SpanRecord s;
    s.name = ev.at("name").as_string();
    s.category = category_from_name(ev.at("cat").as_string());
    const std::string& ph = ev.at("ph").as_string();
    s.instant = ph == "i" || ph == "I";
    s.begin_ns = static_cast<std::uint64_t>(ev.at("ts").as_int()) * 1000;
    const std::int64_t dur = s.instant ? 0 : ev.get_or("dur", std::int64_t{0});
    s.end_ns = s.begin_ns + static_cast<std::uint64_t>(dur) * 1000;
    if (ev.contains("args")) {
      const Value& args = ev.at("args");
      s.id = static_cast<SpanId>(args.get_or("id", std::int64_t{0}));
      s.parent = static_cast<SpanId>(args.get_or("parent", std::int64_t{0}));
      s.ok = !args.contains("ok") || args.at("ok").as_bool();
      s.open = args.contains("open") && args.at("open").as_bool();
      s.detail = args.get_or("detail", std::string());
      s.shard = args.get_or("shard", std::string());
      s.wall_begin_ns = static_cast<std::uint64_t>(
          args.get_or("wall_begin_ns", std::int64_t{0}));
      s.wall_end_ns = static_cast<std::uint64_t>(
          args.get_or("wall_end_ns", std::int64_t{0}));
    }
    spans.push_back(std::move(s));
  }
  std::stable_sort(spans.begin(), spans.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     return a.id < b.id;
                   });
  return spans;
}

std::string prometheus_text(const MetricsRegistry& registry) {
  // The one-source case of the labeled writer: an empty label adds no
  // shard dimension.
  return prometheus_text_sharded({{"", &registry}});
}

}  // namespace osprey::obs
