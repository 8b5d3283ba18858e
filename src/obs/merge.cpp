#include "obs/merge.hpp"

#include <cstdio>
#include <map>
#include <set>

#include "obs/export.hpp"
#include "util/error.hpp"

namespace osprey::obs {

using osprey::util::Value;
using osprey::util::ValueObject;

namespace {

void require_unique_labels(const std::vector<std::string>& labels) {
  std::set<std::string> seen;
  for (const std::string& label : labels) {
    OSPREY_REQUIRE(seen.insert(label).second,
                   "duplicate shard label in merge: " + label);
  }
}

// Deterministic number formatting for the exposition text: integral
// values print without a fraction, others with %.17g (round-trippable).
std::string format_number(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(static_cast<std::int64_t>(v)));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

/// Sorted union of one metric kind's names across every source.
template <typename NamesFn>
std::vector<std::string> name_union(
    const std::vector<LabeledRegistry>& sources, NamesFn names) {
  std::set<std::string> all;
  for (const LabeledRegistry& src : sources) {
    for (const std::string& n : names(*src.registry)) all.insert(n);
  }
  return {all.begin(), all.end()};
}

/// A sample's label set: the shard label (omitted when empty, as in the
/// single-registry exposition) then `extra` (e.g. a bucket's le="…").
std::string sample_labels(const std::string& shard,
                          const std::string& extra = {}) {
  std::string inner = shard.empty() ? "" : "shard=\"" + shard + "\"";
  if (!extra.empty()) inner += (inner.empty() ? "" : ",") + extra;
  return inner.empty() ? "" : "{" + inner + "}";
}

void append_family_header(std::string& out,
                          const std::vector<LabeledRegistry>& sources,
                          const std::string& name, const char* type) {
  for (const LabeledRegistry& src : sources) {
    const std::string help = src.registry->help(name);
    if (!help.empty()) {
      out += "# HELP " + name + " " + help + "\n";
      break;
    }
  }
  out += "# TYPE " + name + " " + std::string(type) + "\n";
}

}  // namespace

std::vector<SpanRecord> merge_labeled_spans(
    std::vector<LabeledSpans> sources) {
  std::vector<std::string> labels;
  labels.reserve(sources.size());
  for (const LabeledSpans& src : sources) labels.push_back(src.label);
  require_unique_labels(labels);

  std::vector<SpanRecord> merged;
  SpanId offset = 0;
  for (LabeledSpans& src : sources) {
    SpanId max_id = 0;
    for (SpanRecord& s : src.spans) {
      if (s.shard.empty()) s.shard = src.label;
      if (s.id != kNoSpan) {
        if (s.id > max_id) max_id = s.id;
        s.id += offset;
      }
      if (s.parent != kNoSpan) s.parent += offset;
      merged.push_back(std::move(s));
    }
    offset += max_id;
  }
  return canonical_spans(std::move(merged));
}

Value merged_metrics_snapshot(const std::vector<LabeledRegistry>& sources) {
  std::vector<std::string> labels;
  labels.reserve(sources.size());
  for (const LabeledRegistry& src : sources) labels.push_back(src.label);
  require_unique_labels(labels);

  ValueObject shards;
  std::map<std::string, std::uint64_t> counter_totals;
  for (const LabeledRegistry& src : sources) {
    shards[src.label] = src.registry->snapshot();
    for (const std::string& name : src.registry->counter_names()) {
      counter_totals[name] += src.registry->find_counter(name)->value();
    }
  }
  ValueObject totals_counters;
  for (const auto& [name, total] : counter_totals) {
    totals_counters[name] = Value(static_cast<std::int64_t>(total));
  }
  ValueObject totals;
  totals["counters"] = Value(std::move(totals_counters));
  ValueObject out;
  out["shards"] = Value(std::move(shards));
  out["totals"] = Value(std::move(totals));
  return Value(std::move(out));
}

std::string prometheus_text_sharded(
    const std::vector<LabeledRegistry>& sources) {
  std::vector<std::string> labels;
  labels.reserve(sources.size());
  for (const LabeledRegistry& src : sources) labels.push_back(src.label);
  require_unique_labels(labels);

  std::string out;
  for (const std::string& name : name_union(sources, [](const auto& r) {
         return r.counter_names();
       })) {
    append_family_header(out, sources, name, "counter");
    for (const LabeledRegistry& src : sources) {
      const Counter* c = src.registry->find_counter(name);
      if (c == nullptr) continue;
      out += name + sample_labels(src.label) + " " +
             format_number(static_cast<double>(c->value())) + "\n";
    }
  }
  for (const std::string& name : name_union(sources, [](const auto& r) {
         return r.gauge_names();
       })) {
    append_family_header(out, sources, name, "gauge");
    for (const LabeledRegistry& src : sources) {
      const Gauge* g = src.registry->find_gauge(name);
      if (g == nullptr) continue;
      out += name + sample_labels(src.label) + " " +
             format_number(g->value()) + "\n";
    }
  }
  for (const std::string& name : name_union(sources, [](const auto& r) {
         return r.histogram_names();
       })) {
    append_family_header(out, sources, name, "histogram");
    for (const LabeledRegistry& src : sources) {
      const Histogram* h = src.registry->find_histogram(name);
      if (h == nullptr) continue;
      const std::vector<double> bounds = h->bounds();
      const std::vector<std::uint64_t> buckets = h->bucket_counts();
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i <= bounds.size(); ++i) {
        cumulative += buckets[i];
        const std::string le =
            i < bounds.size() ? format_number(bounds[i]) : "+Inf";
        out += name + "_bucket" +
               sample_labels(src.label, "le=\"" + le + "\"") + " " +
               format_number(static_cast<double>(cumulative)) + "\n";
      }
      out += name + "_sum" + sample_labels(src.label) + " " +
             format_number(h->sum()) + "\n";
      out += name + "_count" + sample_labels(src.label) + " " +
             format_number(static_cast<double>(h->count())) + "\n";
    }
  }
  return out;
}

}  // namespace osprey::obs
