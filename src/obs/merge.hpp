#pragma once

/// \file merge.hpp
/// Deterministic merging of per-shard observability state into one
/// canonical export (the shard-label dimension of DESIGN.md §7).
///
/// A sharded run records into one TraceRecorder / MetricsRegistry per
/// partition, each stamped with its shard label. Merging is pure
/// bookkeeping on stable identifiers — labels, recording order and
/// sorted metric names — so the merged artifacts are byte-identical
/// across replays AND across shard counts: the per-partition state is
/// invariant to which thread ran the partition, and nothing here ever
/// consults an ephemeral id.

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/value.hpp"

namespace osprey::obs {

/// One source in a merge: a shard label plus that shard's spans (as
/// returned by TraceRecorder::snapshot(), ids 1..n in recording order).
struct LabeledSpans {
  std::string label;
  std::vector<SpanRecord> spans;
};

/// Merge per-shard span sets into one canonical set: span ids are
/// offset per source (so parent links survive), the union is sorted by
/// the canonical key — which includes the shard label — and ids are
/// renumbered 1..n. Labels must be unique (InvalidArgument otherwise).
/// Feeding the result to chrome_trace_json yields bytes that depend
/// only on the per-source span sets, not on thread interleaving.
std::vector<SpanRecord> merge_labeled_spans(std::vector<LabeledSpans> sources);

/// One registry in a metrics merge (non-owning; must outlive the call).
struct LabeledRegistry {
  std::string label;
  const MetricsRegistry* registry = nullptr;
};

/// Deterministic JSON-able merge of per-shard registries:
///   {"shards": {label: registry.snapshot()},
///    "totals": {"counters": {name: sum across shards}}}
/// Labels must be unique. Serialization is deterministic (ValueObject
/// keeps keys sorted), so the bytes are replay- and shard-count-stable.
osprey::util::Value merged_metrics_snapshot(
    const std::vector<LabeledRegistry>& sources);

/// Prometheus text exposition with a {shard="<label>"} dimension on
/// every sample. Metric families appear in sorted-name order; within a
/// family, shards appear in the order given (callers pass partitions in
/// stable ordinal order). Histograms keep full bucket detail per shard.
/// An empty label adds no shard dimension: prometheus_text(registry) is
/// this writer over the single source {"", &registry}.
std::string prometheus_text_sharded(
    const std::vector<LabeledRegistry>& sources);

}  // namespace osprey::obs
