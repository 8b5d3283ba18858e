#include "obs/trace.hpp"

#include <utility>

namespace osprey::obs {

namespace {
// One slot per thread, shared by all recorders in the process: the
// platform owns a single recorder, and guards are strictly nested, so
// a per-recorder map would buy nothing but lookups on the hot path.
thread_local SpanId t_current_span = kNoSpan;
}  // namespace

const char* category_name(Category category) {
  switch (category) {
    case Category::kTransfer: return "transfer";
    case Category::kCompute:  return "compute";
    case Category::kFlow:     return "flow";
    case Category::kAero:     return "aero";
    case Category::kEmews:    return "emews";
    case Category::kGsa:      return "gsa";
    case Category::kServe:    return "serve";
    case Category::kOther:    return "other";
  }
  return "other";
}

Category category_from_name(const std::string& name) {
  for (int i = 0; i < kNumCategories; ++i) {
    const auto c = static_cast<Category>(i);
    if (name == category_name(c)) return c;
  }
  return Category::kOther;
}

SpanId current_span() { return t_current_span; }

SpanId TraceRecorder::begin_span(Category category, std::string name,
                                 std::uint64_t begin_ns, SpanId parent,
                                 std::string detail) {
  if (!enabled()) return kNoSpan;
  if (parent == kInheritParent) parent = t_current_span;
  const osprey::util::Clock* wall = wall_.load(std::memory_order_acquire);
  SpanRecord rec;
  rec.parent = parent;
  rec.category = category;
  rec.name = std::move(name);
  rec.begin_ns = begin_ns;
  rec.end_ns = begin_ns;
  rec.open = true;
  rec.detail = std::move(detail);
  if (wall != nullptr) rec.wall_begin_ns = wall->now_ns();
  osprey::util::MutexLock lock(mutex_);
  rec.shard = shard_label_;
  rec.id = static_cast<SpanId>(spans_.size()) + 1;
  spans_.push_back(std::move(rec));
  ++open_;
  return spans_.back().id;
}

void TraceRecorder::set_shard_label(std::string label) {
  osprey::util::MutexLock lock(mutex_);
  shard_label_ = std::move(label);
}

void TraceRecorder::end_span(SpanId id, std::uint64_t end_ns, bool ok,
                             const std::string& error) {
  if (id == kNoSpan) return;
  const osprey::util::Clock* wall = wall_.load(std::memory_order_acquire);
  osprey::util::MutexLock lock(mutex_);
  if (id > spans_.size()) return;
  SpanRecord& rec = spans_[id - 1];
  if (!rec.open) return;
  rec.open = false;
  rec.ok = ok;
  rec.end_ns = end_ns;
  if (!error.empty()) rec.detail = error;
  if (wall != nullptr) rec.wall_end_ns = wall->now_ns();
  --open_;
}

SpanId TraceRecorder::instant(Category category, std::string name,
                              std::uint64_t at_ns, SpanId parent,
                              std::string detail) {
  if (!enabled()) return kNoSpan;
  if (parent == kInheritParent) parent = t_current_span;
  const osprey::util::Clock* wall = wall_.load(std::memory_order_acquire);
  SpanRecord rec;
  rec.parent = parent;
  rec.category = category;
  rec.name = std::move(name);
  rec.begin_ns = at_ns;
  rec.end_ns = at_ns;
  rec.instant = true;
  rec.detail = std::move(detail);
  if (wall != nullptr) {
    rec.wall_begin_ns = wall->now_ns();
    rec.wall_end_ns = rec.wall_begin_ns;
  }
  osprey::util::MutexLock lock(mutex_);
  rec.shard = shard_label_;
  rec.id = static_cast<SpanId>(spans_.size()) + 1;
  spans_.push_back(std::move(rec));
  return spans_.back().id;
}

std::vector<SpanRecord> TraceRecorder::snapshot() const {
  osprey::util::MutexLock lock(mutex_);
  return spans_;
}

std::size_t TraceRecorder::span_count() const {
  osprey::util::MutexLock lock(mutex_);
  return spans_.size();
}

std::size_t TraceRecorder::open_count() const {
  osprey::util::MutexLock lock(mutex_);
  return open_;
}

void TraceRecorder::clear() {
  osprey::util::MutexLock lock(mutex_);
  spans_.clear();
  open_ = 0;
}

CurrentSpanGuard::CurrentSpanGuard(SpanId span) : previous_(t_current_span) {
  t_current_span = span;
}

CurrentSpanGuard::~CurrentSpanGuard() { t_current_span = previous_; }

osprey::util::LogSink make_trace_log_sink(TraceRecorder& recorder,
                                          const osprey::util::Clock& clock) {
  return [&recorder, &clock](osprey::util::LogLevel level,
                             const std::string& component,
                             const std::string& message) {
    recorder.instant(Category::kOther, std::string("log:") + component,
                     clock.now_ns(), kInheritParent,
                     std::string(osprey::util::level_name(level)) + ": " +
                         message);
  };
}

}  // namespace osprey::obs
