#include "obs/trace.hpp"

#include "support/log.hpp"
#include "support/stopwatch.hpp"

namespace lisa::obs {

namespace {

/// Innermost live span ids of the current thread, for parent linkage.
thread_local std::vector<std::uint64_t> t_span_stack;

double now_us() {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   support::process_epoch())
      .count();
}

}  // namespace

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::vector<SpanRecord> Tracer::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::record(SpanRecord&& span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

support::Json Tracer::chrome_trace() const {
  support::JsonArray events;
  for (const SpanRecord& span : snapshot()) {
    support::JsonObject event;
    event["name"] = span.name;
    event["cat"] = "lisa";
    event["ph"] = "X";
    event["ts"] = span.start_us;
    event["dur"] = span.dur_us;
    event["pid"] = 1;
    event["tid"] = static_cast<std::int64_t>(span.tid);
    support::JsonObject args;
    args["span_id"] = static_cast<std::int64_t>(span.id);
    args["parent_id"] = static_cast<std::int64_t>(span.parent_id);
    for (const auto& [key, value] : span.attrs) args[key] = value;
    event["args"] = support::Json(std::move(args));
    events.emplace_back(std::move(event));
  }
  support::JsonObject root;
  root["traceEvents"] = support::Json(std::move(events));
  root["displayTimeUnit"] = "ms";
  return support::Json(std::move(root));
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name)
    : tracer_(&tracer), start_(std::chrono::steady_clock::now()) {
  if (!tracer.enabled()) return;
  record_ = std::make_unique<SpanRecord>();
  record_->id = tracer.next_id();
  record_->parent_id = t_span_stack.empty() ? 0 : t_span_stack.back();
  // Shared with the logger's [tN] prefix so traces and stderr correlate.
  record_->tid = support::this_thread_number();
  record_->name = name;
  record_->start_us = now_us();
  t_span_stack.push_back(record_->id);
}

ScopedSpan::~ScopedSpan() { close(); }

void ScopedSpan::close() {
  if (record_ == nullptr) return;
  record_->dur_us = now_us() - record_->start_us;
  t_span_stack.pop_back();
  tracer_->record(std::move(*record_));
  record_.reset();
}

void ScopedSpan::attr(const char* key, support::Json value) {
  if (record_ == nullptr) return;
  record_->attrs.emplace_back(key, std::move(value));
}

}  // namespace lisa::obs
