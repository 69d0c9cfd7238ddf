// Output side of the benchmark driver: one JSON object per line on stdout
// (perfbench/run.py aggregates them), integer-nanosecond timestamps, and
// the outside-in span tracer.
//
// A span wraps one public call the driver makes into a library layer
// (api::make_runtime, IrregularRuntime::run, serve::Client::run, ...).
// Nothing inside the library is instrumented: a span sees only the call's
// wall time and the counters the call returns.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds as reported by the library (KernelResult::seconds etc.) to
/// integer nanoseconds, the unit every record carries.
inline std::int64_t to_ns(double seconds) {
  return static_cast<std::int64_t>(seconds * 1e9 + 0.5);
}

/// Builds one JSON-lines record: Rec("rep").i("setup_ns", 5).emit().
class Rec {
 public:
  explicit Rec(std::string_view type) { s("type", type); }

  Rec& i(std::string_view key, std::int64_t v) {
    return raw(key, std::to_string(v));
  }
  Rec& u(std::string_view key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Rec& d(std::string_view key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(key, buf);
  }
  Rec& b(std::string_view key, bool v) { return raw(key, v ? "true" : "false"); }
  Rec& s(std::string_view key, std::string_view v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    q += '"';
    return raw(key, q);
  }

  void emit() {
    body_ += "}\n";
    std::fputs(body_.c_str(), stdout);
    std::fflush(stdout);
  }

 private:
  Rec& raw(std::string_view key, std::string_view value) {
    body_ += body_.empty() ? "{\"" : ",\"";
    body_ += key;
    body_ += "\":";
    body_ += value;
    return *this;
  }

  std::string body_;
};

/// Outside-in tracer.  Disabled, a Scope costs one branch; enabled, it
/// records (name, start, end, parent, job) in memory.  write() emits the
/// spans when the run ends, so tracing adds no output inside a run.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::int64_t job)
        : t_(t.on_ ? &t : nullptr) {
      if (!t_) return;
      index_ = t_->spans_.size();
      t_->spans_.push_back(Span{name, static_cast<std::int64_t>(index_),
                                t_->open_.empty() ? -1 : t_->open_.back(),
                                job, now_ns(), 0});
      t_->open_.push_back(static_cast<std::int64_t>(index_));
    }
    ~Scope() {
      if (!t_) return;
      t_->spans_[index_].end_ns = now_ns();
      t_->open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    std::size_t index_ = 0;
  };

  /// Turns span recording on or off for the scopes opened from now on.
  void enable(bool on) { on_ = on; }
  std::int64_t spans() const {
    return static_cast<std::int64_t>(spans_.size());
  }

  Scope span(const char* name, std::int64_t job = -1) {
    return Scope(*this, name, job);
  }

  /// Emits one "span" record per recorded span.
  void write() const {
    for (const Span& s : spans_) {
      Rec("span")
          .i("id", s.id)
          .i("parent", s.parent)
          .s("name", s.name)
          .i("start_ns", s.start_ns)
          .i("end_ns", s.end_ns)
          .i("job", s.job)
          .emit();
    }
  }

 private:
  struct Span {
    const char* name;
    std::int64_t id, parent, job, start_ns, end_ns;
  };

  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

}  // namespace perfbench
