// In-memory span recorder for the traced run. Spans are opened around calls
// into the platform's public functions, nest on one thread, and are written
// out (Chrome trace-event JSON) only when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into the span list, -1 = root
  int request = 0;
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  /// A disabled tracer records nothing and never reads the clock, so the
  /// same pipeline code runs traced and untraced.
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  class Scope {
   public:
    Scope(Tracer* t, const char* name, int request) : t_(t) {
      if (!t_->enabled_) return;
      index_ = static_cast<int>(t_->spans_.size());
      Span s;
      s.name = name;
      s.request = request;
      s.parent = t_->open_.empty() ? -1 : t_->open_.back();
      s.start_ns = t_->now_ns();
      t_->spans_.push_back(std::move(s));
      t_->open_.push_back(index_);
    }
    ~Scope() {
      if (index_ < 0) return;
      t_->spans_[static_cast<std::size_t>(index_)].end_ns = t_->now_ns();
      t_->open_.pop_back();
    }
    /// Rename the span once its outcome is known (e.g. hit or miss).
    void rename(const char* name) {
      if (index_ >= 0) t_->spans_[static_cast<std::size_t>(index_)].name = name;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int index_ = -1;
  };

  [[nodiscard]] Scope span(const char* name, int request) { return Scope(this, name, request); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name (ms): each span's duration minus the part its
  /// direct children cover, summed over all spans of that name.
  [[nodiscard]] std::map<std::string, double> self_ms() const { return self_ms_of(spans_); }

  [[nodiscard]] static std::map<std::string, double> self_ms_of(const std::vector<Span>& spans) {
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const std::int64_t self = spans[i].end_ns - spans[i].start_ns - child_ns[i];
      out[spans[i].name] += static_cast<double>(self) / 1e6;
    }
    return out;
  }

  /// Chrome trace-event JSON ("X" events; args carry request and parent).
  [[nodiscard]] bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%zu,\"parent\":%d,\"request\":%d}}%s\n",
                   s.name.c_str(), static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent, s.request,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
