/**
 * @file
 * In-memory span log of the traced run.  The benchmark records a span
 * around every call it makes into a layer of the program; spans of one
 * serve job share a job id.  At the end the log is written as Chrome
 * trace_event JSON (the format of obs::writeTrace) and reduced to the
 * self time of each span name.  Not thread-safe: record from one
 * thread, or collect timings per thread and record them afterwards.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** @return a fresh id (job or span). */
    std::uint64_t newId() { return ++lastId_; }

    /**
     * Record a finished span [start, end) in seconds on the steady
     * clock.  @return its span id (0 when disabled).
     */
    std::uint64_t record(const std::string &name, double start, double end,
                         std::uint64_t job = 0, std::uint64_t parent = 0,
                         std::uint32_t tid = 0);

    /** Records a span over its own lifetime. */
    class Scope
    {
      public:
        Scope(SpanLog &log, std::string name, std::uint64_t parent = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log_;
        std::string name_;
        std::uint64_t parent_;
        double start_;
    };

    /** Write every span as Chrome trace JSON.  @return success. */
    bool writeChromeTrace(const std::string &path) const;

    /**
     * Self time of every span (its duration minus the part of it its
     * children cover), in milliseconds, grouped by span name.
     */
    std::map<std::string, std::vector<double>> selfTimesMs() const;

    std::size_t size() const { return spans_.size(); }

  private:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        std::uint64_t job = 0;
        std::uint64_t id = 0;
        std::uint64_t parent = 0;
        std::uint32_t tid = 0;
    };

    bool enabled_;
    std::uint64_t lastId_ = 0;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
