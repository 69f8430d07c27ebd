#pragma once

/**
 * @file
 * In-memory span recorder for the traced benchmark run. A span is one
 * call into a layer: name, start, end, parent span and the job it
 * serves. Spans are appended under a mutex (engine workers record
 * from their own threads), kept in memory, and written out once the
 * run ends. A disabled tracer records nothing, so untraced runs pay
 * one branch per scope.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct Span
{
    std::string name;
    double start = 0.0;  ///< seconds since the tracer's epoch
    double end = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::int64_t job = -1;     ///< -1 = not tied to one job
    std::size_t thread = 0;    ///< std::hash of the recording thread
};

class Tracer
{
  public:
    explicit Tracer(bool on)
        : on_(on), epoch_(std::chrono::steady_clock::now())
    {
    }

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool on() const { return on_; }

    double
    now() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    std::uint64_t
    newId()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return ++nextId_;
    }

    void
    add(Span s)
    {
        s.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(std::move(s));
    }

    /** Every span recorded so far (call once the workers are joined). */
    const std::vector<Span> &spans() const { return spans_; }

    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.clear();
    }

    /** Total self time per span name, in seconds: each span's
     *  duration minus the union of its children's intervals. */
    std::map<std::string, double> selfSeconds() const;

    /** Write the spans as Chrome trace-event JSON (Perfetto opens
     *  it). @return false on an I/O error. */
    bool write(const std::string &path) const;

  private:
    bool on_;
    std::chrono::steady_clock::time_point epoch_;
    std::mutex mutex_;
    std::uint64_t nextId_ = 0;
    std::vector<Span> spans_;
};

/** RAII span: records [construction, destruction) when tracing is on. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name, std::uint64_t parent = 0,
          std::int64_t job = -1)
        : t_(t)
    {
        if (!t_.on())
            return;
        s_.name = name;
        s_.parent = parent;
        s_.job = job;
        s_.id = t_.newId();
        s_.start = t_.now();
    }

    ~Scope()
    {
        if (!t_.on())
            return;
        s_.end = t_.now();
        t_.add(std::move(s_));
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** This span's id, for children; 0 when tracing is off. */
    std::uint64_t id() const { return s_.id; }

  private:
    Tracer &t_;
    Span s_;
};

} // namespace perfbench
