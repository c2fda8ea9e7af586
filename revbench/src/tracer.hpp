/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span covers one call from the benchmark into a layer: its name is
 * "<layer>.<operation>", it records start and end (seconds since the
 * tracer's epoch), the span that was open on the same thread when it
 * started (its parent), and a session id (verifier sessions; 0
 * elsewhere). Spans stay in memory until the run ends, when the
 * benchmark prints the per-layer self-time table and writes them out as
 * Chrome trace-event JSON.
 *
 * Tracing is off by default; a disabled Scope costs one relaxed load.
 */

#ifndef REVBENCH_TRACER_HPP
#define REVBENCH_TRACER_HPP

#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace revbench::trace
{

struct Span
{
    std::string name;
    double start = 0; ///< seconds since the tracer epoch
    double end = 0;
    rev::u32 id = 0;     ///< 1-based; 0 means "no span"
    rev::u32 parent = 0; ///< 0 = root
    rev::u64 session = 0;
};

void setEnabled(bool on);
bool enabled();

/** Seconds since the tracer epoch (process start of tracing). */
double now();

/**
 * Record a span whose interval the benchmark measured itself (e.g. a
 * verifier session from its due time to its verdict). Returns its id,
 * or 0 when tracing is off.
 */
rev::u32 record(const std::string &name, double start, double end,
                rev::u32 parent = 0, rev::u64 session = 0);

/** Innermost open Scope on this thread (0 = none). */
rev::u32 current();

/** RAII span around one call into a layer. */
class Scope
{
  public:
    explicit Scope(const char *name, rev::u64 session = 0);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    rev::u32 id() const { return id_; }

  private:
    const char *name_;
    rev::u64 session_;
    rev::u32 id_ = 0;
    rev::u32 parent_ = 0;
    double start_ = 0;
};

/** Every span recorded so far. */
std::vector<Span> spans();

/**
 * Self time per layer: each span's duration minus the part of its
 * interval covered by its children, summed by layer (the name prefix
 * before the first '.').
 */
std::map<std::string, double> selfTimeByLayer();

/** Write every span as Chrome trace-event JSON; false on I/O error. */
bool writeJson(const std::string &path);

} // namespace revbench::trace

#endif // REVBENCH_TRACER_HPP
