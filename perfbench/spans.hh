/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span wraps one call the benchmark makes into a layer of the
 * simulator (construction, warm-up, run call, verify/reset, tuning
 * session, serving run). Spans nest on one thread; the recorder keeps
 * them in memory and writes them out once, at exit, with a per-layer
 * self-time table. A disabled recorder records nothing and costs one
 * branch per span.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace pb {

/** One recorded interval. Times are seconds since the recorder
 *  was created. */
struct Span
{
    std::string layer;
    std::string name;
    double start = 0.0;
    double end = 0.0;
    /** Index of the enclosing span, -1 at top level. */
    int parent = -1;
    /** Operation the span belongs to (0 = set-up, not an op). */
    std::uint64_t op = 0;
};

/** Per-layer totals: time inside the layer's spans minus the part
 *  their child spans cover. */
struct LayerTime
{
    double selfSeconds = 0.0;
    double totalSeconds = 0.0;
    std::uint64_t spans = 0;
};

class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled);

    /** Switch recording on or off between (not inside) spans. */
    void setEnabled(bool on);

    /** Open a span under the innermost open one; -1 when disabled. */
    int begin(const std::string& layer, const std::string& name,
              std::uint64_t op);

    /** Close span @p id (a value begin() returned). */
    void end(int id);

    const std::vector<Span>& spans() const { return spans_; }

    /** Self and total time per layer over all closed spans. */
    std::map<std::string, LayerTime> layerTimes() const;

    /** Write every span as JSON, followed by the layer table. */
    void writeJson(std::ostream& os) const;

  private:
    double now() const;

    bool enabled_;
    std::chrono::steady_clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span: open on construction, close on destruction. */
class SpanScope
{
  public:
    SpanScope(SpanRecorder& rec, const std::string& layer,
              const std::string& name, std::uint64_t op = 0)
        : rec_(rec), id_(rec.begin(layer, name, op))
    {
    }
    ~SpanScope() { rec_.end(id_); }

    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

  private:
    SpanRecorder& rec_;
    int id_;
};

} // namespace pb

#endif // PERFBENCH_SPANS_HH
