/**
 * @file
 * Run report exporter: serializes a finished RunResult — end-of-run
 * scalars, per-stage accounting with batch-latency percentiles,
 * fault/recovery counters, and the sampled time-series — to JSON,
 * plus a CSV form of the time-series for spreadsheet/plot tooling.
 */

#ifndef VP_OBS_REPORT_HH
#define VP_OBS_REPORT_HH

#include <iosfwd>

namespace vp {

struct RunResult;
struct ObsData;

/**
 * Write @p r as a self-contained JSON report. When the run carried
 * an ObsData bundle (r.obs), per-stage latency histograms
 * (count/mean/stddev/min/max/p50/p95/p99), registry metrics, trace
 * summary, and sampled time-series are included inline. With
 * @p engineCounters the report also carries the simulator-side
 * counters that describe host work rather than the modeled device
 * (`elided_polls`); without it the document is the one earlier
 * builds wrote, byte for byte.
 */
void writeReportJson(std::ostream& os, const RunResult& r,
                     bool engineCounters = false);

/**
 * Write the sampled time-series of @p obs as CSV: one `t` column of
 * simulated cycles, one column per series. Series are sampled on a
 * shared clock, so the time columns coincide.
 */
void writeTimeSeriesCsv(std::ostream& os, const ObsData& obs);

} // namespace vp

#endif // VP_OBS_REPORT_HH
