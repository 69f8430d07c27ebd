/**
 * @file
 * The repository benchmark driver: one process that builds its inputs
 * from a seed, drives the public entry points of sim::Engine,
 * sim::ResultStore, sim::Simulator, cpu::FunctionalRunner and the
 * profile analyses, checks every output, and prints its metrics as
 * one JSON object on the last line of stdout.
 *
 *   perfbench --workload {sweep_cold,sweep_warm,single_sim}
 *             --seed N --seconds S --trace {0,1}
 *             [--workdir DIR] [--reference FILE] [--trace-out FILE]
 *   perfbench --selftest [--seed N] [--reference FILE]
 *   perfbench --write-reference FILE
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 alternates
 * untraced and traced repetitions and reports the per-layer metrics
 * taken from the traced ones, plus both wall times (the tracing
 * overhead). perfbench/README.md describes each workload and metric.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "cpu/executor.h"
#include "grid.h"
#include "harness.h"
#include "profile/advisor.h"
#include "profile/redundancy.h"
#include "profile/reuse.h"
#include "sim/engine.h"
#include "sim/resultstore.h"
#include "sim/simulator.h"
#include "trace.h"
#include "workloads/workload.h"

using namespace dttsim;
using perfbench::Figure;
using perfbench::Scope;
using perfbench::Tracer;

namespace {

namespace fs = std::filesystem;

/** Outer iterations of the grid's programs. Host cost is linear in
 *  it; 2 keeps the grid's duplicate structure identical to the
 *  default settings (1131 submitted, 844 unique) at a tenth of their
 *  cost, so one cold repetition fits a run. */
constexpr int kIterations = 2;
/** Outer iterations of single_sim's programs: one pass over 15
 *  workloads x 2 scales x 6 machines x 3 analyses fits a run three
 *  times. */
constexpr int kSingleIterations = 1;
/** Single-simulation data scales: default and a 4x footprint. */
constexpr int kScales[] = {1, 4};
/** Engine workers of the sweeps. scripts/run_all_figures.sh passes
 *  --jobs=$(nproc); a constant keeps timings from following the host's
 *  core count. */
constexpr int kWorkers = 4;
/** The seed the committed reference records were taken at. */
constexpr std::uint64_t kReferenceSeed = 12345;
/** Set-up is timed for at least kSetupPasses passes and kSetupSeconds
 *  before the first repetition, then for kSetupRoundSeconds after
 *  each round of repetitions; setup_s is the median pass. */
constexpr std::size_t kSetupPasses = 3;
constexpr double kSetupSeconds = 0.5;
constexpr double kSetupRoundSeconds = 0.2;

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** The highest percentile with at least ten samples beyond it: the
 *  eleventh-largest sample (the largest when there are fewer). */
double
tail(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v.size() > 10 ? v[v.size() - 11] : v.back();
}

double
tailPercent(std::size_t n)
{
    return n > 10 ? 100.0 * static_cast<double>(n - 10)
            / static_cast<double>(n)
                  : 100.0;
}

double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

// ---------------------------------------------------------------------
// Host-speed calibration.

/** Steps of one calibration chunk, and the chunk time the end-to-end
 *  times are scaled to (about what a chunk takes on the 4-vCPU KVM
 *  Xeon host used for tuning). */
constexpr int kCalibrationSteps = 1 << 18;
constexpr double kCalibrationMs = 2.0;
/** Chunks of one measurement, between two single_sim programs or
 *  set-up passes. The first chunk after other work runs slower than
 *  the rest; a median over several reads the loop's steady speed. */
constexpr int kProgramChunks = 4;
/** How often the sampler runs a chunk beside the sweep's workers, and
 *  the chunk time of its smaller table that sweep times are scaled to
 *  (about what it takes on the tuning host). */
constexpr int kSamplerPeriodMs = 50;
constexpr double kSamplerMs = 0.75;

/**
 * A fixed loop of the benchmark's own, timed right next to the work
 * it measures. On a shared host the speed of any code moves by up to
 * 1.8x in phases that last minutes, as other tenants' load comes and
 * goes. Such a phase slows this loop and the work alike, while a change
 * to dttsim moves only the work; end-to-end times are therefore scaled
 * by kCalibrationMs over the loop's time next to them.
 *
 * The loop mimics the simulator's host profile: dependent integer
 * arithmetic, data-dependent branches and random reads and writes
 * over an 8 MiB table, beyond a core's 2 MiB L2, so that it also feels
 * other tenants' pressure on the shared cache and memory. Each chunk
 * first reads the whole table, untimed, so that what the measured work
 * left in the caches does not move the chunk's time.
 *
 * Run between single_sim's programs and between set-up passes, it
 * calibrates single-threaded work. Between the 4-worker sweep's
 * figures it tracked nothing (on one thread or on 4 at once, the loop
 * moved more than the figures next to it), so the sweep is calibrated
 * by a Sampler that runs beside the workers instead.
 */
class Calibration
{
  public:
    /** A table of @p words 32-bit words (a power of two). */
    explicit Calibration(std::size_t words = std::size_t{1} << 21)
        : table_(words)
    {
        for (std::size_t i = 0; i < table_.size(); ++i)
            table_[i] = static_cast<std::uint32_t>(i * 2654435761u);
    }

    /** @p chunks chunks; the median chunk, in ms. */
    double
    measure(int chunks)
    {
        std::vector<double> ms;
        for (int k = 0; k < chunks; ++k)
            ms.push_back(chunk());
        samples_.push_back(median(ms));
        return samples_.back();
    }

    /** Every measure() so far. */
    const std::vector<double> &samples() const { return samples_; }

    /** The table's resident size, in MiB. */
    double
    tableMb() const
    {
        return static_cast<double>(table_.size() * sizeof(table_[0]))
            / (1024.0 * 1024.0);
    }

  private:
    double
    chunk()
    {
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        std::uint32_t acc = 0;
        for (std::size_t i = 0; i < table_.size(); i += 16)
            acc += table_[i];
        const std::size_t mask = table_.size() - 1;
        const auto t0 = Clock::now();
        for (int i = 0; i < kCalibrationSteps; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            std::uint32_t &slot = table_[(x >> 40) & mask];
            if (slot & 1)
                acc += slot;
            else
                acc ^= slot >> 3;
            slot += static_cast<std::uint32_t>(x);
        }
        const double ms = since(t0) * 1e3;
        table_[0] ^= acc;  // keeps the loop's result live
        return ms;
    }

    std::vector<std::uint32_t> table_;
    std::vector<double> samples_;
};

/**
 * The calibration loop on a thread of its own, one chunk every
 * kSamplerPeriodMs while the sweep's workers run. A thread that sleeps
 * and wakes preempts a busy worker at once and runs its short chunk
 * through, so the chunk reads the speed of a core loaded as the
 * workers' are. Its 1 MiB table stays within the core's L2, so the
 * workers' own pressure on the shared cache, which a change to dttsim
 * may move, does not move the chunk.
 */
class Sampler
{
  public:
    Sampler() : cal_(std::size_t{1} << 18) {}

    void
    start()
    {
        stop_ = false;
        thread_ = std::thread([this] {
            std::unique_lock<std::mutex> lock(mutex_);
            while (!wake_.wait_for(lock,
                                   std::chrono::milliseconds(kSamplerPeriodMs),
                                   [this] { return stop_; })) {
                lock.unlock();
                cal_.measure(1);
                lock.lock();
            }
        });
    }

    /** Stop the thread; the median chunk since start(), in ms. */
    double
    stop()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        wake_.notify_all();
        thread_.join();
        const std::vector<double> &all = cal_.samples();
        std::vector<double> mine(all.begin() + static_cast<long>(seen_),
                                 all.end());
        seen_ = all.size();
        return median(mine);
    }

    double tableMb() const { return cal_.tableMb(); }

  private:
    Calibration cal_;
    std::thread thread_;
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stop_ = false;
    std::size_t seen_ = 0;
};

/**
 * Scale factors for @p n timed samples, where sample i ran between
 * calibration measurements @p cal[i] and @p cal[i+1]: kCalibrationMs
 * over their mean.
 */
std::vector<double>
calibrationScales(std::size_t n, const std::vector<double> &cal)
{
    std::vector<double> scales;
    for (std::size_t i = 0; i < n; ++i)
        scales.push_back(ratio(kCalibrationMs, 0.5 * (cal[i] + cal[i + 1])));
    return scales;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// ---------------------------------------------------------------------
// Output checks.

/** Counts operations attempted and failed; reports the first few
 *  failures on stderr. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    expect(bool ok, const std::string &what)
    {
        if (ok)
            return;
        if (++failed <= 20)
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         what.c_str());
    }
};

/** The program sizes reference records are valid for. */
std::string
iterationsTag()
{
    return "grid=" + std::to_string(kIterations)
        + " single=" + std::to_string(kSingleIterations);
}

/** The fields a reference record pins for one job. */
struct RefRecord
{
    std::uint64_t cycles = 0;
    std::uint64_t archDigest = 0;
    std::uint64_t mainCommitted = 0;
    std::uint64_t dttCommitted = 0;
    std::uint64_t dttSpawns = 0;

    static RefRecord
    of(const sim::SimResult &r)
    {
        return {r.cycles, r.archDigest, r.mainCommitted, r.dttCommitted,
                r.dttSpawns};
    }
    bool operator==(const RefRecord &) const = default;
};

/** Reference records keyed by job label (not by jobDigest, which a
 *  change to SimConfig's fields legitimately moves). */
class Reference
{
  public:
    void
    add(const std::string &label, const RefRecord &r)
    {
        records_[label] = r;
    }

    /** Load @p path; false when it is missing or unreadable. */
    bool
    load(const std::string &path)
    {
        std::ifstream in(path);
        if (!in)
            return false;
        std::stringstream ss;
        ss << in.rdbuf();
        std::optional<json::Value> doc = json::Value::tryParse(ss.str());
        if (!doc || !doc->isObject())
            return false;
        try {
            seed_ = doc->get("seed").asUint();
            iterations_ = doc->get("iterations").asString();
            for (const auto &[label, v] : doc->get("records").members()) {
                RefRecord r;
                r.cycles = v.get("cycles").asUint();
                r.archDigest = std::stoull(v.get("archDigest").asString(),
                                           nullptr, 16);
                r.mainCommitted = v.get("mainCommitted").asUint();
                r.dttCommitted = v.get("dttCommitted").asUint();
                r.dttSpawns = v.get("dttSpawns").asUint();
                records_[label] = r;
            }
        } catch (const std::exception &) {
            records_.clear();
            return false;
        }
        return true;
    }

    bool
    save(const std::string &path) const
    {
        // One record per line, so a changed record diffs as one line.
        std::ofstream out(path);
        out << "{\"seed\": " << kReferenceSeed << ", \"iterations\": "
            << json::Value(iterationsTag()).dump() << ", \"records\": {";
        const char *sep = "\n";
        for (const auto &[label, r] : records_) {
            json::Value v = json::Value::object();
            v.set("cycles", json::Value(r.cycles));
            v.set("archDigest", json::Value(hex(r.archDigest)));
            v.set("mainCommitted", json::Value(r.mainCommitted));
            v.set("dttCommitted", json::Value(r.dttCommitted));
            v.set("dttSpawns", json::Value(r.dttSpawns));
            out << sep << json::Value(label).dump() << ": " << v.dump();
            sep = ",\n";
        }
        out << "\n}}\n";
        return static_cast<bool>(out);
    }

    /**
     * The records that apply to a run at @p seed, or nullptr. At the
     * reference seed they must apply: a reference that is missing,
     * unreadable, or taken at other program sizes fails a check there
     * instead of switching the comparison off.
     */
    const Reference *
    at(Checks &c, std::uint64_t seed) const
    {
        if (seed != kReferenceSeed)
            return nullptr;
        const bool covers = !records_.empty() && seed_ == kReferenceSeed
            && iterations_ == iterationsTag();
        c.attempted += 1;
        c.expect(covers, "reference records are missing, unreadable or "
                         "were taken at other program sizes ("
                             + iterationsTag() + ")");
        return covers ? this : nullptr;
    }

    void
    check(Checks &c, const std::string &label,
          const sim::SimResult &r) const
    {
        auto it = records_.find(label);
        c.expect(it != records_.end(),
                 "no reference record for " + label);
        if (it != records_.end())
            c.expect(it->second == RefRecord::of(r),
                     "result differs from its reference record: "
                         + label);
    }

  private:
    std::uint64_t seed_ = 0;
    std::string iterations_;
    std::map<std::string, RefRecord> records_;
};

// ---------------------------------------------------------------------
// Per-layer observations of one traced repetition.

/** One simulation observed in a traced repetition. */
struct SimCall
{
    cpu::AccelKind kind = cpu::AccelKind::None;
    int scale = 1;
    bool corunner = false;
    bool shadow = false;
    sim::SimResult result;
    double constructSec = 0.0;
    double runSec = 0.0;
};

struct Layers
{
    std::mutex mutex;  ///< engine workers append calls concurrently
    std::vector<SimCall> calls;
    double functionalSec = 0.0;
    std::uint64_t functionalInsts = 0;
    double redundancySec = 0.0;
    double reuseSec = 0.0;
    double advisorSec = 0.0;
    double digestSec = 0.0;
    std::vector<double> lookupUs;
    std::vector<double> putUs;
};

/** Metric name -> (value, unit), printed in the listed order. */
using Metrics = std::map<std::string, std::pair<double, std::string>>;

const std::vector<std::pair<std::string, std::string>> &
endToEndMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"setup_s", "s"},         {"wall_s", "s"},
        {"sim_minst_per_s", "Minst/s"}, {"op_ms_p50", "ms"},
        {"op_ms_tail", "ms"},     {"peak_rss_mb", "MB"},
    };
    return m;
}

/** Span names whose self time the traced run reports. */
const std::vector<std::string> &
selfTimeSpans()
{
    static const std::vector<std::string> names = {
        "figure",        "store.open",  "engine.digest",
        "engine.run",    "sim.job",     "sim.construct",
        "sim.run",       "emit",        "store.close",
        "cpu.functional", "ooo",        "profile.redundancy",
        "profile.reuse", "profile.advisor",
    };
    return names;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m =
        [] {
            std::vector<std::pair<std::string, std::string>> v = {
                {"workloads.build_ms", "ms"},
                {"workloads.programs", "count"},
                {"engine.digest_ms", "ms"},
                {"engine.submitted", "count"},
                {"engine.executed", "count"},
                {"engine.dedup_hits", "count"},
                {"engine.cache_hits", "count"},
                {"engine.busy_frac", "ratio"},
                {"engine.queue_wait_ms_p50", "ms"},
                {"engine.tail_idle_ms", "ms"},
                {"store.load_ms", "ms"},
                {"store.lookup_us_p50", "us"},
                {"store.lookup_us_tail", "us"},
                {"store.records", "count"},
                {"store.bytes", "bytes"},
                {"store.segments", "count"},
                {"store.put_us_p50", "us"},
                {"store.put_us_tail", "us"},
                {"store.corrupt", "count"},
                {"sim.construct_ms", "ms"},
                {"sim.run_ms", "ms"},
                {"cpu.functional.minst_per_s", "Minst/s"},
                {"cpu.none.minst_per_s", "Minst/s"},
                {"cpu.dtt.minst_per_s", "Minst/s"},
                {"cpu.sp.minst_per_s", "Minst/s"},
                {"cpu.reuse.minst_per_s", "Minst/s"},
                {"cpu.corunner.minst_per_s", "Minst/s"},
                {"cpu.scale1.minst_per_s", "Minst/s"},
                {"cpu.scale4.minst_per_s", "Minst/s"},
                {"cpu.host_ns_per_cycle", "ns"},
                {"cpu.sim_cycles", "count"},
                {"cpu.committed_main", "count"},
                {"cpu.committed_dtt", "count"},
                {"cpu.ipc", "ratio"},
                {"cpu.mispredict_rate", "ratio"},
                {"mem.l1d_accesses", "count"},
                {"mem.accesses_per_inst", "ratio"},
                {"mem.l1d_miss_rate", "ratio"},
                {"mem.l1i_miss_rate", "ratio"},
                {"mem.l2_miss_rate", "ratio"},
                {"mem.dram_accesses", "count"},
                {"mem.scale4.accesses_per_inst", "ratio"},
                {"mem.scale4.l1d_miss_rate", "ratio"},
                {"mem.scale4.l2_miss_rate", "ratio"},
                {"accel.dtt.tstores", "count"},
                {"accel.dtt.silent_frac", "ratio"},
                {"accel.dtt.fired", "count"},
                {"accel.dtt.coalesced", "count"},
                {"accel.dtt.spawns", "count"},
                {"accel.dtt.dropped", "count"},
                {"accel.dtt.twait_stall_cycles", "count"},
                {"accel.sp.tokens", "count"},
                {"accel.reuse.reused_frac", "ratio"},
                {"accel.dtt.host_overhead", "ratio"},
                {"accel.sp.host_overhead", "ratio"},
                {"accel.reuse.host_overhead", "ratio"},
                {"profile.redundancy_ms", "ms"},
                {"profile.reuse_ms", "ms"},
                {"profile.advisor_ms", "ms"},
                {"profile.shadow.minst_per_s", "Minst/s"},
                {"profile.shadow_overhead", "ratio"},
                {"fault.injected", "count"},
                {"fault.divergences", "count"},
                {"emit.ms", "ms"},
                {"emit.bytes", "bytes"},
                {"trace.untraced_wall_s", "s"},
                {"trace.traced_wall_s", "s"},
                {"trace.overhead_s", "s"},
                {"trace.spans", "count"},
                {"op.samples", "count"},
                {"op.tail_pct", "%"},
                {"host.calibration_ms", "ms"},
            };
            for (const std::string &n : selfTimeSpans())
                v.emplace_back("self_ms." + n, "ms");
            return v;
        }();
    return m;
}

/** Simulated-count and host-rate metrics of one traced repetition's
 *  simulations (shared by the sweeps and single_sim). */
void
simLayerMetrics(const Layers &L, std::map<std::string, double> &m)
{
    struct Acc
    {
        std::uint64_t insts = 0;
        double sec = 0.0;
        double rate() const { return ratio(insts * 1e-6, sec); }
    };
    std::map<std::string, Acc> rate;
    std::uint64_t cycles = 0, mainC = 0, dttC = 0, branches = 0,
                  mispred = 0, l1d = 0, l1dMiss = 0, l1i = 0,
                  l1iMiss = 0, l2 = 0, l2Miss = 0, dram = 0;
    std::uint64_t s4Insts = 0, s4L1d = 0, s4L1dMiss = 0, s4L2 = 0,
                  s4L2Miss = 0;
    std::uint64_t tstores = 0, silent = 0, fired = 0, coalesced = 0,
                  spawns = 0, dropped = 0, twait = 0, tokens = 0,
                  reused = 0, reuseInsts = 0, injected = 0;
    double constructSec = 0.0, runSec = 0.0;
    for (const SimCall &c : L.calls) {
        const sim::SimResult &r = c.result;
        constructSec += c.constructSec;
        runSec += c.runSec;
        std::string kind = c.shadow ? "shadow"
            : c.corunner            ? "corunner"
                                    : cpu::accelKindName(c.kind);
        rate[kind].insts += r.totalCommitted;
        rate[kind].sec += c.runSec;
        Acc &s = rate["scale" + std::to_string(c.scale)];
        s.insts += r.totalCommitted;
        s.sec += c.runSec;
        if (c.shadow) {
            continue;  // same SimResult as its plain run: count once
        }
        cycles += r.cycles;
        mainC += r.mainCommitted;
        dttC += r.dttCommitted;
        branches += r.condBranches;
        mispred += r.condMispredicts;
        l1d += r.l1dAccesses;
        l1dMiss += r.l1dMisses;
        l1i += r.l1iAccesses;
        l1iMiss += r.l1iMisses;
        l2 += r.l2Accesses;
        l2Miss += r.l2Misses;
        dram += r.memAccesses;
        injected += r.faultsInjected;
        if (c.scale == 4) {
            s4Insts += r.totalCommitted;
            s4L1d += r.l1dAccesses;
            s4L1dMiss += r.l1dMisses;
            s4L2 += r.l2Accesses;
            s4L2Miss += r.l2Misses;
        }
        if (c.kind == cpu::AccelKind::Dtt) {
            tstores += r.tstores;
            silent += r.silentSuppressed;
            fired += r.fired;
            coalesced += r.coalesced;
            spawns += r.dttSpawns;
            dropped += r.dropped;
            twait += r.twaitStallCycles;
        } else if (c.kind == cpu::AccelKind::Sp) {
            tokens += r.tstores;
        } else if (c.kind == cpu::AccelKind::Reuse) {
            reused += r.reusedInsts;
            reuseInsts += r.totalCommitted;
        }
    }
    m["sim.construct_ms"] = constructSec * 1e3;
    m["sim.run_ms"] = runSec * 1e3;
    m["cpu.functional.minst_per_s"] =
        ratio(L.functionalInsts * 1e-6, L.functionalSec);
    for (const char *k : {"none", "dtt", "sp", "reuse", "corunner"})
        m[std::string("cpu.") + k + ".minst_per_s"] = rate[k].rate();
    m["cpu.scale1.minst_per_s"] = rate["scale1"].rate();
    m["cpu.scale4.minst_per_s"] = rate["scale4"].rate();
    m["cpu.host_ns_per_cycle"] = ratio(runSec * 1e9, double(cycles));
    m["cpu.sim_cycles"] = double(cycles);
    m["cpu.committed_main"] = double(mainC);
    m["cpu.committed_dtt"] = double(dttC);
    m["cpu.ipc"] = ratio(double(mainC + dttC), double(cycles));
    m["cpu.mispredict_rate"] = ratio(double(mispred), double(branches));
    m["mem.l1d_accesses"] = double(l1d);
    m["mem.accesses_per_inst"] = ratio(double(l1d), double(mainC + dttC));
    m["mem.l1d_miss_rate"] = ratio(double(l1dMiss), double(l1d));
    m["mem.l1i_miss_rate"] = ratio(double(l1iMiss), double(l1i));
    m["mem.l2_miss_rate"] = ratio(double(l2Miss), double(l2));
    m["mem.dram_accesses"] = double(dram);
    m["mem.scale4.accesses_per_inst"] = ratio(double(s4L1d), double(s4Insts));
    m["mem.scale4.l1d_miss_rate"] = ratio(double(s4L1dMiss), double(s4L1d));
    m["mem.scale4.l2_miss_rate"] = ratio(double(s4L2Miss), double(s4L2));
    m["accel.dtt.tstores"] = double(tstores);
    m["accel.dtt.silent_frac"] = ratio(double(silent), double(tstores));
    m["accel.dtt.fired"] = double(fired);
    m["accel.dtt.coalesced"] = double(coalesced);
    m["accel.dtt.spawns"] = double(spawns);
    m["accel.dtt.dropped"] = double(dropped);
    m["accel.dtt.twait_stall_cycles"] = double(twait);
    m["accel.sp.tokens"] = double(tokens);
    m["accel.reuse.reused_frac"] = ratio(double(reused), double(reuseInsts));
    for (const char *k : {"dtt", "sp", "reuse"})
        m[std::string("accel.") + k + ".host_overhead"] =
            ratio(rate["none"].rate(), rate[k].rate());
    m["profile.redundancy_ms"] = L.redundancySec * 1e3;
    m["profile.reuse_ms"] = L.reuseSec * 1e3;
    m["profile.advisor_ms"] = L.advisorSec * 1e3;
    m["profile.shadow.minst_per_s"] = rate["shadow"].rate();
    m["profile.shadow_overhead"] =
        ratio(rate["none"].rate(), rate["shadow"].rate());
    m["fault.injected"] = double(injected);
    m["engine.digest_ms"] = L.digestSec * 1e3;
    m["store.lookup_us_p50"] = median(L.lookupUs);
    m["store.lookup_us_tail"] = tail(L.lookupUs);
    m["store.put_us_p50"] = median(L.putUs);
    m["store.put_us_tail"] = tail(L.putUs);
}

/** Engine scheduling metrics from one repetition's spans. */
void
engineSpanMetrics(const Tracer &tr, int workers,
                  std::map<std::string, double> &m)
{
    std::map<std::uint64_t, std::vector<const perfbench::Span *>> jobs;
    for (const perfbench::Span &s : tr.spans())
        if (s.name == "sim.job")
            jobs[s.parent].push_back(&s);
    double busy = 0.0, capacity = 0.0, tailIdle = 0.0;
    std::vector<double> waits;
    for (const perfbench::Span &run : tr.spans()) {
        if (run.name != "engine.run")
            continue;
        capacity += workers * (run.end - run.start);
        auto it = jobs.find(run.id);
        if (it == jobs.end())
            continue;
        std::map<std::size_t, double> lastEnd;
        for (const perfbench::Span *j : it->second) {
            busy += j->end - j->start;
            waits.push_back((j->start - run.start) * 1e3);
            double &e = lastEnd[j->thread];
            e = std::max(e, j->end);
        }
        double firstIdle = run.start;
        if (static_cast<int>(lastEnd.size()) >= workers) {
            firstIdle = run.end;
            for (const auto &[t, e] : lastEnd)
                firstIdle = std::min(firstIdle, e);
        }
        tailIdle += run.end - firstIdle;
    }
    m["engine.busy_frac"] = ratio(busy, capacity);
    m["engine.queue_wait_ms_p50"] = median(waits);
    m["engine.tail_idle_ms"] = tailIdle * 1e3;
}

// ---------------------------------------------------------------------
// The evaluation sweep (sweep_cold, sweep_warm).

/** One repetition of the whole grid against the store at @p dir. */
struct SweepRep
{
    double wall = 0.0;  ///< sum of the figures' wall times
    std::vector<std::vector<sim::JobResult>> results;  ///< per figure
    std::vector<double> figureMs;
    std::vector<double> jobMs;  ///< executed jobs' JobResult::wallSeconds
    std::vector<std::uint64_t> executed;  ///< per figure
    std::uint64_t submitted = 0, executedTotal = 0, dedup = 0,
                  cacheHits = 0, corrupt = 0, emitBytes = 0,
                  deliveredInsts = 0;
    double loadSec = 0.0, emitSec = 0.0;
};

/**
 * Run every figure's batch in order, each through its own
 * bench::Harness, the front end every figure binary runs: flags
 * `--jobs=N --cache=rw --cache-dir=DIR --json=PATH`, as
 * scripts/run_all_figures.sh passes them. Each figure therefore opens
 * the shared store anew, runs one engine batch under the harness's
 * default supervision policy, and writes its --json document into
 * @p outDir. With @p layers set (traced repetitions only) the
 * Simulator call is wrapped to record spans and per-call host times.
 */
SweepRep
sweep(const std::vector<Figure> &grid, const std::string &dir,
      const std::string &outDir, int workers, Tracer &tr,
      Layers *layers)
{
    SweepRep rep;
    Scope root(tr, "sweep");
    std::int64_t jobBase = 0;
    for (const Figure &fig : grid) {
        // Harness::run takes its batch by value, as the figure
        // binaries hand it over; the copy is made before timing.
        std::vector<sim::SimJob> jobs = fig.jobs;
        const sim::SimJob *first = jobs.data();
        const std::string json = outDir + "/" + fig.name + ".json";
        const std::vector<std::string> args = {
            fig.name, "--jobs=" + std::to_string(workers), "--cache=rw",
            "--cache-dir=" + dir, "--json=" + json};
        std::vector<const char *> argv;
        for (const std::string &arg : args)
            argv.push_back(arg.c_str());

        Scope figSpan(tr, "figure", root.id());
        const auto f0 = Clock::now();
        std::optional<bench::Harness> h;
        {
            Scope s(tr, "store.open", figSpan.id());
            const auto l0 = Clock::now();
            h.emplace(static_cast<int>(argv.size()), argv.data(),
                      bench::HarnessSpec(fig.name, "perfbench sweep"));
            rep.loadSec += since(l0);
        }
        rep.corrupt += h->store()->corruptRecords();
        sim::Engine &engine = h->engine();
        std::vector<sim::JobResult> results;
        {
            Scope run(tr, "engine.run", figSpan.id());
            if (layers != nullptr) {
                const std::uint64_t parent = run.id();
                engine.setExecuteOverrideForTest(
                    [&tr, layers, first, jobBase, parent](
                        const sim::SimJob &job, int,
                        bool *cancelled) {
                        const std::int64_t id = jobBase + (&job - first);
                        Scope js(tr, "sim.job", parent, id);
                        SimCall call;
                        call.kind = job.config.accel;
                        call.corunner = !job.coRunnerEntries.empty();
                        std::unique_ptr<sim::Simulator> simulator;
                        {
                            Scope c(tr, "sim.construct", js.id(), id);
                            const auto c0 = Clock::now();
                            simulator = std::make_unique<sim::Simulator>(
                                job.config, job.program);
                            for (std::size_t i = 0;
                                 i < job.coRunnerEntries.size(); ++i)
                                simulator->core().startCoRunner(
                                    static_cast<CtxId>(i + 1),
                                    job.coRunnerEntries[i]);
                            call.constructSec = since(c0);
                        }
                        {
                            Scope r(tr, "sim.run", js.id(), id);
                            const auto r0 = Clock::now();
                            call.result = simulator->run(0.0, cancelled);
                            call.runSec = since(r0);
                        }
                        std::lock_guard<std::mutex> lock(layers->mutex);
                        layers->calls.push_back(call);
                        return call.result;
                    });
            }
            results = h->run(std::move(jobs));
        }
        rep.submitted += engine.submitted();
        rep.executedTotal += engine.executed();
        rep.executed.push_back(engine.executed());
        rep.cacheHits += engine.cacheHits();
        {
            Scope s(tr, "emit", figSpan.id());
            const auto e0 = Clock::now();
            h->finish();
            rep.emitSec += since(e0);
        }
        {
            Scope s(tr, "store.close", figSpan.id());
            h.reset();
        }
        const double sec = since(f0);
        rep.wall += sec;
        rep.figureMs.push_back(sec * 1e3);
        rep.emitBytes += fs::file_size(json);
        for (const sim::JobResult &jr : results) {
            if (jr.deduplicated) {
                ++rep.dedup;
                continue;
            }
            rep.deliveredInsts += jr.result.totalCommitted;
            if (!jr.cached)
                rep.jobMs.push_back(jr.wallSeconds * 1e3);
        }
        rep.results.push_back(std::move(results));
        jobBase += static_cast<std::int64_t>(fig.jobs.size());
    }
    return rep;
}

/** Functional reference archDigest of every distinct program in the
 *  grid, keyed by jobDigest under one fixed config. */
class FunctionalDigests
{
  public:
    std::uint64_t
    of(const isa::Program &prog)
    {
        sim::SimJob key;
        key.program = prog;
        const std::string d = sim::jobDigest(key);
        auto it = cache_.find(d);
        if (it != cache_.end())
            return it->second;
        cpu::FunctionalRunner fr(prog);
        fr.run();
        const std::uint64_t digest =
            sim::memoryDigest(fr.memory(), isa::kDataBase, prog.dataEnd());
        cache_.emplace(d, digest);
        return digest;
    }

  private:
    std::map<std::string, std::uint64_t> cache_;
};

/**
 * Check one repetition: every job ended Ok, each figure executed the
 * expected number of jobs (cold store only; exactly at the reference
 * seed, where the counts were measured, and at most that elsewhere,
 * since fig11's update-rate variants can coincide at other seeds),
 * every result equals @p first (the run's first repetition, or the
 * cold results a warm store was filled with), and the reference
 * records where they apply.
 */
void
checkSweep(Checks &c, const std::vector<Figure> &grid, const SweepRep &rep,
           const SweepRep *first, bool coldStore, std::uint64_t seed,
           const Reference *ref)
{
    for (std::size_t f = 0; f < grid.size(); ++f) {
        const Figure &fig = grid[f];
        const auto &res = rep.results[f];
        c.attempted += res.size();
        c.expect(res.size() == fig.jobs.size(),
                 fig.name + ": result count differs from submissions");
        if (coldStore)
            c.expect(seed == kReferenceSeed
                         ? rep.executed[f] == fig.expectExecuted
                         : rep.executed[f] <= fig.expectExecuted,
                     fig.name + ": executed " + std::to_string(rep.executed[f])
                         + " jobs, expected "
                         + std::to_string(fig.expectExecuted));
        else
            c.expect(rep.executed[f] == 0,
                     fig.name + ": a warm figure simulated a job");
        for (std::size_t j = 0; j < res.size() && j < fig.jobs.size(); ++j) {
            const std::string label = perfbench::jobLabel(fig, fig.jobs[j]);
            c.expect(res[j].status == sim::JobStatus::Ok,
                     label + ": status "
                         + sim::jobStatusName(res[j].status));
            if (first != nullptr)
                c.expect(res[j].result == first->results[f][j].result,
                         label + ": result differs between repetitions "
                                 "(or warm hit differs from cold)");
            if (ref != nullptr)
                ref->check(c, label, res[j].result);
        }
    }
}

/** Every job's archDigest against the functional reference of its
 *  program; a faulted job that differs is a fault divergence. */
std::uint64_t
checkArchitecture(Checks &c, const std::vector<Figure> &grid,
                  const SweepRep &rep)
{
    FunctionalDigests ref;
    std::uint64_t divergences = 0;
    for (std::size_t f = 0; f < grid.size(); ++f) {
        for (std::size_t j = 0; j < grid[f].jobs.size(); ++j) {
            const sim::SimJob &job = grid[f].jobs[j];
            const bool same = rep.results[f][j].result.archDigest
                == ref.of(job.program);
            if (!same && job.config.fault.siteMask != 0)
                ++divergences;
            c.expect(same, perfbench::jobLabel(grid[f], job)
                               + ": final memory differs from the "
                                 "functional reference");
        }
    }
    return divergences;
}

// ---------------------------------------------------------------------
// single_sim: one thread, no engine, no store.

struct ProgramPair
{
    std::string workload;
    int scale = 1;
    isa::Program base;
    isa::Program dtt;
};

std::vector<ProgramPair>
buildPrograms(std::uint64_t seed)
{
    std::vector<ProgramPair> out;
    for (int scale : kScales) {
        for (const workloads::Workload *w : workloads::allWorkloads()) {
            workloads::WorkloadParams p;
            p.seed = seed;
            p.iterations = kSingleIterations;
            p.scale = scale;
            out.push_back({w->info().name, scale,
                           w->build(workloads::Variant::Baseline, p),
                           w->build(workloads::Variant::Dtt, p)});
        }
    }
    return out;
}

/** Machines each program pair runs on, in order. */
struct Machine
{
    const char *name;
    cpu::AccelKind kind;
    bool dttProgram;
    bool shadow;
};

constexpr Machine kMachines[] = {
    {"none", cpu::AccelKind::None, false, false},
    {"dtt", cpu::AccelKind::Dtt, true, false},
    {"sp", cpu::AccelKind::Sp, true, false},
    {"reuse", cpu::AccelKind::Reuse, false, false},
    {"none+shadow", cpu::AccelKind::None, false, true},
};

struct SinglePass
{
    double wall = 0.0;  ///< sum of the operations' times
    /** Per program: its operations' times, in ms. */
    std::vector<std::vector<double>> opMs;
    /** Calibration measurements before the first program and after
     *  each. */
    std::vector<double> calMs;
    std::uint64_t insts = 0;
    /** Per label: the simulation's result (reference/determinism). */
    std::map<std::string, sim::SimResult> results;
};

/** One pass over @p programs. With @p cal set (untraced passes only),
 *  the calibration is measured before the first program and after
 *  each, outside the operations' times. */
SinglePass
singlePass(const std::vector<ProgramPair> &programs, Checks &c, Tracer &tr,
           Layers &layers, Calibration *cal)
{
    SinglePass pass;
    auto opDone = [&](double ms) {
        pass.opMs.back().push_back(ms);
        pass.wall += ms * 1e-3;
    };
    if (cal != nullptr)
        pass.calMs.push_back(cal->measure(kProgramChunks));
    Scope root(tr, "single");
    std::int64_t id = 0;
    for (const ProgramPair &pp : programs) {
        pass.opMs.emplace_back();
        const std::string prefix = "single_sim/scale" + std::to_string(pp.scale)
            + "/" + pp.workload + "/";
        std::uint64_t refChecksum = 0, refDigest = 0;
        {
            Scope s(tr, "cpu.functional", root.id(), id++);
            const auto f0 = Clock::now();
            cpu::FunctionalRunner fr(pp.base);
            cpu::FuncRunResult fres = fr.run();
            refChecksum = workloads::resultChecksum(pp.base, fr.memory());
            refDigest = sim::memoryDigest(fr.memory(), isa::kDataBase,
                                          pp.base.dataEnd());
            const double sec = since(f0);
            opDone(sec * 1e3);
            const std::uint64_t insts =
                fres.mainInstructions + fres.dttInstructions;
            pass.insts += insts;
            c.attempted += 1;
            c.expect(fres.halted, prefix + "functional: did not halt");
            layers.functionalSec += sec;
            layers.functionalInsts += insts;
        }
        const sim::SimResult *plain = nullptr;
        for (const Machine &m : kMachines) {
            const isa::Program &prog = m.dttProgram ? pp.dtt : pp.base;
            sim::SimConfig cfg = bench::Harness::machineConfig(m.kind);
            cfg.shadowProfile = m.shadow;
            Scope s(tr, "ooo", root.id(), id);
            const auto o0 = Clock::now();
            SimCall call;
            call.kind = m.kind;
            call.scale = pp.scale;
            call.shadow = m.shadow;
            std::optional<sim::Simulator> simulator;
            {
                Scope cs(tr, "sim.construct", s.id(), id);
                simulator.emplace(cfg, prog);
                call.constructSec = since(o0);
            }
            {
                Scope rs(tr, "sim.run", s.id(), id);
                const auto r0 = Clock::now();
                call.result = simulator->run();
                if (m.shadow)
                    (void)simulator->shadowReport();
                call.runSec = since(r0);
            }
            const std::uint64_t checksum =
                workloads::resultChecksum(prog, simulator->core().memory());
            simulator.reset();
            opDone(since(o0) * 1e3);
            ++id;

            const std::string label = prefix + m.name;
            const sim::SimResult &r = call.result;
            c.attempted += 1;
            c.expect(r.halted && !r.hitMaxCycles,
                     label + ": did not halt cleanly");
            c.expect(checksum == refChecksum,
                     label + ": result checksum differs from the "
                             "functional reference");
            if (!m.dttProgram)
                c.expect(r.archDigest == refDigest,
                         label + ": final memory differs from the "
                                 "functional reference");
            if (!m.shadow)
                pass.insts += r.totalCommitted;
            pass.results[label] = r;
            if (m.kind == cpu::AccelKind::None && !m.shadow)
                plain = &pass.results[label];
            if (m.shadow && plain != nullptr)
                c.expect(r == *plain, label + ": shadow profiling changed "
                                              "the SimResult");
            layers.calls.push_back(call);
        }
        auto timed = [&](const char *name, double &acc, auto fn) {
            Scope s(tr, name, root.id(), id++);
            const auto p0 = Clock::now();
            fn();
            const double sec = since(p0);
            opDone(sec * 1e3);
            acc += sec;
        };
        profile::RedundancyReport red;
        profile::ReuseReport reu;
        std::vector<profile::TriggerCandidate> adv;
        timed("profile.redundancy", layers.redundancySec,
              [&] { red = profile::profileRedundancy(pp.base); });
        timed("profile.reuse", layers.reuseSec,
              [&] { reu = profile::profileReuse(pp.base); });
        timed("profile.advisor", layers.advisorSec,
              [&] { adv = profile::adviseTriggers(pp.base); });
        c.attempted += 3;
        c.expect(red.instructions > 0 && red.loads > 0,
                 prefix + "profileRedundancy: empty report");
        c.expect(reu.instructions > 0,
                 prefix + "profileReuse: empty report");
        c.expect(adv.size() <= 10, prefix + "adviseTriggers: too many");
        if (cal != nullptr)
            pass.calMs.push_back(cal->measure(kProgramChunks));
    }
    return pass;
}

void
checkSingle(Checks &c, const SinglePass &pass, const SinglePass *first,
            const Reference *ref)
{
    for (const auto &[label, r] : pass.results) {
        if (first != nullptr) {
            auto it = first->results.find(label);
            c.expect(it != first->results.end() && it->second == r,
                     label + ": result differs between repetitions");
        }
        if (ref != nullptr)
            ref->check(c, label, r);
    }
}

// ---------------------------------------------------------------------
// Driver.

struct Args
{
    std::string workload;
    std::uint64_t seed = kReferenceSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir = ".bench_build/work";
    std::string reference = "perfbench/reference.json";
    std::string traceOut;
    std::string writeReference;
    bool selftest = false;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "{sweep_cold,sweep_warm,single_sim} --seed N --seconds S "
                 "--trace {0,1} [--workdir DIR] "
                 "[--reference FILE] [--trace-out FILE]\n"
                 "       perfbench --selftest [--seed N]\n"
                 "       perfbench --write-reference FILE\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + k).c_str());
            return argv[++i];
        };
        try {
            if (k == "--workload")
                a.workload = value();
            else if (k == "--seed")
                a.seed = std::stoull(value());
            else if (k == "--seconds")
                a.seconds = std::stod(value());
            else if (k == "--trace")
                a.trace = std::stoi(value()) != 0;
            else if (k == "--workdir")
                a.workdir = value();
            else if (k == "--reference")
                a.reference = value();
            else if (k == "--trace-out")
                a.traceOut = value();
            else if (k == "--write-reference")
                a.writeReference = value();
            else if (k == "--selftest")
                a.selftest = true;
            else
                usage(("unknown argument " + k).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + k).c_str());
        }
    }
    if (a.seconds <= 0)
        usage("--seconds must be positive");
    return a;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
printSeries(const char *what, const std::vector<double> &v)
{
    std::printf("%s (%zu):", what, v.size());
    for (double x : v)
        std::printf(" %.4g", x);
    std::printf("\n");
}

/** A run's timing samples: untraced ones both as measured and scaled
 *  by the calibration next to them, traced ones as measured. */
struct Samples
{
    std::vector<double> setups, rawSetups;
    std::vector<double> walls, rawWalls, tracedWalls;
    std::vector<double> opMs;   ///< scaled
    std::vector<double> rates;  ///< per repetition, of the scaled wall
    /** The calibration tables, which peak_rss_mb leaves out. */
    double calibrationMb = 0.0;
};

void
printResult(const Checks &c, const Metrics &metrics, const Samples &s,
            const Calibration &cal)
{
    printSeries("set-up passes, s (as measured)", s.rawSetups);
    printSeries("repetitions, wall s (as measured)", s.rawWalls);
    printSeries("repetitions, wall s (as reported)", s.walls);
    std::printf("calibration: median chunk %.4f ms over %zu measurements "
                "(the 8 MiB loop)\n",
                median(cal.samples()), cal.samples().size());
    std::printf("method: compiler=%s build_type=%s iterations=%d/%d "
                "checks=%llu failed=%llu\n",
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, kIterations,
                kSingleIterations,
                static_cast<unsigned long long>(c.attempted),
                static_cast<unsigned long long>(c.failed));
    for (const auto &[name, vu] : metrics)
        std::printf("%-32s %16.6f %s\n", name.c_str(), vu.first,
                    vu.second.c_str());
    json::Value m = json::Value::object();
    for (const auto &[name, vu] : metrics) {
        json::Value v = json::Value::object();
        v.set("value", json::Value(vu.first));
        v.set("unit", json::Value(vu.second));
        m.set(name, std::move(v));
    }
    json::Value out = json::Value::object();
    out.set("correct", json::Value(c.failed == 0));
    out.set("attempted", json::Value(std::max<std::uint64_t>(c.attempted, 1)));
    out.set("failed", json::Value(c.failed));
    out.set("metrics", std::move(m));
    std::printf("%s\n", out.dump().c_str());
    std::fflush(stdout);
}

/**
 * Print the run's result: the end-to-end metrics, or with tracing the
 * per-layer ones from @p layer plus the tracing overhead (and write
 * the spans to --trace-out).
 */
void
finishRun(const Args &a, const Checks &checks, const Tracer &on,
          const Samples &s, const Calibration &cal,
          std::map<std::string, double> layer)
{
    Metrics metrics;
    if (!a.trace) {
        const std::map<std::string, double> values = {
            {"setup_s", median(s.setups)},
            {"wall_s", median(s.walls)},
            {"sim_minst_per_s", median(s.rates)},
            {"op_ms_p50", median(s.opMs)},
            {"op_ms_tail", tail(s.opMs)},
            {"peak_rss_mb", peakRssMb() - s.calibrationMb},
        };
        for (const auto &[name, unit] : endToEndMetrics())
            metrics[name] = {values.at(name), unit};
    } else {
        layer["workloads.build_ms"] = median(s.rawSetups) * 1e3;
        layer["trace.untraced_wall_s"] = median(s.rawWalls);
        layer["trace.traced_wall_s"] = median(s.tracedWalls);
        layer["trace.overhead_s"] =
            median(s.tracedWalls) - median(s.rawWalls);
        layer["op.samples"] = double(s.opMs.size());
        layer["op.tail_pct"] = tailPercent(s.opMs.size());
        layer["host.calibration_ms"] = median(cal.samples());
        for (const auto &[name, unit] : perLayerMetrics())
            metrics[name] = {layer.count(name) ? layer[name] : 0.0, unit};
        if (!a.traceOut.empty() && !on.write(a.traceOut))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         a.traceOut.c_str());
    }
    printResult(checks, metrics, s, cal);
}

/** Time @p setup into @p s: at least @p min passes, and for at least
 *  @p seconds, with a calibration measurement before the first pass and
 *  after each. */
template <typename Setup>
void
timeSetup(Setup setup, Calibration &cal, Samples &s, std::size_t min,
          double seconds)
{
    std::vector<double> raw, calMs = {cal.measure(kProgramChunks)};
    const auto t0 = Clock::now();
    for (std::size_t n = 0; n < min || since(t0) < seconds; ++n) {
        const auto s0 = Clock::now();
        setup();
        raw.push_back(since(s0));
        calMs.push_back(cal.measure(kProgramChunks));
    }
    const std::vector<double> scale =
        calibrationScales(raw.size(), calMs);
    for (std::size_t i = 0; i < raw.size(); ++i) {
        s.rawSetups.push_back(raw[i]);
        s.setups.push_back(raw[i] * scale[i]);
    }
}

/**
 * Repeat @p rep (untraced, or alternating untraced and traced) for
 * @p seconds: a round starts only while another round as long as the
 * last one still ends within them (the first always runs). After each
 * round @p setup is timed again, outside the repetitions, so that
 * setup_s samples the same stretch of host time as wall_s: on a shared
 * host, set-up timed only at the start of a run reads whatever load
 * the host had in that half second.
 */
template <typename Rep, typename Setup>
void
repeatFor(double seconds, bool traced, Rep rep, Setup setup,
          Calibration &cal, Samples &s)
{
    const auto t0 = Clock::now();
    double round = 0.0;
    do {
        const auto r0 = Clock::now();
        rep(false);
        if (traced)
            rep(true);
        timeSetup(setup, cal, s, 1, kSetupRoundSeconds);
        round = since(r0);
    } while (since(t0) + round <= seconds);
}

int
runSweep(const Args &a, const Reference &refs, bool warm)
{
    Checks checks;
    workloads::WorkloadParams params;
    params.seed = a.seed;
    params.iterations = kIterations;

    std::vector<Figure> grid;
    auto setup = [&] {
        grid.clear();
        grid = perfbench::buildGrid(params);
    };
    Calibration cal;
    Samples samples;
    timeSetup(setup, cal, samples, kSetupPasses, kSetupSeconds);
    std::uint64_t programs = 0;
    for (const Figure &f : grid)
        programs += f.jobs.size();

    const fs::path work = fs::path(a.workdir);
    fs::remove_all(work);
    fs::create_directories(work / "out");
    const Reference *ref = refs.at(checks, a.seed);

    // sweep_warm: fill the store once, outside the timed region.
    // sweep_cold keeps its first repetition's store for the warm check.
    const std::string warmDir = (work / "warm-store").string();
    const std::string firstColdDir = (work / "cold-0").string();
    Tracer off(false), on(true);
    std::optional<SweepRep> filled;
    if (warm) {
        filled = sweep(grid, warmDir, (work / "out").string(), kWorkers,
                       off, nullptr);
        checkSweep(checks, grid, *filled, nullptr, true, a.seed, ref);
    }

    std::optional<SweepRep> first;
    std::map<std::string, double> layer;
    int repNo = 0;
    Sampler sampler;
    repeatFor(a.seconds, a.trace, [&](bool traced) {
        const std::string dir = warm ? warmDir
            : (work / ("cold-" + std::to_string(repNo++))).string();
        Layers layers;
        if (traced)
            on.clear();
        if (!traced)
            sampler.start();
        SweepRep rep = sweep(grid, dir, (work / "out").string(), kWorkers,
                             traced ? on : off, traced ? &layers : nullptr);
        const double chunkMs = traced ? 0.0 : sampler.stop();
        checkSweep(checks, grid, rep,
                   warm ? &*filled : first ? &*first : nullptr, !warm, a.seed,
                   warm || first ? nullptr : ref);
        checks.expect(rep.corrupt == 0, "the store reported corrupt records");
        if (traced) {
            samples.tracedWalls.push_back(rep.wall);
            // Benchmark-side probes, run after the timed figures so
            // they add nothing to the traced wall time: jobDigest of
            // every submitted job, a lookup of every record, then a put
            // of every record into a fresh store (cold only).
            std::set<std::string> digests;
            {
                Scope s(on, "engine.digest");
                const auto d0 = Clock::now();
                for (const Figure &f : grid)
                    for (const sim::SimJob &j : f.jobs)
                        digests.insert(sim::jobDigest(j));
                layers.digestSec = since(d0);
            }
            sim::ResultStore store(dir, sim::ResultStore::Mode::ReadOnly);
            std::vector<sim::ResultStore::Record> records;
            for (const std::string &d : digests) {
                const auto l0 = Clock::now();
                std::optional<sim::ResultStore::Record> r = store.lookup(d);
                layers.lookupUs.push_back(since(l0) * 1e6);
                checks.expect(r.has_value(), "store lookup missed " + d);
                if (r)
                    records.push_back(*r);
            }
            if (!warm) {
                const std::string probe = (work / "put-probe").string();
                fs::remove_all(probe);
                sim::ResultStore ps(probe, sim::ResultStore::Mode::ReadWrite);
                for (const sim::ResultStore::Record &r : records) {
                    const auto p0 = Clock::now();
                    ps.put(r);
                    layers.putUs.push_back(since(p0) * 1e6);
                }
            }
            layer.clear();
            layer["store.records"] = double(store.records());
            layer["store.bytes"] = double(store.recordBytes());
            layer["store.segments"] = double(store.segmentCount());
            layer["store.load_ms"] = rep.loadSec * 1e3;
            layer["store.corrupt"] = double(rep.corrupt);
            layer["emit.ms"] = rep.emitSec * 1e3;
            layer["emit.bytes"] = double(rep.emitBytes);
            layer["engine.submitted"] = double(rep.submitted);
            layer["engine.executed"] = double(rep.executedTotal);
            layer["engine.dedup_hits"] = double(rep.dedup);
            layer["engine.cache_hits"] = double(rep.cacheHits);
            simLayerMetrics(layers, layer);
            engineSpanMetrics(on, kWorkers, layer);
            layer["trace.spans"] = double(on.spans().size());
            for (const auto &[name, sec] : on.selfSeconds())
                layer["self_ms." + name] = sec * 1e3;
        } else {
            const double scale = ratio(kSamplerMs, chunkMs);
            const std::vector<double> &ops = warm ? rep.figureMs : rep.jobMs;
            for (double ms : ops)
                samples.opMs.push_back(ms * scale);
            samples.rawWalls.push_back(rep.wall);
            samples.walls.push_back(rep.wall * scale);
            samples.rates.push_back(
                ratio(rep.deliveredInsts * 1e-6, rep.wall * scale));
            if (!first)
                first = std::move(rep);
        }
        if (!warm && dir != firstColdDir)
            fs::remove_all(dir);
    }, setup, cal, samples);
    samples.calibrationMb = cal.tableMb() + sampler.tableMb();

    // sweep_cold: re-run the grid against the first repetition's store,
    // untimed; every warm hit must equal the cold result.
    if (!warm) {
        SweepRep hits = sweep(grid, firstColdDir, (work / "out").string(),
                              kWorkers, off, nullptr);
        checkSweep(checks, grid, hits, &*first, false, a.seed, nullptr);
        checks.expect(hits.corrupt == 0, "the store reported corrupt records");
    }

    // Architectural check against the functional reference, untimed.
    std::uint64_t divergences = checkArchitecture(checks, grid, *first);
    checks.expect(divergences == 0, "fault injection changed final memory");

    layer["workloads.programs"] = double(programs);
    layer["fault.divergences"] = double(divergences);
    fs::remove_all(work);
    finishRun(a, checks, on, samples, cal, std::move(layer));
    return 0;
}

int
runSingle(const Args &a, const Reference &refs)
{
    Checks checks;
    std::vector<ProgramPair> programs;
    auto setup = [&] {
        programs.clear();
        programs = buildPrograms(a.seed);
    };
    Calibration cal;
    Samples samples;
    timeSetup(setup, cal, samples, kSetupPasses, kSetupSeconds);
    const Reference *ref = refs.at(checks, a.seed);

    Tracer off(false), on(true);
    std::optional<SinglePass> first;
    std::map<std::string, double> layer;
    repeatFor(a.seconds, a.trace, [&](bool traced) {
        Layers layers;
        if (traced)
            on.clear();
        SinglePass pass = singlePass(programs, checks, traced ? on : off,
                                     layers, traced ? nullptr : &cal);
        checkSingle(checks, pass, first ? &*first : nullptr,
                    first ? nullptr : ref);
        if (traced) {
            samples.tracedWalls.push_back(pass.wall);
            layer.clear();
            simLayerMetrics(layers, layer);
            layer["trace.spans"] = double(on.spans().size());
            for (const auto &[name, sec] : on.selfSeconds())
                layer["self_ms." + name] = sec * 1e3;
        } else {
            const std::vector<double> scale =
                calibrationScales(pass.opMs.size(), pass.calMs);
            double wall = 0.0;
            for (std::size_t i = 0; i < scale.size(); ++i)
                for (double ms : pass.opMs[i]) {
                    samples.opMs.push_back(ms * scale[i]);
                    wall += ms * 1e-3 * scale[i];
                }
            samples.rawWalls.push_back(pass.wall);
            samples.walls.push_back(wall);
            samples.rates.push_back(ratio(pass.insts * 1e-6, wall));
            if (!first)
                first = std::move(pass);
        }
    }, setup, cal, samples);
    samples.calibrationMb = cal.tableMb();

    layer["workloads.programs"] = double(programs.size() * 2);
    finishRun(a, checks, on, samples, cal, std::move(layer));
    return 0;
}

/** Record every grid job and single_sim simulation at the reference
 *  seed. */
int
writeReference(const Args &a)
{
    workloads::WorkloadParams params;
    params.seed = kReferenceSeed;
    params.iterations = kIterations;
    std::vector<Figure> grid = perfbench::buildGrid(params);
    const fs::path work = fs::path(a.workdir);
    fs::remove_all(work);
    fs::create_directories(work / "out");
    Tracer off(false);
    Checks checks;
    SweepRep rep = sweep(grid, (work / "store").string(),
                         (work / "out").string(), kWorkers, off, nullptr);
    checkSweep(checks, grid, rep, nullptr, true, kReferenceSeed, nullptr);
    checkArchitecture(checks, grid, rep);
    Layers layers;
    SinglePass pass = singlePass(buildPrograms(kReferenceSeed), checks, off,
                                 layers, nullptr);
    fs::remove_all(work);
    if (checks.failed != 0) {
        std::fprintf(stderr, "perfbench: not writing a reference from a "
                             "run that failed its checks\n");
        return 1;
    }
    Reference ref;
    for (std::size_t f = 0; f < grid.size(); ++f)
        for (std::size_t j = 0; j < grid[f].jobs.size(); ++j)
            ref.add(perfbench::jobLabel(grid[f], grid[f].jobs[j]),
                    RefRecord::of(rep.results[f][j].result));
    for (const auto &[label, r] : pass.results)
        ref.add(label, RefRecord::of(r));
    if (!ref.save(a.writeReference)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     a.writeReference.c_str());
        return 1;
    }
    std::printf("wrote %s\n", a.writeReference.c_str());
    return 0;
}

/** The determinism check: the cold grid at one worker and at
 *  kWorkers workers gives equal SimResults, and at the reference seed
 *  both match the reference records. */
int
selftest(const Args &a, const Reference &refs)
{
    workloads::WorkloadParams params;
    params.seed = a.seed;
    params.iterations = kIterations;
    std::vector<Figure> grid = perfbench::buildGrid(params);
    const fs::path work = fs::path(a.workdir);
    Tracer off(false);
    Checks checks;
    const Reference *ref = refs.at(checks, a.seed);
    std::optional<SweepRep> one;
    for (int workers : {1, kWorkers}) {
        fs::remove_all(work);
        fs::create_directories(work / "out");
        SweepRep rep = sweep(grid, (work / "store").string(),
                             (work / "out").string(), workers, off,
                             nullptr);
        std::printf("selftest: cold grid at %d worker(s): %.2f s\n",
                    workers, rep.wall);
        checkSweep(checks, grid, rep, one ? &*one : nullptr, true, a.seed, ref);
        if (!one)
            one = std::move(rep);
    }
    checks.expect(checkArchitecture(checks, grid, *one) == 0,
                  "fault injection changed final memory");
    fs::remove_all(work);
    std::vector<ProgramPair> programs = buildPrograms(a.seed);
    Layers l1, l2;
    SinglePass p1 = singlePass(programs, checks, off, l1, nullptr);
    SinglePass p2 = singlePass(programs, checks, off, l2, nullptr);
    checkSingle(checks, p1, nullptr, ref);
    checkSingle(checks, p2, &p1, nullptr);
    std::printf("selftest: %llu checked, %llu failed%s\n",
                static_cast<unsigned long long>(checks.attempted),
                static_cast<unsigned long long>(checks.failed),
                ref ? " (with reference records)" : "");
    return checks.failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    try {
        if (!a.writeReference.empty())
            return writeReference(a);
        Reference refs;
        refs.load(a.reference);
        if (a.selftest)
            return selftest(a, refs);
        if (a.workload == "sweep_cold")
            return runSweep(a, refs, false);
        if (a.workload == "sweep_warm")
            return runSweep(a, refs, true);
        if (a.workload == "single_sim")
            return runSingle(a, refs);
        usage(("unknown workload '" + a.workload + "'").c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: fatal: %s\n", e.what());
        return 1;
    }
}
