#include "grid.h"

#include "common/log.h"
#include "common/table.h"
#include "harness.h"

using namespace dttsim;

namespace perfbench {

namespace {

using bench::Harness;
using cpu::AccelKind;
using workloads::Variant;
using workloads::Workload;
using workloads::WorkloadParams;

sim::SimJob
makeJob(const Workload &w, Variant variant, const WorkloadParams &params,
        sim::SimConfig config, std::string label = "")
{
    sim::SimJob job;
    job.workload = w.info().name;
    job.variant = !label.empty() ? std::move(label)
        : variant == Variant::Dtt ? "dtt" : "baseline";
    job.config = config;
    job.program = w.build(variant, params);
    return job;
}

/** fig5/fig6/fig10: Harness::runPairs on the default DTT machine. */
Figure
pairs(const char *name, std::uint64_t executed, const WorkloadParams &p)
{
    Figure f{name, {}, executed};
    for (const Workload *w : workloads::allWorkloads()) {
        f.jobs.push_back(makeJob(*w, Variant::Baseline, p,
                                 Harness::machineConfig(AccelKind::None)));
        f.jobs.push_back(makeJob(*w, Variant::Dtt, p,
                                 Harness::machineConfig(AccelKind::Dtt)));
    }
    return f;
}

Figure
fig7(const WorkloadParams &p)
{
    Figure f{"fig7_contexts", {}, 45};
    for (const Workload *w : workloads::allWorkloads()) {
        f.jobs.push_back(makeJob(*w, Variant::Baseline, p,
                                 Harness::machineConfig(AccelKind::None)));
        for (int spare : {1, 2, 3, 7}) {
            sim::SimConfig cfg = Harness::machineConfig(AccelKind::Dtt);
            cfg.core.numContexts = 1 + spare;
            f.jobs.push_back(makeJob(*w, Variant::Dtt, p, cfg,
                                     "dtt +" + std::to_string(spare)
                                         + "ctx"));
        }
    }
    return f;
}

Figure
fig8(const WorkloadParams &p)
{
    Figure f{"fig8_tq_size", {}, 135};
    for (bool coalesce : {true, false}) {
        for (const Workload *w : workloads::allWorkloads()) {
            f.jobs.push_back(
                makeJob(*w, Variant::Baseline, p,
                        Harness::machineConfig(AccelKind::None)));
            for (int size : {1, 2, 4, 8, 16}) {
                sim::SimConfig cfg = Harness::machineConfig(AccelKind::Dtt);
                cfg.dtt.threadQueueSize = size;
                cfg.dtt.coalesce = coalesce;
                f.jobs.push_back(makeJob(
                    *w, Variant::Dtt, p, cfg,
                    "dtt tq=" + std::to_string(size)
                        + (coalesce ? " squash" : " no-squash")));
            }
        }
    }
    return f;
}

Figure
fig9(const WorkloadParams &p)
{
    Figure f{"fig9_ablation_silent", {}, 15};
    sim::SimConfig off = Harness::machineConfig(AccelKind::Dtt);
    off.dtt.silentSuppression = false;
    for (const Workload *w : workloads::allWorkloads()) {
        f.jobs.push_back(makeJob(*w, Variant::Baseline, p,
                                 Harness::machineConfig(AccelKind::None)));
        f.jobs.push_back(makeJob(*w, Variant::Dtt, p,
                                 Harness::machineConfig(AccelKind::Dtt),
                                 "dtt suppress-on"));
        f.jobs.push_back(
            makeJob(*w, Variant::Dtt, p, off, "dtt suppress-off"));
    }
    return f;
}

Figure
fig11(const WorkloadParams &base)
{
    Figure f{"fig11_update_rate", {}, 34};
    for (const char *name : {"mcf", "art", "gcc"}) {
        const Workload &w = workloads::findWorkload(name);
        for (double rate : {0.0, 0.1, 0.25, 0.5, 0.75, 1.0}) {
            WorkloadParams p = base;
            p.updateRate = rate;
            std::string tag = " r=" + TextTable::num(rate, 2);
            f.jobs.push_back(
                makeJob(w, Variant::Baseline, p,
                        Harness::machineConfig(AccelKind::None),
                        "baseline" + tag));
            f.jobs.push_back(makeJob(w, Variant::Dtt, p,
                                     Harness::machineConfig(AccelKind::Dtt),
                                     "dtt" + tag));
        }
    }
    return f;
}

Figure
fig12(const WorkloadParams &p)
{
    struct Family
    {
        AccelKind kind;
        Variant variant;
        std::uint32_t mask;
        const char *name;
    };
    const Family families[] = {
        {AccelKind::Dtt, Variant::Dtt,
         sim::faultSiteBit(sim::FaultSite::DenySpawn)
             | sim::faultSiteBit(sim::FaultSite::SquashThread)
             | sim::faultSiteBit(sim::FaultSite::SpuriousCoalesce),
         "dtt"},
        {AccelKind::Sp, Variant::Dtt,
         sim::faultSiteBit(sim::FaultSite::DenySpawn)
             | sim::faultSiteBit(sim::FaultSite::SquashThread),
         "sp"},
        {AccelKind::Reuse, Variant::Baseline,
         sim::faultSiteBit(sim::FaultSite::FlushReuseTable), "reuse"},
    };
    Figure f{"fig12_vs_reuse", {}, 135};
    for (const Workload *w : workloads::allWorkloads()) {
        f.jobs.push_back(makeJob(*w, Variant::Baseline, p,
                                 Harness::machineConfig(AccelKind::None)));
        for (const Family &fam : families) {
            for (double rate : {0.0, 0.2, 0.5}) {
                sim::SimConfig cfg = Harness::machineConfig(fam.kind);
                cfg.fault.seed = 7;
                cfg.fault.rate = rate;
                cfg.fault.siteMask = rate > 0.0 ? fam.mask : 0u;
                f.jobs.push_back(makeJob(
                    *w, fam.variant, p, cfg,
                    rate > 0.0 ? strfmt("%s rate=%g", fam.name, rate)
                               : std::string(fam.name)));
            }
        }
    }
    return f;
}

Figure
fig13(const WorkloadParams &p)
{
    Figure f{"fig13_spawn_latency", {}, 60};
    for (const Workload *w : workloads::allWorkloads()) {
        f.jobs.push_back(makeJob(*w, Variant::Baseline, p,
                                 Harness::machineConfig(AccelKind::None)));
        for (Cycle lat : {1, 4, 16, 64, 256}) {
            sim::SimConfig cfg = Harness::machineConfig(AccelKind::Dtt);
            cfg.dtt.spawnLatency = lat;
            f.jobs.push_back(makeJob(*w, Variant::Dtt, p, cfg,
                                     "dtt lat=" + std::to_string(lat)));
        }
    }
    return f;
}

Figure
fig14(const WorkloadParams &p)
{
    Figure f{"fig14_corunner", {}, 60};
    for (const Workload *w : workloads::allWorkloads()) {
        for (int k = 0; k <= 2; ++k) {
            for (Variant v : {Variant::Baseline, Variant::Dtt}) {
                const bool dtt = v == Variant::Dtt;
                sim::SimJob job = makeJob(
                    *w, v, p,
                    Harness::machineConfig(dtt ? AccelKind::Dtt
                                               : AccelKind::None),
                    std::string(dtt ? "dtt" : "baseline") + " k="
                        + std::to_string(k));
                for (int i = 0; i < k; ++i)
                    job.coRunnerEntries.push_back(
                        bench::appendCoRunner(job.program, i));
                f.jobs.push_back(std::move(job));
            }
        }
    }
    return f;
}

Figure
fig15(const WorkloadParams &p)
{
    auto config = [](bool dtt, bool pf) {
        sim::SimConfig cfg = Harness::machineConfig(
            dtt ? AccelKind::Dtt : AccelKind::None);
        cfg.mem.nextLinePrefetch = pf;
        return cfg;
    };
    Figure f{"fig15_prefetch", {}, 30};
    for (const Workload *w : workloads::allWorkloads()) {
        f.jobs.push_back(makeJob(*w, Variant::Baseline, p,
                                 config(false, false), "baseline"));
        f.jobs.push_back(makeJob(*w, Variant::Baseline, p,
                                 config(false, true), "baseline pf"));
        f.jobs.push_back(
            makeJob(*w, Variant::Dtt, p, config(true, false), "dtt"));
        f.jobs.push_back(
            makeJob(*w, Variant::Dtt, p, config(true, true), "dtt pf"));
    }
    return f;
}

Figure
fig16(const WorkloadParams &p)
{
    struct Policy
    {
        dtt::FullQueuePolicy policy;
        const char *name;
    };
    const Policy policies[] = {
        {dtt::FullQueuePolicy::Stall, "stall"},
        {dtt::FullQueuePolicy::StallBounded, "stall-bounded"},
        {dtt::FullQueuePolicy::Drop, "drop"},
        {dtt::FullQueuePolicy::DropOldest, "drop-oldest"},
    };
    Figure f{"fig16_fault_degradation", {}, 300};
    for (const Workload *w : workloads::allWorkloads()) {
        f.jobs.push_back(makeJob(*w, Variant::Baseline, p,
                                 Harness::machineConfig(AccelKind::None)));
        for (const Policy &pol : policies) {
            for (double rate : {0.0, 0.05, 0.2, 0.5, 0.8}) {
                sim::SimConfig cfg = Harness::machineConfig(AccelKind::Dtt);
                cfg.dtt.fullPolicy = pol.policy;
                cfg.dtt.stallBound = 64;
                cfg.fault.seed = 7;
                cfg.fault.rate = rate;
                cfg.fault.siteMask =
                    rate > 0.0 ? sim::kTransparentSites : 0u;
                f.jobs.push_back(
                    makeJob(*w, Variant::Dtt, p, cfg,
                            strfmt("dtt %s rate=%g", pol.name, rate)));
            }
        }
    }
    return f;
}

} // namespace

std::vector<Figure>
buildGrid(const WorkloadParams &params)
{
    std::vector<Figure> grid;
    grid.push_back(pairs("fig5_speedup", 30, params));
    grid.push_back(pairs("fig6_insn_reduction", 0, params));
    grid.push_back(fig7(params));
    grid.push_back(fig8(params));
    grid.push_back(fig9(params));
    grid.push_back(pairs("fig10_energy_proxy", 0, params));
    grid.push_back(fig11(params));
    grid.push_back(fig12(params));
    grid.push_back(fig13(params));
    grid.push_back(fig14(params));
    grid.push_back(fig15(params));
    grid.push_back(fig16(params));
    return grid;
}

std::string
jobLabel(const Figure &fig, const sim::SimJob &job)
{
    return fig.name + "/" + job.workload + "/" + job.variant;
}

} // namespace perfbench
