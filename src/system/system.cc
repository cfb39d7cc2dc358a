#include "system/system.hh"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/log.hh"
#include "obs/observer.hh"

namespace wastesim
{

namespace
{

/** Write @p text to @p path (plain overwrite; obs outputs are not
 *  consumed concurrently, unlike the sweep cache). */
void
writeObsFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        warn("cannot write observation file '%s'", path.c_str());
        return;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
}

} // namespace

System::System(ProtocolName protocol, const Workload &workload,
               SimParams params, unsigned threads)
    : protocolName_(protocol), cfg_(ProtocolConfig::make(protocol)),
      params_(std::move(params)), workload_(workload),
      barrier_(params_.topo.numTiles()), source_(workload)
{
    const Topology &topo = params_.topo;
    const unsigned tiles = topo.numTiles();

    fatal_if(threads != 1,
             "System: %u event-kernel threads requested; the kernel "
             "is serial (threads must be 1)",
             threads);
    fatal_if(workload_.numCores() != tiles,
             "workload '%s' drives %u cores but the active topology "
             "%s has %u tiles",
             workload_.name().c_str(), workload_.numCores(),
             topo.describe().c_str(), tiles);

    net_ = std::make_unique<Network>(eq_, traffic_,
                                     params_.linkLatency, topo);

    l1Profs_.reserve(tiles);
    l2Profs_.reserve(tiles);
    for (unsigned i = 0; i < tiles; ++i) {
        l1Profs_.emplace_back(WordProfiler::Level::L1);
        l2Profs_.emplace_back(WordProfiler::Level::L2);
    }

    // Protocol controllers.
    l1Ifaces_.resize(tiles, nullptr);
    if (cfg_.isMesi()) {
        for (unsigned i = 0; i < tiles; ++i) {
            mesiDirs_.push_back(std::make_unique<MesiDir>(
                i, cfg_, params_, eq_, *net_, l2Profs_[i], memProf_));
            net_->attach(l2Ep(i), mesiDirs_.back().get());
        }
        for (unsigned i = 0; i < tiles; ++i) {
            mesiL1s_.push_back(std::make_unique<MesiL1>(
                i, cfg_, params_, eq_, *net_, l1Profs_[i], memProf_));
            net_->attach(l1Ep(i), mesiL1s_.back().get());
            l1Ifaces_[i] = mesiL1s_.back().get();
        }
    } else {
        for (unsigned i = 0; i < tiles; ++i) {
            dnL2s_.push_back(std::make_unique<DenovoL2>(
                i, cfg_, params_, eq_, *net_, l2Profs_[i], memProf_));
            net_->attach(l2Ep(i), dnL2s_.back().get());
        }
        for (unsigned i = 0; i < tiles; ++i) {
            dnL1s_.push_back(std::make_unique<DenovoL1>(
                i, cfg_, params_, eq_, *net_, l1Profs_[i], memProf_,
                workload_.regions()));
            net_->attach(l1Ep(i), dnL1s_.back().get());
            l1Ifaces_[i] = dnL1s_.back().get();
        }
    }

    // The first core to reach an Epoch op marks the window; warm-up
    // instances before it then keep only a copy count.  The ops are
    // not generated yet, so the workload states whether one comes.
    if (workload_.hasEpoch())
        memProf_.expectEpoch();

    // Memory system.
    auto present = [this](Addr line) {
        const NodeId s = params_.topo.homeSlice(line);
        if (cfg_.isMesi())
            return mesiDirs_[s]->validWordsOf(line);
        return dnL2s_[s]->validWordsOf(line);
    };
    for (unsigned c = 0; c < topo.numMemCtrls(); ++c) {
        DramMap map;
        map.timing = params_.dram;
        map.numChannels = topo.numMemCtrls();
        drams_.push_back(std::make_unique<DramChannel>(eq_, map, c));
        mcs_.push_back(std::make_unique<MemoryController>(
            c, eq_, *net_, *drams_.back(), memProf_, present));
        net_->attach(mcEp(c), mcs_.back().get());
    }

    // Cores.
    for (CoreId c = 0; c < tiles; ++c) {
        Core::Hooks hooks;
        hooks.onEpoch = [this] { onEpoch(); };
        hooks.onDone = [this](CoreId) {
            ++coresDone_;
            lastDone_ = eq_.now();
        };
        cores_.push_back(std::make_unique<Core>(
            c, eq_, *l1Ifaces_[c], barrier_, source_, std::move(hooks)));
    }
}

System::~System()
{
    // The debug hook captures `this`.
    debugLineDump = nullptr;
}

bool
System::coresDone() const
{
    return coresDone_ == params_.topo.numTiles();
}

void
System::onEpoch()
{
    if (epochMarked_)
        return;
    panic_if(!workload_.hasEpoch(),
             "workload '%s' states it has no Epoch op, but core ops "
             "hold one",
             workload_.name().c_str());
    epochMarked_ = true;
    epochStart_ = eq_.now();

    traffic_.markEpoch();
    memProf_.markEpoch();
    for (auto &p : l1Profs_)
        p.markEpoch();
    for (auto &p : l2Profs_)
        p.markEpoch();
    for (auto &c : cores_)
        c->resetTime();

    dramReadsAtEpoch_ = 0;
    dramWritesAtEpoch_ = 0;
    dramChanReadsAtEpoch_.assign(drams_.size(), 0);
    dramChanWritesAtEpoch_.assign(drams_.size(), 0);
    for (std::size_t c = 0; c < drams_.size(); ++c) {
        dramReadsAtEpoch_ += drams_[c]->reads();
        dramWritesAtEpoch_ += drams_[c]->writes();
        dramChanReadsAtEpoch_[c] = drams_[c]->reads();
        dramChanWritesAtEpoch_[c] = drams_[c]->writes();
    }
    msgsAtEpoch_ = net_->messagesSent();
}

RunResult
System::run(Tick max_ticks)
{
    // Install the stuck-line debug dump (see common/log.hh).
    debugLineDump = [this](std::uint64_t line) {
        std::fprintf(stderr, "state of line %llx (home slice %u):\n",
                     static_cast<unsigned long long>(line),
                     params_.topo.homeSlice(line));
        if (cfg_.isDeNovo()) {
            dnL2s_[params_.topo.homeSlice(line)]->dumpLine(line);
            for (const auto &l1 : dnL1s_)
                l1->dumpLine(line);
        }
    };

    // Observation is opt-in: with obsConfig() inactive none of this
    // runs and the simulation path is exactly the unobserved one.
    std::unique_ptr<SimObserver> obs_owner;
    if (obsConfig().active())
        obs_owner = std::make_unique<SimObserver>(obsConfig(), eq_);
    SimObserver *obs = obs_owner.get();
    ScopedSimObserver scoped(obs);
    if (obs)
        registerObservables(*obs);

    for (auto &c : cores_)
        c->start();

    bool drained;
    if (obs && obs->cfg.sampleWindow != 0) {
        // Run the kernel window by window.  EventQueue::run(limit) is
        // exact-to-the-tick and nothing external schedules between
        // calls, so chaining runs is behaviorally identical to one
        // call — the event stream, and therefore every result, is
        // unchanged by sampling.
        const Tick w = obs->cfg.sampleWindow;
        obs->sampler.setWindowTicks(w);
        obs->sampler.begin(eq_.now());
        obs->heatmapBegin(eq_.now());
        Tick window_end = w;
        for (;;) {
            const Tick stop = std::min(window_end, max_ticks);
            drained = eq_.run(stop);
            obs->sampler.sample(eq_.now());
            obs->heatmapWindow(eq_.now());
            if (drained || stop >= max_ticks)
                break;
            window_end += w;
        }
    } else {
        drained = eq_.run(max_ticks);
    }
    fatal_if(!drained, "simulation exceeded %llu ticks",
             static_cast<unsigned long long>(max_ticks));

    if (!coresDone()) {
        for (CoreId c = 0; c < params_.topo.numTiles(); ++c) {
            if (!cores_[c]->done()) {
                warn("core %u stuck at op %zu, %zu ops before the end "
                     "of trace window %u",
                     c, cores_[c]->opsExecuted(), source_.opsHeld(c),
                     source_.windows());
            }
        }
        panic("event queue drained with cores unfinished (deadlock)");
    }
    // Every core has read its stream to the end, so its counts spare
    // a later opCounts() (the invariant checks) a second generation.
    workload_.keepOpCounts(source_);
    panic_if(workload_.hasEpoch() && !epochMarked_,
             "workload '%s' states it has an Epoch op, but no core ran "
             "one",
             workload_.name().c_str());

    RunResult r;
    r.protocol = protocolName(protocolName_);
    r.benchmark = workload_.name();

    for (auto &p : l1Profs_)
        r.l1Waste += p.finalize(traffic_.stats());
    for (auto &p : l2Profs_)
        r.l2Waste += p.finalize(traffic_.stats());
    r.memWaste = memProf_.finalize();
    r.traffic = traffic_.stats();
    r.rawFlitHops = traffic_.rawFlitHops();

    for (const auto &c : cores_)
        r.time += c->time();
    r.cycles = lastDone_ - epochStart_;

    r.messages = net_->messagesSent() - msgsAtEpoch_;
    r.eventsExecuted = eq_.executed();
    for (const auto &d : drams_) {
        r.dramReads += d->reads();
        r.dramWrites += d->writes();
        r.dramRowHits += d->rowHits();
    }
    r.dramReads -= dramReadsAtEpoch_;
    r.dramWrites -= dramWritesAtEpoch_;

    r.dramChan.resize(drams_.size());
    for (std::size_t c = 0; c < drams_.size(); ++c) {
        RunResult::DramChanStats &s = r.dramChan[c];
        s.reads = drams_[c]->reads();
        s.writes = drams_[c]->writes();
        s.rowHits = drams_[c]->rowHits();
        s.queuePeak = drams_[c]->queuePeak();
        if (c < dramChanReadsAtEpoch_.size()) {
            s.reads -= dramChanReadsAtEpoch_[c];
            s.writes -= dramChanWritesAtEpoch_[c];
        }
    }

    // Per-channel counters and the aggregates are derived from the
    // same DRAM channels with the same epoch baselines, so they must
    // balance exactly; a mismatch means a counter path regressed.
    {
        std::uint64_t chan_reads = 0, chan_writes = 0;
        for (const auto &s : r.dramChan) {
            chan_reads += s.reads;
            chan_writes += s.writes;
        }
        panic_if(chan_reads != r.dramReads,
                 "dram.chan.*.reads sum %llu != dram.reads %llu "
                 "(delta %lld)",
                 static_cast<unsigned long long>(chan_reads),
                 static_cast<unsigned long long>(r.dramReads),
                 static_cast<long long>(chan_reads) -
                     static_cast<long long>(r.dramReads));
        panic_if(chan_writes != r.dramWrites,
                 "dram.chan.*.writes sum %llu != dram.writes %llu "
                 "(delta %lld)",
                 static_cast<unsigned long long>(chan_writes),
                 static_cast<unsigned long long>(r.dramWrites),
                 static_cast<long long>(chan_writes) -
                     static_cast<long long>(r.dramWrites));
    }

    if (cfg_.isMesi()) {
        for (const auto &d : mesiDirs_) {
            r.nacks += d->nacks();
            r.recalls += d->recalls();
            r.l2Accesses += d->hits() + d->misses();
        }
        for (const auto &l1 : mesiL1s_) {
            r.l1Accesses += l1->loadHits() + l1->loadMisses() +
                            l1->storeHits() + l1->storeMisses();
        }
    } else {
        for (const auto &l2 : dnL2s_) {
            r.nacks += l2->nacks();
            r.recalls += l2->recallsIssued();
            r.l2Accesses += l2->wordHits() + l2->memFetches() +
                            l2->registrations();
        }
        for (const auto &l1 : dnL1s_) {
            r.bypassDirect += l1->bypassDirect();
            r.selfInvalidations += l1->selfInvalidated();
            r.l1Accesses += l1->loadHits() + l1->loadMisses();
        }
    }
    r.wordsFromMemory = memProf_.numInstances();
    r.maxLinkFlits = net_->maxLinkFlits();

    if (obs) {
        const std::string proto = protocolName(protocolName_);
        const std::string bench = workload_.name();
        if (obs->cfg.sampleWindow != 0 && !obs->cfg.sampleOut.empty()) {
            writeObsFile(
                expandObsPath(obs->cfg.sampleOut, proto, bench),
                obs->sampler.toJson());
        }
        if (obs->wantTimeline()) {
            const std::string path =
                expandObsPath(obs->cfg.timelineOut, proto, bench);
            if (!obs->timeline.save(path))
                warn("cannot write timeline '%s'", path.c_str());
        }
        if (!obs->cfg.heatmapOut.empty()) {
            writeObsFile(
                expandObsPath(obs->cfg.heatmapOut, proto, bench),
                obs->heatmapCsv());
        }
    }
    return r;
}

void
System::registerObservables(SimObserver &o)
{
    if (o.wantTimeline()) {
        for (unsigned s = 0; s < params_.topo.numTiles(); ++s) {
            o.timeline.threadName(0, s,
                                  "slice " + std::to_string(s));
        }
        for (std::size_t c = 0; c < drams_.size(); ++c) {
            o.timeline.threadName(
                0, 1000 + static_cast<unsigned>(c),
                "dram ch " + std::to_string(c));
        }
        o.timeline.threadName(0, 2000, "barrier");
    }

    if (!o.cfg.heatmapOut.empty()) {
        Network *net = net_.get();
        o.linkSnapshot = [net] { return net->linkFlitsSnapshot(); };
        o.linkEnds = [net](std::size_t i) { return net->linkEnds(i); };
    }

    if (o.cfg.sampleWindow == 0)
        return;

    Sampler &s = o.sampler;
    const char *cnt = "count";
    Network *net = net_.get();

    s.add("noc.flits", "flits", MetricKind::U64, true, [net] {
        return static_cast<double>(net->totalLinkFlits());
    });
    s.add("noc.messages", cnt, MetricKind::U64, true, [net] {
        return static_cast<double>(net->messagesSent());
    });
    EventQueue *eq = &eq_;
    s.add("queue.pending", "events", MetricKind::U64, false, [eq] {
        return static_cast<double>(eq->pending());
    });
    s.add("queue.overflow", "events", MetricKind::U64, false, [eq] {
        return static_cast<double>(eq->overflowSize());
    });
    s.add("queue.executed", "events", MetricKind::U64, true, [eq] {
        return static_cast<double>(eq->executed());
    });

    for (std::size_t c = 0; c < drams_.size(); ++c) {
        const std::string base =
            "dram.chan." + std::to_string(c) + ".";
        DramChannel *d = drams_[c].get();
        s.add(base + "queue_depth", "reqs", MetricKind::U64, false,
              [d] { return static_cast<double>(d->queued()); });
        s.add(base + "reads", cnt, MetricKind::U64, true,
              [d] { return static_cast<double>(d->reads()); });
        s.add(base + "writes", cnt, MetricKind::U64, true,
              [d] { return static_cast<double>(d->writes()); });
        s.add(base + "row_hits", cnt, MetricKind::U64, true,
              [d] { return static_cast<double>(d->rowHits()); });
    }

    if (cfg_.isMesi()) {
        s.add("mesi.invalidations", cnt, MetricKind::U64, true, [this] {
            std::uint64_t v = 0;
            for (const auto &d : mesiDirs_)
                v += d->invalidations();
            return static_cast<double>(v);
        });
        s.add("mesi.recalls", cnt, MetricKind::U64, true, [this] {
            std::uint64_t v = 0;
            for (const auto &d : mesiDirs_)
                v += d->recalls();
            return static_cast<double>(v);
        });
        s.add("mesi.nacks", cnt, MetricKind::U64, true, [this] {
            std::uint64_t v = 0;
            for (const auto &d : mesiDirs_)
                v += d->nacks();
            return static_cast<double>(v);
        });
        s.add("l1.misses", cnt, MetricKind::U64, true, [this] {
            std::uint64_t v = 0;
            for (const auto &l1 : mesiL1s_)
                v += l1->loadMisses() + l1->storeMisses();
            return static_cast<double>(v);
        });
        s.add("l2.misses", cnt, MetricKind::U64, true, [this] {
            std::uint64_t v = 0;
            for (const auto &d : mesiDirs_)
                v += d->misses();
            return static_cast<double>(v);
        });
    } else {
        s.add("denovo.recalls", cnt, MetricKind::U64, true, [this] {
            std::uint64_t v = 0;
            for (const auto &l2 : dnL2s_)
                v += l2->recallsIssued();
            return static_cast<double>(v);
        });
        s.add("denovo.nacks", cnt, MetricKind::U64, true, [this] {
            std::uint64_t v = 0;
            for (const auto &l2 : dnL2s_)
                v += l2->nacks();
            return static_cast<double>(v);
        });
        s.add("l1.misses", cnt, MetricKind::U64, true, [this] {
            std::uint64_t v = 0;
            for (const auto &l1 : dnL1s_)
                v += l1->loadMisses();
            return static_cast<double>(v);
        });
        s.add("l2.misses", cnt, MetricKind::U64, true, [this] {
            std::uint64_t v = 0;
            for (const auto &l2 : dnL2s_)
                v += l2->memFetches();
            return static_cast<double>(v);
        });
    }
}

void
System::checkInvariants() const
{
    const unsigned tiles = params_.topo.numTiles();
    if (cfg_.isMesi()) {
        // An owner is a real tile and is the line's only holder: the
        // directory clears the sharer bits whenever it records one.
        for (const auto &dir : mesiDirs_) {
            dir->array().forEachValid([tiles](const MesiDirLine &cl) {
                if (cl.owner == invalidNode)
                    return;
                panic_if(cl.owner >= tiles, "bogus owner id");
                panic_if(!cl.sharers.none(),
                         "line %llx has owner %u and sharers",
                         static_cast<unsigned long long>(cl.line),
                         cl.owner);
            });
        }
        // No two L1s hold the same line in M.
        for (unsigned i = 0; i < tiles; ++i) {
            mesiL1s_[i]->array().forEachValid([&](const MesiL1Line &a) {
                if (a.mesi != MesiState::M)
                    return;
                for (unsigned j = i + 1; j < tiles; ++j) {
                    const MesiL1Line *b = mesiL1s_[j]->array().find(a.line);
                    panic_if(b && b->valid && b->mesi == MesiState::M,
                             "two M owners for line %llx",
                             static_cast<unsigned long long>(a.line));
                }
            });
        }
    } else {
        // A word is registered to at most one L1 (the L2 registrant is
        // the single source of truth; check L1 regWords agree).
        for (unsigned i = 0; i < tiles; ++i) {
            dnL1s_[i]->array().forEachValid([&](const DenovoL1Line &a) {
                for (unsigned j = i + 1; j < tiles; ++j) {
                    const DenovoL1Line *b = dnL1s_[j]->array().find(a.line);
                    if (!b || !b->valid)
                        continue;
                    const WordMask both = a.regWords & b->regWords;
                    panic_if(!both.empty(),
                             "word registered to two L1s: line %llx "
                             "mask %s",
                             static_cast<unsigned long long>(a.line),
                             both.toString().c_str());
                }
            });
        }
    }
}

SystemProbe
System::probe() const
{
    SystemProbe p;
    for (const L1Cache *l1 : l1Ifaces_) {
        p.demandLoads += l1->demandLoads();
        p.demandStores += l1->demandStores();
    }
    p.msgPoolSlots = net_->msgPoolSlots();
    p.msgPoolFree = net_->msgPoolFreeSlots();
    p.eqPending = eq_.pending();
    p.eqOverflow = eq_.overflowSize();
    p.linkFlitsTotal = net_->totalLinkFlits();
    p.flitHopsCharged = net_->flitHopsCharged();
    return p;
}

} // namespace wastesim
