/**
 * @file
 * Append-only reference models of WordProfiler and MemProfiler.
 *
 * These keep one record per word instance for the whole run and
 * classify records in place, exactly as the profilers did before they
 * tallied instances on classification and released closed records.
 * They are slow and unbounded by design: the differential test feeds
 * the same random event streams to a model and to the production
 * profiler and requires identical counts and traffic buckets.
 */

#ifndef WASTESIM_TESTS_REFERENCE_PROFILERS_HH
#define WASTESIM_TESTS_REFERENCE_PROFILERS_HH

#include <map>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "profile/waste.hh"

namespace wastesim
{

/** Reference for WordProfiler: one record per arrival, never freed. */
class RefWordProfiler
{
  public:
    enum class Level { L1, L2 };

    explicit RefWordProfiler(Level level) : level_(level) {}

    void
    arrive(Addr word_num, TrafficClass cls, unsigned hops)
    {
        const InstId id = newRec(cls, hops);
        auto it = present_.find(word_num);
        if (it != present_.end()) {
            recs_[id].cat = WasteCat::Fetch;
            return;
        }
        present_[word_num] = id;
    }

    void
    arriveUntracked(Addr word_num)
    {
        present_.emplace(word_num, invalidInst);
    }

    void
    load(Addr word_num)
    {
        auto it = present_.find(word_num);
        panic_if(it == present_.end(), "reference load of absent word");
        classify(it->second, WasteCat::Used);
    }

    void
    store(Addr word_num)
    {
        auto it = present_.find(word_num);
        if (it != present_.end())
            classify(it->second, WasteCat::Write);
        else
            present_[word_num] = invalidInst;
    }

    void
    respUsed(Addr word_num)
    {
        auto it = present_.find(word_num);
        if (it != present_.end())
            classify(it->second, WasteCat::Used);
    }

    void
    arriveReplace(Addr word_num, TrafficClass cls, unsigned hops)
    {
        auto it = present_.find(word_num);
        if (it != present_.end())
            classify(it->second, WasteCat::Write);
        present_[word_num] = newRec(cls, hops);
    }

    void writeKill(Addr word_num) { remove(word_num, WasteCat::Write); }

    void
    overwrite(Addr word_num)
    {
        auto it = present_.find(word_num);
        if (it != present_.end())
            classify(it->second, WasteCat::Write);
        else
            present_[word_num] = invalidInst;
    }

    void evict(Addr word_num) { remove(word_num, WasteCat::Evict); }

    void
    invalidate(Addr word_num)
    {
        remove(word_num, level_ == Level::L1 ? WasteCat::Invalidate
                                             : WasteCat::Evict);
    }

    bool present(Addr word_num) const { return present_.count(word_num); }

    void markEpoch() { epochStart_ = recs_.size(); }

    WasteCounts
    finalize(TrafficStats &traffic)
    {
        const bool to_l1 = level_ == Level::L1;
        WasteCounts c;
        for (std::size_t i = epochStart_; i < recs_.size(); ++i) {
            Rec &r = recs_[i];
            if (r.cat == WasteCat::Unclassified)
                r.cat = WasteCat::Unevicted;
            c[r.cat] += 1.0;
            const bool used = r.cat == WasteCat::Used;
            double &bucket = r.cls == TrafficClass::Load
                ? (to_l1 ? (used ? traffic.ldRespL1Used
                                 : traffic.ldRespL1Waste)
                         : (used ? traffic.ldRespL2Used
                                 : traffic.ldRespL2Waste))
                : (to_l1 ? (used ? traffic.stRespL1Used
                                 : traffic.stRespL1Waste)
                         : (used ? traffic.stRespL2Used
                                 : traffic.stRespL2Waste));
            bucket += r.flitHops;
        }
        return c;
    }

  private:
    struct Rec
    {
        WasteCat cat = WasteCat::Unclassified;
        TrafficClass cls = TrafficClass::Load;
        double flitHops = 0;
    };

    InstId
    newRec(TrafficClass cls, unsigned hops)
    {
        recs_.push_back(Rec{WasteCat::Unclassified, cls,
                            hops / static_cast<double>(wordsPerFlit)});
        return static_cast<InstId>(recs_.size() - 1);
    }

    void
    classify(InstId id, WasteCat cat)
    {
        if (id != invalidInst && recs_[id].cat == WasteCat::Unclassified)
            recs_[id].cat = cat;
    }

    void
    remove(Addr word_num, WasteCat cat)
    {
        auto it = present_.find(word_num);
        if (it == present_.end())
            return;
        classify(it->second, cat);
        present_.erase(it);
    }

    Level level_;
    std::size_t epochStart_ = 0;
    std::vector<Rec> recs_;
    /** word -> resident instance (invalidInst = present, untracked). */
    std::map<Addr, InstId> present_;
};

/** Reference for MemProfiler: one record per instance, never freed. */
class RefMemProfiler
{
  public:
    InstId
    create(Addr word_num, bool present_in_l2)
    {
        recs_.push_back(Rec{present_in_l2 ? WasteCat::Fetch
                                          : WasteCat::Unclassified,
                            0, word_num, true});
        const InstId id = static_cast<InstId>(recs_.size() - 1);
        byWord_[word_num].push_back(id);
        return id;
    }

    void addRef(InstId id) { ++recs_.at(id).refs; }

    void
    dropRef(InstId id, bool invalidated)
    {
        Rec &r = recs_.at(id);
        panic_if(r.refs == 0, "reference dropRef on zero refs");
        if (--r.refs == 0) {
            if (r.cat == WasteCat::Unclassified)
                r.cat = invalidated ? WasteCat::Invalidate
                                    : WasteCat::Evict;
            r.listed = false;
        }
    }

    void
    used(InstId id)
    {
        classify(id, WasteCat::Used);
    }

    /** Write-classify every instance of the word whose refs never
     *  reached zero. */
    void
    storeAddr(Addr word_num)
    {
        auto it = byWord_.find(word_num);
        if (it == byWord_.end())
            return;
        for (InstId id : it->second)
            if (recs_[id].listed)
                classify(id, WasteCat::Write);
    }

    void excess(unsigned nwords) { excess_ += nwords; }

    void
    markEpoch()
    {
        epochStart_ = recs_.size();
        excessAtEpoch_ = excess_;
    }

    WasteCounts
    finalize() const
    {
        WasteCounts c;
        for (std::size_t i = epochStart_; i < recs_.size(); ++i)
            c[recs_[i].cat == WasteCat::Unclassified ? WasteCat::Unevicted
                                                     : recs_[i].cat] += 1.0;
        c[WasteCat::Excess] += excess_ - excessAtEpoch_;
        return c;
    }

    std::size_t numInstances() const { return recs_.size(); }
    unsigned refs(InstId id) const { return recs_.at(id).refs; }

    /** The word instance @p id was created for. */
    Addr wordOf(InstId id) const { return recs_.at(id).wordNum; }

    /** True once the instance's last copy has died. */
    bool dropped(InstId id) const { return !recs_.at(id).listed; }

  private:
    struct Rec
    {
        WasteCat cat;
        unsigned refs;
        Addr wordNum;
        /** Still on the word's instance list (refs never hit zero). */
        bool listed;
    };

    void
    classify(InstId id, WasteCat cat)
    {
        if (recs_.at(id).cat == WasteCat::Unclassified)
            recs_[id].cat = cat;
    }

    std::vector<Rec> recs_;
    /** word -> every instance ever created for it, in id order. */
    std::map<Addr, std::vector<InstId>> byWord_;
    std::size_t epochStart_ = 0;
    double excess_ = 0;
    double excessAtEpoch_ = 0;
};

} // namespace wastesim

#endif // WASTESIM_TESTS_REFERENCE_PROFILERS_HH
