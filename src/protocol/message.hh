/**
 * @file
 * Protocol messages exchanged between L1 caches, L2 slices and memory
 * controllers, plus the endpoint naming scheme the network uses to
 * route them.
 *
 * A message is one network packet: one control flit plus up to four
 * 16-byte data flits (at most 64 bytes of payload, per Section 4.2).
 * Payload words are carried in per-line chunks so that DeNovo Flex
 * responses can mix words from different cache lines in one packet,
 * and a message is sized by that bound: 16 chunks of 16 bytes plus
 * one 16-slot word array.
 */

#ifndef WASTESIM_PROTOCOL_MESSAGE_HH
#define WASTESIM_PROTOCOL_MESSAGE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>

#include "common/log.hh"
#include "common/topology.hh"
#include "common/types.hh"
#include "common/word_mask.hh"
#include "profile/waste.hh"

namespace wastesim
{

/** Network-addressable component. */
struct Endpoint
{
    enum class Kind : unsigned char { L1, L2, MC };

    Kind kind = Kind::L1;
    unsigned idx = 0;

    /** Tile this endpoint lives on under @p topo. */
    NodeId
    tile(const Topology &topo) const
    {
        switch (kind) {
          case Kind::L1:
          case Kind::L2:
            return idx;
          case Kind::MC:
            return topo.memCtrlTile(idx);
        }
        return 0;
    }

    /** Dense id for handler registration (< topo.numFlatIds()). */
    unsigned
    flatId(const Topology &topo) const
    {
        switch (kind) {
          case Kind::L1: return idx;
          case Kind::L2: return topo.numTiles() + idx;
          case Kind::MC: return 2 * topo.numTiles() + idx;
        }
        return 0;
    }

    bool operator==(const Endpoint &) const = default;
};

inline Endpoint
l1Ep(unsigned i)
{
    return Endpoint{Endpoint::Kind::L1, i};
}

inline Endpoint
l2Ep(unsigned i)
{
    return Endpoint{Endpoint::Kind::L2, i};
}

inline Endpoint
mcEp(unsigned i)
{
    return Endpoint{Endpoint::Kind::MC, i};
}

/** All message kinds across both protocol families. */
enum class MsgKind : unsigned char
{
    // --- MESI ---
    GetS,           //!< L1 -> dir: read request.
    GetX,           //!< L1 -> dir: write request.
    Upgrade,        //!< L1 -> dir: S -> M permission request.
    FwdGetS,        //!< dir -> owner L1: forward read.
    FwdGetX,        //!< dir -> owner L1: forward write.
    Inv,            //!< dir -> sharer L1: invalidate.
    InvAck,         //!< sharer L1 -> requester: invalidation ack.
    Data,           //!< data response (L2->L1, L1->L1, L1->L2).
    DataExcl,       //!< data response granting E state.
    UpgradeAck,     //!< dir -> L1: upgrade granted (carries inv count).
    Unblock,        //!< L1 -> dir: transition finished.
    UnblockData,    //!< L1 -> dir: unblock carrying data (MMemL1).
    Nack,           //!< dir -> L1: busy, retry.
    PutS,           //!< L1 -> dir: clean eviction notice.
    PutX,           //!< L1 -> dir: dirty writeback.
    WbAck,          //!< dir -> L1: writeback accepted.

    // --- memory (both families) ---
    MemRead,        //!< L2 (or L1 bypass) -> MC: line read request.
    MemWrite,       //!< L2 -> MC: writeback to DRAM.
    MemData,        //!< MC -> L1/L2: fetched data.

    // --- DeNovo ---
    DnLoadReq,      //!< L1 -> L2: word-masked read request.
    DnFwdLoadReq,   //!< L2 -> registrant L1: forward read for words.
    DnLoadResp,     //!< L2/L1 -> L1: word-masked data response.
    DnReg,          //!< L1 -> L2: registration (ownership) request.
    DnRegAck,       //!< L2 -> L1: registration complete.
    DnRegInv,       //!< L2 -> old registrant L1: your copy is stale.
    DnWb,           //!< L1 -> L2: dirty-words writeback (+reg mask).
    DnWbAck,        //!< L2 -> L1: writeback accepted.
    DnRecall,       //!< L2 -> registrant L1: flush words (L2 evict).
    BloomCopyReq,   //!< L1 -> L2: request a Bloom filter image.
    BloomCopyResp,  //!< L2 -> L1: 64-byte Bloom filter image.

    NumKinds
};

/** Printable name of a message kind. */
const char *msgKindName(MsgKind k);

/**
 * Payload fragment: words of one cache line.  The instance ids of the
 * carried words live in the enclosing Payload, not here, so a chunk
 * is only its line and its three word selections.
 */
struct LineChunk
{
    Addr line = 0;                      //!< line byte address
    WordMask mask;                      //!< words carried (payload)
    WordMask dirty;                     //!< of those, words that are dirty
    /** Request-side word selection (wanted words / dirty-on-chip
     *  filter); carried in the control flit, never payload. */
    WordMask want;

    LineChunk() = default;

    explicit LineChunk(Addr l, WordMask m = WordMask::none())
        : line(l), mask(m)
    {
    }
};

static_assert(sizeof(LineChunk) <= 16,
              "LineChunk grew: it is copied into every payload slot");
static_assert(std::is_trivially_copyable_v<LineChunk>,
              "Payload copies chunks as bytes");

/**
 * What one packet carries: its line chunks plus one 32-bit slot per
 * payload word, stored inline.  A packet carries at most
 * maxWordsPerMsg payload words (four 16-byte data flits, Section
 * 4.2), and every chunk names at least one word — either payload
 * (mask) or request-side selection (want) — so both the chunk count
 * and the slot count are bounded by that constant.
 *
 * The slots hold either the memory-profiler instance of each chunk
 * word (Fig. 4.3 refcounting follows them across copies) or, when
 * the payload has no chunks, a raw image such as a 64-byte Bloom
 * filter.  Instance ids are kept in payload order: chunk order
 * first, then ascending word order inside each chunk's mask, so a
 * chunk's ids start after the popcounts of the masks before it.  A
 * word carried without an instance keeps an invalidInst slot.
 * Chunks are appended whole and never edited in place, which keeps
 * masks and slots in step; caches trade ids with a payload as
 * line-indexed arrays (push_back(c, refs) and lineRefs()).
 */
class Payload
{
  public:
    /** Chunk capacity (one word per chunk at the least). */
    static constexpr unsigned maxChunks = maxWordsPerMsg;

    using const_iterator = const LineChunk *;

    Payload() = default;

    /** Copies only the chunks and slots in use. */
    Payload(const Payload &o) { copyFrom(o); }

    Payload &
    operator=(const Payload &o)
    {
        if (this != &o)
            copyFrom(o);
        return *this;
    }

    unsigned size() const { return nChunks_; }
    bool empty() const { return nChunks_ == 0; }
    const_iterator begin() const { return chunks(); }
    const_iterator end() const { return chunks() + nChunks_; }
    const LineChunk &operator[](unsigned i) const { return chunks()[i]; }
    const LineChunk &front() const { return chunks()[0]; }

    const LineChunk &
    at(unsigned i) const
    {
        panic_if(i >= nChunks_, "payload chunk %u out of range", i);
        return chunks()[i];
    }

    /** Payload words: chunk words, or the raw image's words. */
    unsigned words() const { return nWords_; }

    /** Words of a raw image (zero whenever chunks are present). */
    unsigned rawWords() const { return empty() ? nWords_ : 0; }

    /** Append @p c; its payload words carry no instance. */
    void
    push_back(const LineChunk &c)
    {
        const unsigned first = reserve(c);
        std::fill_n(words_.begin() + first, c.mask.count(), invalidInst);
    }

    /** Append @p c; payload word w carries instance @p refs[w]. */
    void
    push_back(const LineChunk &c,
              const std::array<InstId, wordsPerLine> &refs)
    {
        unsigned slot = reserve(c);
        for (unsigned w = 0; w < wordsPerLine; ++w)
            if (c.mask.test(w))
                words_[slot++] = refs[w];
    }

    void
    emplace_back(Addr line, WordMask mask = WordMask::none())
    {
        push_back(LineChunk(line, mask));
    }

    /** Append chunk @p i of @p from together with its instances. */
    void
    appendFrom(const Payload &from, unsigned i)
    {
        const LineChunk &c = from[i];
        const unsigned first = reserve(c);
        std::copy_n(from.words_.begin() + from.firstSlot(i),
                    c.mask.count(), words_.begin() + first);
    }

    /** Chunk @p i's instances by line word, the inverse of
     *  push_back(c, refs): payload word w reads the instance it
     *  carries, every other word invalidInst. */
    std::array<InstId, wordsPerLine>
    lineRefs(unsigned i) const
    {
        std::array<InstId, wordsPerLine> refs;
        refs.fill(invalidInst);
        const WordMask mask = chunks()[i].mask;
        unsigned slot = firstSlot(i);
        for (unsigned w = 0; w < wordsPerLine; ++w)
            if (mask.test(w))
                refs[w] = words_[slot++];
        return refs;
    }

    /** Drop every chunk matching @p pred, with its instances.
     *  @return the number of chunks dropped. */
    template <typename Pred>
    unsigned
    eraseIf(Pred pred)
    {
        unsigned kept = 0, out = 0, in = 0;
        for (unsigned i = 0; i < nChunks_; ++i) {
            const LineChunk c = chunks()[i];
            const unsigned n = c.mask.count();
            if (!pred(c)) {
                chunks()[kept++] = c;
                std::copy_n(words_.begin() + in, n, words_.begin() + out);
                out += n;
            }
            in += n;
        }
        const unsigned dropped = nChunks_ - kept;
        nChunks_ = static_cast<std::uint8_t>(kept);
        nWords_ = static_cast<std::uint8_t>(out);
        return dropped;
    }

    /** Carry the bytes of @p image as a raw payload (no chunks). */
    template <typename T>
    void
    setRaw(const T &image)
    {
        static_assert(std::is_trivially_copyable_v<T> &&
                          sizeof(T) % bytesPerWord == 0 &&
                          sizeof(T) <= maxWordsPerMsg * bytesPerWord,
                      "raw payload must be whole words of one packet");
        panic_if(!empty(), "raw payload alongside line chunks");
        std::memcpy(words_.data(), &image, sizeof(T));
        nWords_ = sizeof(T) / bytesPerWord;
    }

    /** The raw image set by setRaw(). */
    template <typename T>
    T
    raw() const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        panic_if(rawWords() * bytesPerWord != sizeof(T),
                 "raw payload of %u words read as %zu bytes",
                 rawWords(), sizeof(T));
        T image;
        std::memcpy(&image, words_.data(), sizeof(T));
        return image;
    }

  private:
    /** Append @p c's header. @return its first word's slot. */
    unsigned
    reserve(const LineChunk &c)
    {
        panic_if(nChunks_ == maxChunks, "payload already holds %u chunks",
                 maxChunks);
        panic_if(empty() && nWords_ > 0,
                 "line chunk appended to a raw payload");
        const unsigned first = nWords_;
        panic_if(first + c.mask.count() > maxWordsPerMsg,
                 "payload exceeds %u words", maxWordsPerMsg);
        ::new (chunkBytes_ + nChunks_++ * sizeof(LineChunk)) LineChunk(c);
        nWords_ = static_cast<std::uint8_t>(first + c.mask.count());
        return first;
    }

    /** Slot of chunk @p i's first payload word: the payload words of
     *  the chunks before it. */
    unsigned
    firstSlot(unsigned i) const
    {
        unsigned slot = 0;
        for (unsigned j = 0; j < i; ++j)
            slot += chunks()[j].mask.count();
        return slot;
    }

    void
    copyFrom(const Payload &o)
    {
        nChunks_ = o.nChunks_;
        nWords_ = o.nWords_;
        std::memcpy(chunkBytes_, o.chunkBytes_,
                    nChunks_ * sizeof(LineChunk));
        std::memcpy(words_.data(), o.words_.data(),
                    nWords_ * sizeof(std::uint32_t));
    }

    LineChunk *
    chunks()
    {
        return std::launder(reinterpret_cast<LineChunk *>(chunkBytes_));
    }

    const LineChunk *
    chunks() const
    {
        return std::launder(
            reinterpret_cast<const LineChunk *>(chunkBytes_));
    }

    /** Storage is left uninitialized: a message is built, copied and
     *  moved for every packet, and only the slots in use are read. */
    alignas(LineChunk) unsigned char chunkBytes_[maxChunks *
                                                 sizeof(LineChunk)];
    std::array<std::uint32_t, maxWordsPerMsg> words_;
    std::uint8_t nChunks_ = 0;
    std::uint8_t nWords_ = 0;
};

static_assert(sizeof(InstId) == sizeof(std::uint32_t),
              "payload slots hold instance ids and raw words alike");

/** One network packet.  Fields are ordered so that no padding sits
 *  between them. */
struct Message
{
    MsgKind kind = MsgKind::GetS;
    TrafficClass cls = TrafficClass::Overhead;
    CtlType ctl = CtlType::OhNack;
    bool flag = false;          //!< protocol-specific (e.g. bypass)
    CoreId requester = 0;       //!< original requester (for forwards)
    Endpoint src, dst;
    Addr line = 0;              //!< primary line address
    WordMask mask;              //!< request / ack word mask
    std::uint16_t hops = 0;     //!< filled in by the network
    unsigned aux = 0;           //!< protocol-specific small payload
    Tick sentAt = 0;            //!< filled in by the network

    // Memory-latency attribution (Fig. 5.2 ToMC / Mem / FromMC).
    Tick tMcArrive = 0;         //!< request arrival at the MC
    Tick tMemDone = 0;          //!< DRAM completion at the MC

    /** Data payload (no chunks and no words = control only).  A raw
     *  image (e.g. a Bloom filter) is charged entirely to the
     *  control bucket of @ref ctl. */
    Payload chunks;

    /** Payload words: chunk words plus raw words. */
    unsigned words() const { return chunks.words(); }

    /** Data flits needed for the payload. */
    unsigned
    dataFlits() const
    {
        return (words() + wordsPerFlit - 1) / wordsPerFlit;
    }

    /** Total flits: one control flit plus data flits. */
    unsigned totalFlits() const { return 1 + dataFlits(); }
};

static_assert(sizeof(Message) <= 400,
              "Message grew: every in-flight packet and every parked "
              "retry holds one");

/** Anything that can receive messages from the network. */
class MessageHandler
{
  public:
    virtual ~MessageHandler() = default;

    /** Deliver @p msg; called by the network at arrival time, which
     *  moves the message out of its pool slot into @p msg. */
    virtual void handle(Message msg) = 0;
};

} // namespace wastesim

#endif // WASTESIM_PROTOCOL_MESSAGE_HH
