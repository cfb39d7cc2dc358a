#include "protocol/denovo/write_combine.hh"

#include "common/log.hh"

namespace wastesim
{

WriteCombineTable::WriteCombineTable(EventQueue &eq, unsigned entries,
                                     Tick timeout, FlushFn flush)
    : eq_(eq), capacity_(entries), timeout_(timeout),
      flush_(std::move(flush))
{
    panic_if(capacity_ == 0, "write-combine table needs capacity");
    entries_.reserve(capacity_);
}

std::size_t
WriteCombineTable::find(Addr line_addr) const
{
    std::size_t i = 0;
    while (i < entries_.size() && entries_[i].line != line_addr)
        ++i;
    return i;
}

WordMask
WriteCombineTable::erase(std::size_t i)
{
    const WordMask words = entries_[i].words;
    entries_.erase(entries_.begin() + i);
    return words;
}

void
WriteCombineTable::flushEarly(std::size_t i)
{
    const Addr line_addr = entries_[i].line;
    eq_.cancel(entries_[i].timer);
    flush_(line_addr, erase(i));
}

void
WriteCombineTable::write(Addr line_addr, unsigned widx)
{
    const std::size_t i = find(line_addr);
    if (i < entries_.size()) {
        entries_[i].words.set(widx);
        if (entries_[i].words.isFull()) {
            ++flushFullLine;
            flushEarly(i);
        }
        return;
    }

    if (entries_.size() >= capacity_) {
        // Capacity force-flush of the oldest entry (the paper's radix
        // discussion: permutation writes touch more lines than the
        // table holds, splitting registrations).
        ++flushCapacity;
        flushEarly(0);
    }

    // Arm the timeout for this entry; any earlier exit cancels it.
    const EventId timer = eq_.schedule(timeout_, [this, line_addr] {
        const std::size_t j = find(line_addr);
        panic_if(j == entries_.size(),
                 "write-combine timeout for absent line %llx",
                 static_cast<unsigned long long>(line_addr));
        ++flushTimeout;
        flush_(line_addr, erase(j));
    });
    entries_.push_back(Entry{line_addr, WordMask::single(widx), timer});
}

WordMask
WriteCombineTable::pendingFor(Addr line_addr) const
{
    const std::size_t i = find(line_addr);
    return i == entries_.size() ? WordMask::none() : entries_[i].words;
}

WordMask
WriteCombineTable::takeLine(Addr line_addr)
{
    const std::size_t i = find(line_addr);
    if (i == entries_.size())
        return WordMask::none();
    eq_.cancel(entries_[i].timer);
    return erase(i);
}

void
WriteCombineTable::flushAll()
{
    while (!entries_.empty()) {
        ++flushRelease;
        flushEarly(0);
    }
}

} // namespace wastesim
