/**
 * @file
 * InlineVec: a fixed-capacity vector with in-object storage.
 *
 * Short protocol-side lists (a request's chunk groups, the owners
 * of a line's registered words) are bounded by the packet format (at
 * most four 16-byte data flits, Section 4.2), so they never need to
 * grow past a small compile-time cap.  Storing the elements inline
 * keeps them off the heap on every protocol transaction.  Exceeding
 * the capacity is a modeling bug and panics.
 */

#ifndef WASTESIM_COMMON_INLINE_VEC_HH
#define WASTESIM_COMMON_INLINE_VEC_HH

#include <cstddef>
#include <new>
#include <utility>

#include "common/log.hh"

namespace wastesim
{

/** Fixed-capacity vector of up to @p N elements stored in place. */
template <typename T, unsigned N>
class InlineVec
{
  public:
    using value_type = T;
    using iterator = T *;
    using const_iterator = const T *;

    InlineVec() = default;

    InlineVec(const InlineVec &o)
    {
        for (const T &v : o)
            push_back(v);
    }

    InlineVec(InlineVec &&o) noexcept
    {
        for (T &v : o)
            push_back(std::move(v));
        o.clear();
    }

    InlineVec &
    operator=(const InlineVec &o)
    {
        if (this != &o) {
            clear();
            for (const T &v : o)
                push_back(v);
        }
        return *this;
    }

    InlineVec &
    operator=(InlineVec &&o) noexcept
    {
        if (this != &o) {
            clear();
            for (T &v : o)
                push_back(std::move(v));
            o.clear();
        }
        return *this;
    }

    ~InlineVec() { clear(); }

    static constexpr unsigned capacity() { return N; }
    unsigned size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == N; }

    T *data() { return std::launder(reinterpret_cast<T *>(storage_)); }
    const T *
    data() const
    {
        return std::launder(reinterpret_cast<const T *>(storage_));
    }

    iterator begin() { return data(); }
    iterator end() { return data() + size_; }
    const_iterator begin() const { return data(); }
    const_iterator end() const { return data() + size_; }

    T &operator[](unsigned i) { return data()[i]; }
    const T &operator[](unsigned i) const { return data()[i]; }

    T &
    at(unsigned i)
    {
        panic_if(i >= size_, "InlineVec::at(%u) out of range", i);
        return data()[i];
    }

    const T &
    at(unsigned i) const
    {
        panic_if(i >= size_, "InlineVec::at(%u) out of range", i);
        return data()[i];
    }

    T &front() { return data()[0]; }
    const T &front() const { return data()[0]; }
    T &back() { return data()[size_ - 1]; }
    const T &back() const { return data()[size_ - 1]; }

    void
    push_back(const T &v)
    {
        panic_if(size_ >= N, "InlineVec overflow (cap %u)", N);
        ::new (slot(size_)) T(v);
        ++size_;
    }

    void
    push_back(T &&v)
    {
        panic_if(size_ >= N, "InlineVec overflow (cap %u)", N);
        ::new (slot(size_)) T(std::move(v));
        ++size_;
    }

    template <typename... As>
    T &
    emplace_back(As &&...as)
    {
        panic_if(size_ >= N, "InlineVec overflow (cap %u)", N);
        T *p = ::new (slot(size_)) T(std::forward<As>(as)...);
        ++size_;
        return *p;
    }

    void
    pop_back()
    {
        data()[--size_].~T();
    }

    void
    clear()
    {
        for (unsigned i = size_; i > 0; --i)
            data()[i - 1].~T();
        size_ = 0;
    }

    /** Erase [first, last), shifting the tail down (std::vector
     *  semantics, as used with the erase-remove idiom). */
    iterator
    erase(iterator first, iterator last)
    {
        iterator e = end();
        iterator out = first;
        for (iterator in = last; in != e; ++in, ++out)
            *out = std::move(*in);
        const unsigned removed = static_cast<unsigned>(last - first);
        for (unsigned i = 0; i < removed; ++i)
            data()[size_ - 1 - i].~T();
        size_ -= removed;
        return first;
    }

    /** Replace the contents with the range [first, last). */
    template <typename It>
    void
    assign(It first, It last)
    {
        clear();
        for (; first != last; ++first)
            push_back(*first);
    }

    bool
    operator==(const InlineVec &o) const
    {
        if (size_ != o.size_)
            return false;
        for (unsigned i = 0; i < size_; ++i)
            if (!(data()[i] == o.data()[i]))
                return false;
        return true;
    }

  private:
    void *slot(unsigned i) { return storage_ + i * sizeof(T); }

    alignas(T) unsigned char storage_[N * sizeof(T)];
    unsigned size_ = 0;
};

} // namespace wastesim

#endif // WASTESIM_COMMON_INLINE_VEC_HH
