/**
 * @file
 * FieldVec: the field values of one work item, stored in place.
 *
 * A job is a sequence of work items, and every item of an in-tree
 * design carries at most six fields. A std::vector per item would cost
 * one heap allocation per item, which dominates copying, freeing, and
 * wire-decoding a job of thousands of items. FieldVec keeps up to
 * kInlineCapacity values inside the object and spills to the heap only
 * past that, so a job's items cost one allocation in total.
 *
 * It offers the std::vector subset the code base uses, and converts
 * implicitly from std::vector<std::int64_t> and braced lists, so
 * callers written against the vector type compile unchanged.
 */

#ifndef PREDVFS_RTL_FIELD_VEC_HH
#define PREDVFS_RTL_FIELD_VEC_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <vector>

namespace predvfs {
namespace rtl {

class FieldVec
{
  public:
    using value_type = std::int64_t;
    using iterator = std::int64_t *;
    using const_iterator = const std::int64_t *;

    /**
     * Values held without a heap allocation. Six is the widest field
     * schema of any in-tree design (h264); a wider item still works,
     * it just pays one allocation.
     */
    static constexpr std::size_t kInlineCapacity = 6;

    FieldVec() noexcept {}

    explicit FieldVec(std::size_t n, std::int64_t value = 0)
    {
        assign(n, value);
    }

    // Implicit on purpose: callers that pass a braced list or a
    // std::vector where fields are expected compile unchanged.
    FieldVec(std::initializer_list<std::int64_t> values)
    {
        copyFrom(values.begin(), values.size());
    }

    FieldVec(const std::vector<std::int64_t> &values)
    {
        copyFrom(values.data(), values.size());
    }

    FieldVec(const FieldVec &other) { copyFrom(other.data(), other.count); }

    FieldVec(FieldVec &&other) noexcept { stealFrom(other); }

    FieldVec &operator=(const FieldVec &other)
    {
        if (this != &other)
            copyFrom(other.data(), other.count);
        return *this;
    }

    FieldVec &operator=(FieldVec &&other) noexcept
    {
        if (this != &other) {
            release();
            stealFrom(other);
        }
        return *this;
    }

    ~FieldVec() { release(); }

    std::size_t size() const noexcept { return count; }
    bool empty() const noexcept { return count == 0; }
    std::size_t capacity() const noexcept { return cap; }

    std::int64_t *data() noexcept { return spilled() ? heap : local; }
    const std::int64_t *data() const noexcept
    {
        return spilled() ? heap : local;
    }

    std::int64_t &operator[](std::size_t i) noexcept { return data()[i]; }
    const std::int64_t &operator[](std::size_t i) const noexcept
    {
        return data()[i];
    }

    iterator begin() noexcept { return data(); }
    iterator end() noexcept { return data() + count; }
    const_iterator begin() const noexcept { return data(); }
    const_iterator end() const noexcept { return data() + count; }

    void reserve(std::size_t n)
    {
        if (n > cap)
            regrow(n);
    }

    /** Grow with @p value (zero by default) or shrink to @p n values. */
    void resize(std::size_t n, std::int64_t value = 0)
    {
        std::int64_t *values = n > cap ? regrow(n) : data();
        if (n > count)
            std::fill(values + count, values + n, value);
        count = static_cast<std::uint32_t>(n);
    }

    void assign(std::size_t n, std::int64_t value)
    {
        count = 0;
        resize(n, value);
    }

    // std::vector's name, so callers compile unchanged.
    // NOLINTNEXTLINE(readability-identifier-naming)
    void push_back(std::int64_t value)
    {
        std::int64_t *values =
            count == cap ? regrow(2 * static_cast<std::size_t>(cap))
                         : data();
        values[count++] = value;
    }

    void clear() noexcept { count = 0; }

    friend bool operator==(const FieldVec &a, const FieldVec &b) noexcept
    {
        return a.count == b.count &&
            std::equal(a.begin(), a.end(), b.begin());
    }

  private:
    bool spilled() const noexcept { return cap > kInlineCapacity; }

    /** Move storage to a heap block of @p n values, keeping the
     *  current ones. @return the block (callers write through it, so
     *  the compiler need not prove data() now points there). */
    std::int64_t *regrow(std::size_t n)
    {
        if (n > std::numeric_limits<std::uint32_t>::max())
            throw std::length_error("FieldVec: too many fields");
        auto *fresh = new std::int64_t[n];
        if (count > 0)
            std::memcpy(fresh, data(), count * sizeof(std::int64_t));
        release();
        heap = fresh;
        cap = static_cast<std::uint32_t>(n);
        return fresh;
    }

    /** Replace the contents with @p n values copied from @p src. */
    void copyFrom(const std::int64_t *src, std::size_t n)
    {
        count = 0;
        std::int64_t *values = n > cap ? regrow(n) : data();
        if (n > 0)
            std::memcpy(values, src, n * sizeof(std::int64_t));
        count = static_cast<std::uint32_t>(n);
    }

    /** Take @p other's values, leaving it empty and inline. Requires
     *  this object to own no heap block. */
    void stealFrom(FieldVec &other) noexcept
    {
        count = other.count;
        cap = other.cap;
        if (other.spilled())
            heap = other.heap;
        else if (count > 0)
            std::memcpy(local, other.local, count * sizeof(std::int64_t));
        other.count = 0;
        other.cap = kInlineCapacity;
    }

    void release() noexcept
    {
        if (spilled())
            delete[] heap;
        cap = kInlineCapacity;
    }

    std::uint32_t count = 0;
    std::uint32_t cap = kInlineCapacity;
    union
    {
        std::int64_t local[kInlineCapacity];
        std::int64_t *heap;
    };
};

} // namespace rtl
} // namespace predvfs

#endif // PREDVFS_RTL_FIELD_VEC_HH
