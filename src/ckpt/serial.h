/**
 * @file
 * smtflex::ckpt — bit-exact binary serialization primitives.
 *
 * Writer appends little-endian scalars, raw double bit patterns and
 * length-prefixed strings/blobs to a byte buffer; Reader consumes the
 * same stream strictly: any read past the end, any length prefix that
 * does not fit, throws CorruptSnapshot. A snapshot is therefore either
 * decoded whole or rejected whole — there is no partial restore.
 *
 * Doubles travel as their IEEE-754 bit pattern (std::bit_cast), never
 * through text, so a restored clock accumulator or histogram bucket is
 * the *identical* value, which is what makes resumed runs bit-identical
 * to uninterrupted ones.
 *
 * Header-only so that every model library (cache, dram, uarch, sim) can
 * implement saveState()/loadState() without linking the ckpt library;
 * only the snapshot store code (file I/O, fault seams) lives in
 * smtflex_ckpt.
 */

#ifndef SMTFLEX_CKPT_SERIAL_H
#define SMTFLEX_CKPT_SERIAL_H

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace smtflex {
namespace ckpt {

/** Thrown on any structural defect of a snapshot byte stream: truncated
 * read, oversized length prefix, bad magic/version/CRC, or a count that
 * contradicts the restoring component. Callers treat it as "this
 * snapshot does not exist": skip, count, fall back to cold start. */
class CorruptSnapshot : public std::runtime_error
{
  public:
    explicit CorruptSnapshot(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Append-only little-endian byte-buffer writer. */
class Writer
{
  public:
    void u8(std::uint8_t v) { buf_.push_back(v); }

    void u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void boolean(bool v) { u8(v ? 1 : 0); }

    /** Raw IEEE-754 bit pattern — restores to the identical value. */
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    void blob(const std::vector<std::uint8_t> &b)
    {
        u32(static_cast<std::uint32_t>(b.size()));
        buf_.insert(buf_.end(), b.begin(), b.end());
    }

    const std::vector<std::uint8_t> &bytes() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }
    std::size_t size() const { return buf_.size(); }

  private:
    std::vector<std::uint8_t> buf_;
};

/** Strict sequential reader over a byte range (not owned). */
class Reader
{
  public:
    Reader(const std::uint8_t *data, std::size_t size)
        : p_(data), end_(data + size)
    {
    }

    explicit Reader(const std::vector<std::uint8_t> &buf)
        : Reader(buf.data(), buf.size())
    {
    }

    std::uint8_t u8()
    {
        need(1);
        return *p_++;
    }

    std::uint32_t u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(p_[i]) << (8 * i);
        p_ += 4;
        return v;
    }

    std::uint64_t u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(p_[i]) << (8 * i);
        p_ += 8;
        return v;
    }

    bool boolean()
    {
        const std::uint8_t v = u8();
        if (v > 1)
            throw CorruptSnapshot("ckpt: bad boolean byte");
        return v != 0;
    }

    double f64() { return std::bit_cast<double>(u64()); }

    std::string str()
    {
        const std::uint32_t n = u32();
        need(n);
        std::string s(reinterpret_cast<const char *>(p_), n);
        p_ += n;
        return s;
    }

    std::vector<std::uint8_t> blob()
    {
        const std::uint32_t n = u32();
        need(n);
        std::vector<std::uint8_t> b(p_, p_ + n);
        p_ += n;
        return b;
    }

    /** Read a count and validate it against the fixed capacity the
     * restoring component was constructed with. */
    std::uint32_t count(std::uint64_t expected, const char *what)
    {
        const std::uint32_t n = u32();
        if (n != expected)
            throw CorruptSnapshot(std::string("ckpt: ") + what +
                                  " count mismatch");
        return n;
    }

    std::size_t remaining() const
    {
        return static_cast<std::size_t>(end_ - p_);
    }

    bool atEnd() const { return p_ == end_; }

    /** A component must consume exactly its bytes; trailing garbage means
     * the stream and the code disagree — reject the snapshot. */
    void expectEnd() const
    {
        if (!atEnd())
            throw CorruptSnapshot("ckpt: trailing bytes after payload");
    }

  private:
    void need(std::size_t n) const
    {
        if (static_cast<std::size_t>(end_ - p_) < n)
            throw CorruptSnapshot("ckpt: truncated stream");
    }

    const std::uint8_t *p_;
    const std::uint8_t *end_;
};

/** Serialize a telemetry stats struct through its forEachCounter field
 * list — the single source of field order, so save and load can never
 * disagree. */
template <typename Stats>
void
saveCounters(Writer &w, const Stats &stats)
{
    Stats::forEachCounter(
        [&](const char *, auto member) { w.u64(stats.*member); });
}

template <typename Stats>
void
loadCounters(Reader &r, Stats &stats)
{
    Stats::forEachCounter(
        [&](const char *, auto member) { stats.*member = r.u64(); });
}

} // namespace ckpt
} // namespace smtflex

#endif // SMTFLEX_CKPT_SERIAL_H
