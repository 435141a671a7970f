#include "result_cache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>

#include "common/crc32.h"
#include "common/env.h"
#include "common/fault.h"
#include "common/log.h"

namespace smtflex {

namespace {

/** True when @p tail is a record's CRC field: 'c' + 8 hex digits. */
bool
looksLikeCrcField(const std::string &line, std::size_t field_start)
{
    if (line.size() - field_start != 9 || line[field_start] != 'c')
        return false;
    for (std::size_t i = field_start + 1; i < line.size(); ++i) {
        if (!std::isxdigit(static_cast<unsigned char>(line[i])))
            return false;
    }
    return true;
}

/** fsync @p fd, honouring the io.fsync injection seam.
 * @return whether the data is known durable. */
bool
syncFd(int fd, const std::string &what)
{
    if (fault::shouldFire(fault::Site::kIoFsync)) {
        warn("ResultCache: injected fsync failure on ", what);
        return false;
    }
    if (::fsync(fd) != 0) {
        warn("ResultCache: fsync(", what, ") failed: ",
             std::strerror(errno));
        return false;
    }
    return true;
}

/** fsync the directory containing @p file_path so a rename is durable. */
void
syncParentDir(const std::string &file_path)
{
    const std::size_t slash = file_path.rfind('/');
    const std::string dir =
        slash == std::string::npos ? "." : file_path.substr(0, slash);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return; // best effort: some filesystems refuse directory opens
    syncFd(fd, dir);
    ::close(fd);
}

} // namespace

ResultCache::ResultCache(std::string path) : path_(std::move(path))
{
    fsyncEachStore_ = envFlag("SMTFLEX_CACHE_FSYNC", false);
    for (auto &shard : shards_)
        shard = std::make_unique<Shard>();
    if (!path_.empty())
        load();
}

ResultCache::~ResultCache()
{
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        if (shard->fd >= 0) {
            ::close(shard->fd);
            shard->fd = -1;
        }
    }
}

std::string
ResultCache::escapeKey(const std::string &key)
{
    std::string out;
    out.reserve(key.size());
    for (const char c : key) {
        switch (c) {
          case '\\':
            out += "\\\\";
            break;
          case '|':
            out += "\\p";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            out += c;
        }
    }
    return out;
}

std::string
ResultCache::unescapeKey(const std::string &escaped)
{
    std::string out;
    out.reserve(escaped.size());
    for (std::size_t i = 0; i < escaped.size(); ++i) {
        if (escaped[i] != '\\' || i + 1 == escaped.size()) {
            out += escaped[i];
            continue;
        }
        switch (escaped[++i]) {
          case '\\':
            out += '\\';
            break;
          case 'p':
            out += '|';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          default:
            // Legacy keys were written unescaped; keep unknown sequences
            // verbatim so they round-trip.
            out += '\\';
            out += escaped[i];
        }
    }
    return out;
}

std::string
ResultCache::formatRecord(const std::string &key,
                          const std::vector<double> &values)
{
    std::ostringstream os;
    os.precision(17);
    os << escapeKey(key) << '|';
    for (std::size_t i = 0; i < values.size(); ++i)
        os << (i ? " " : "") << values[i];
    std::string record = os.str();
    char tag[11];
    std::snprintf(tag, sizeof(tag), "|c%08x", crc32(record));
    record += tag;
    record += '\n';
    return record;
}

std::size_t
ResultCache::shardOf(const std::string &key) const
{
    return std::hash<std::string>{}(key) % kNumShards;
}

std::string
ResultCache::shardPath(std::size_t index) const
{
    std::ostringstream os;
    os << path_ << ".shard-" << (index < 10 ? "0" : "") << index;
    return os.str();
}

void
ResultCache::loadFile(const std::string &file_path)
{
    if (fault::shouldFire(fault::Site::kIoLoad)) {
        warn("ResultCache: injected load failure on ", file_path,
             "; segment treated as missing");
        return;
    }
    // Most segments of a young cache do not exist yet, and one stat()
    // says so more cheaply than constructing a failing std::ifstream.
    struct stat st;
    if (::stat(file_path.c_str(), &st) != 0)
        return; // no segment yet
    std::ifstream in(file_path);
    if (!in)
        return; // unreadable: treated as missing too
    std::uint64_t skipped = 0;
    bool strict = false;
    bool first = true;
    std::string line;
    while (std::getline(in, line)) {
        if (first) {
            first = false;
            if (line == kFormatHeader) {
                strict = true;
                continue;
            }
        }
        const std::size_t sep = line.find('|');
        if (sep == std::string::npos || sep == 0) {
            // Partial/corrupt line (or an empty key): no usable record.
            ++skipped;
            continue;
        }
        std::size_t values_end = line.size();
        const std::size_t last = line.rfind('|');
        if (last != sep && looksLikeCrcField(line, last + 1)) {
            // CRC-tagged record: the checksum covers everything before
            // the final separator. A mismatch means a torn write or a
            // merged line — skip it; the result will be recomputed.
            const std::uint32_t stored = static_cast<std::uint32_t>(
                std::strtoul(line.c_str() + last + 2, nullptr, 16));
            if (crc32(line.data(), last) != stored) {
                ++skipped;
                continue;
            }
            values_end = last;
        } else if (strict) {
            // A v2 file only ever contains CRC-tagged records, so a line
            // without a valid tag is a truncated record — it must not be
            // mistaken for a CRC-less legacy line with shortened values.
            ++skipped;
            continue;
        }
        std::vector<double> values;
        std::istringstream vs(line.substr(sep + 1, values_end - sep - 1));
        double v;
        while (vs >> v)
            values.push_back(v);
        const std::string key = unescapeKey(line.substr(0, sep));
        shards_[shardOf(key)]->entries[key] = std::move(values);
    }
    if (skipped > 0) {
        corruptSkipped_.fetch_add(skipped, std::memory_order_relaxed);
        warn("ResultCache: skipped ", skipped, " corrupt line",
             skipped == 1 ? "" : "s", " in ", file_path,
             " (results will be recomputed)");
    }
}

void
ResultCache::load()
{
    // Legacy single-file format first, then the shard segments (newer
    // records) so they override.
    loadFile(path_);
    for (std::size_t i = 0; i < kNumShards; ++i)
        loadFile(shardPath(i));
}

std::optional<std::vector<double>>
ResultCache::lookup(const std::string &key) const
{
    const Shard &shard = *shards_[shardOf(key)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.entries.find(key);
    if (it == shard.entries.end())
        return std::nullopt;
    return it->second;
}

const std::vector<double> *
ResultCache::find(const std::string &key) const
{
    const Shard &shard = *shards_[shardOf(key)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.entries.find(key);
    return it == shard.entries.end() ? nullptr : &it->second;
}

void
ResultCache::appendRecord(Shard &shard, std::size_t index,
                          const std::string &record)
{
    if (shard.fd < 0) {
        shard.fd = ::open(shardPath(index).c_str(),
                          O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
        if (shard.fd < 0) {
            warn("ResultCache: cannot append to ", shardPath(index), ": ",
                 std::strerror(errno));
            return;
        }
        struct stat st;
        if (::fstat(shard.fd, &st) == 0 && st.st_size == 0) {
            // Fresh segment: stamp the strict-format header. If this
            // write tears, the file simply loads as legacy — CRC-tagged
            // records still verify there.
            const std::string header = std::string(kFormatHeader) + '\n';
            [[maybe_unused]] const ssize_t h =
                ::write(shard.fd, header.data(), header.size());
            // Record fsyncs alone don't make a *new* file durable: its
            // directory entry needs an fsync of the parent too, else a
            // power loss can drop the entire segment. (flush() and
            // checkpoint() sync the parent themselves.)
            if (fsyncEachStore_)
                syncParentDir(shardPath(index));
        }
    }
    // A write can legitimately land short (signal, disk pressure) or be
    // torn by a crash; the io.write seam injects the short case. Recovery:
    // terminate whatever prefix reached the disk so it is one CRC-failing
    // line, then rewrite the whole record. The cost of a short write is
    // one skipped line at the next load, never a lost or corrupt record.
    for (int attempt = 0; attempt < 3; ++attempt) {
        std::size_t want = record.size();
        bool injected = false;
        if (fault::shouldFire(fault::Site::kIoWrite)) {
            injected = true;
            want = fault::param(fault::Site::kIoWrite, record.size() / 2);
            want = std::min(want, record.size() - 1);
        }
        const ssize_t n = ::write(shard.fd, record.data(), want);
        if (n == static_cast<ssize_t>(record.size())) {
            if (fsyncEachStore_)
                syncFd(shard.fd, shardPath(index));
            return;
        }
        if (n < 0 && errno != EINTR) {
            warn("ResultCache: write to ", shardPath(index), " failed: ",
                 std::strerror(errno));
            return;
        }
        if (n > 0 || injected) {
            warn("ResultCache: short write of ",
                 injected ? "(injected) " : "", shardPath(index),
                 "; terminating torn record and retrying");
            [[maybe_unused]] const ssize_t t = ::write(shard.fd, "\n", 1);
        }
    }
    warn("ResultCache: giving up appending a record to ",
         shardPath(index), "; the entry stays in memory only");
}

void
ResultCache::store(const std::string &key, const std::vector<double> &values)
{
    if (key.empty())
        fatal("ResultCache: empty key");
    const std::size_t index = shardOf(key);
    Shard &shard = *shards_[index];
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.entries[key] = values;
    if (path_.empty())
        return;
    appendRecord(shard, index, formatRecord(key, values));
}

void
ResultCache::flush()
{
    if (path_.empty())
        return;
    for (std::size_t i = 0; i < kNumShards; ++i) {
        Shard &shard = *shards_[i];
        std::lock_guard<std::mutex> lock(shard.mutex);
        if (shard.fd >= 0)
            syncFd(shard.fd, shardPath(i));
    }
    syncParentDir(path_);
}

bool
ResultCache::checkpoint()
{
    if (path_.empty())
        return true;
    bool all_ok = true;
    for (std::size_t i = 0; i < kNumShards; ++i) {
        Shard &shard = *shards_[i];
        std::lock_guard<std::mutex> lock(shard.mutex);
        const std::string segment = shardPath(i);
        const std::string tmp = segment + ".tmp";
        const int fd =
            ::open(tmp.c_str(),
                   O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
        if (fd < 0) {
            warn("ResultCache: checkpoint cannot create ", tmp, ": ",
                 std::strerror(errno));
            all_ok = false;
            continue;
        }
        std::string blob = std::string(kFormatHeader) + '\n';
        for (const auto &[key, values] : shard.entries)
            blob += formatRecord(key, values);
        bool ok = true;
        std::size_t written = 0;
        while (written < blob.size()) {
            const ssize_t n =
                ::write(fd, blob.data() + written, blob.size() - written);
            if (n > 0) {
                written += static_cast<std::size_t>(n);
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            warn("ResultCache: checkpoint write to ", tmp, " failed: ",
                 std::strerror(errno));
            ok = false;
            break;
        }
        // The durable order is write -> fsync -> rename -> fsync(dir);
        // any failure keeps the old segment (still loadable) in place.
        ok = ok && syncFd(fd, tmp);
        ::close(fd);
        if (!ok || ::rename(tmp.c_str(), segment.c_str()) != 0) {
            if (ok)
                warn("ResultCache: checkpoint rename to ", segment,
                     " failed: ", std::strerror(errno));
            ::unlink(tmp.c_str());
            all_ok = false;
            continue;
        }
        syncParentDir(segment);
        // The append descriptor points at the replaced inode; reopen on
        // the next store.
        if (shard.fd >= 0) {
            ::close(shard.fd);
            shard.fd = -1;
        }
    }
    return all_ok;
}

std::size_t
ResultCache::size() const
{
    std::size_t total = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->entries.size();
    }
    return total;
}

} // namespace smtflex
