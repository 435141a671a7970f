#include "ckpt/snapshot.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/crc32.h"
#include "common/fault.h"
#include "common/log.h"

namespace smtflex {
namespace ckpt {

namespace {

constexpr std::uint32_t kMagic = 0x4b434653; // "SFCK" little-endian

bool
syncFd(int fd, const std::string &what)
{
    if (::fsync(fd) != 0) {
        warn("ckpt: fsync(", what, ") failed: ", std::strerror(errno));
        return false;
    }
    return true;
}

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

std::vector<std::uint8_t>
encodeSnapshot(const Snapshot &snap)
{
    Writer w;
    w.u32(kMagic);
    w.u32(kSnapshotVersion);
    w.u32(static_cast<std::uint32_t>(snap.kind));
    w.str(snap.key);
    w.u64(snap.cycle);
    w.blob(snap.meta);
    w.blob(snap.payload);
    const std::uint32_t crc = crc32(w.bytes().data(), w.size());
    w.u32(crc);
    return w.take();
}

Snapshot
decodeSnapshot(const std::uint8_t *data, std::size_t size)
{
    if (size < 4)
        throw CorruptSnapshot("ckpt: snapshot shorter than its CRC");
    const std::uint32_t want = crc32(data, size - 4);
    Reader tail(data + size - 4, 4);
    if (tail.u32() != want)
        throw CorruptSnapshot("ckpt: snapshot CRC mismatch");

    Reader r(data, size - 4);
    if (r.u32() != kMagic)
        throw CorruptSnapshot("ckpt: bad snapshot magic");
    if (r.u32() != kSnapshotVersion)
        throw CorruptSnapshot("ckpt: unsupported snapshot version");
    Snapshot snap;
    snap.kind = static_cast<SnapshotKind>(r.u32());
    if (snap.kind != SnapshotKind::kChipRun)
        throw CorruptSnapshot("ckpt: unknown snapshot kind");
    snap.key = r.str();
    snap.cycle = r.u64();
    snap.meta = r.blob();
    snap.payload = r.blob();
    r.expectEnd();
    return snap;
}

bool
writeSnapshotFile(const std::string &path, const Snapshot &snap)
{
    const std::vector<std::uint8_t> bytes = encodeSnapshot(snap);
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
        warn("ckpt: open(", tmp, ") failed: ", std::strerror(errno));
        return false;
    }

    // The injected failure writes a prefix and still publishes it via
    // rename — exactly the torn file a power cut during a non-atomic
    // writer would leave. Loads must reject it (CRC) and cold-start.
    std::size_t to_write = bytes.size();
    bool torn = false;
    if (fault::shouldFire(fault::Site::kCkptWrite)) {
        to_write = static_cast<std::size_t>(
            fault::param(fault::Site::kCkptWrite, bytes.size() / 2));
        if (to_write > bytes.size())
            to_write = bytes.size() / 2;
        torn = true;
        warn("ckpt: injected torn snapshot write (", to_write, " of ",
             bytes.size(), " bytes): ", path);
    }

    std::size_t off = 0;
    while (off < to_write) {
        const ssize_t n = ::write(fd, bytes.data() + off, to_write - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            warn("ckpt: write(", tmp, ") failed: ", std::strerror(errno));
            ::close(fd);
            ::unlink(tmp.c_str());
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    if (!syncFd(fd, tmp)) {
        ::close(fd);
        ::unlink(tmp.c_str());
        return false;
    }
    ::close(fd);
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("ckpt: rename(", tmp, " -> ", path,
             ") failed: ", std::strerror(errno));
        ::unlink(tmp.c_str());
        return false;
    }
    // The rename itself must survive power loss.
    syncParentDir(path);
    return !torn;
}

std::optional<Snapshot>
readSnapshotFile(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return std::nullopt;
    if (fault::shouldFire(fault::Site::kCkptLoad)) {
        ::close(fd);
        warn("ckpt: injected unreadable snapshot: ", path);
        throw CorruptSnapshot("ckpt: injected load failure");
    }
    struct stat st{};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        return std::nullopt;
    }
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(st.st_size));
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = ::read(fd, bytes.data() + off, bytes.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            return std::nullopt;
        }
        if (n == 0)
            break; // truncated under us; the CRC check rejects it
        off += static_cast<std::size_t>(n);
    }
    ::close(fd);
    return decodeSnapshot(bytes.data(), off);
}

} // namespace ckpt
} // namespace smtflex
