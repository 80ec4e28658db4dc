#include "snapshot/archive.hh"

#include <cstdio>
#include <cstring>

#include "common/logging.hh"

namespace ppm::snap {
namespace {

constexpr char kMagic[8] = {'P', 'P', 'M', 'S', 'N', 'A', 'P', '\0'};
constexpr std::size_t kHeaderSize = 8 + 4 + 8 + 8;

std::uint64_t
fnv1a(const char* data, std::size_t n)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 1099511628211ULL;
    }
    return h;
}

void
put_u32(std::string* out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
put_u64(std::string* out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint32_t
get_u32(const char* p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
    return v;
}

std::uint64_t
get_u64(const char* p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
    return v;
}

} // namespace

const char*
load_status_name(LoadStatus s)
{
    switch (s) {
    case LoadStatus::kOk: return "ok";
    case LoadStatus::kTruncated: return "truncated";
    case LoadStatus::kBadMagic: return "bad magic";
    case LoadStatus::kBadVersion: return "version mismatch";
    case LoadStatus::kBadChecksum: return "checksum mismatch";
    }
    return "unknown";
}

void
Writer::u32(std::uint32_t v)
{
    put_u32(&buf_, v);
}

void
Writer::u64(std::uint64_t v)
{
    put_u64(&buf_, v);
}

void
Writer::str(const std::string& s)
{
    u64(s.size());
    buf_.append(s);
}

std::string
Writer::finalize() const
{
    std::string out;
    out.reserve(kHeaderSize + buf_.size());
    out.append(kMagic, sizeof kMagic);
    put_u32(&out, kFormatVersion);
    put_u64(&out, buf_.size());
    put_u64(&out, fnv1a(buf_.data(), buf_.size()));
    out.append(buf_);
    return out;
}

LoadStatus
Reader::open(const std::string& file_bytes)
{
    data_.clear();
    pos_ = 0;
    if (file_bytes.size() < kHeaderSize)
        return LoadStatus::kTruncated;
    if (std::memcmp(file_bytes.data(), kMagic, sizeof kMagic) != 0)
        return LoadStatus::kBadMagic;
    const std::uint32_t version = get_u32(file_bytes.data() + 8);
    if (version != kFormatVersion)
        return LoadStatus::kBadVersion;
    const std::uint64_t payload_size = get_u64(file_bytes.data() + 12);
    if (file_bytes.size() != kHeaderSize + payload_size)
        return LoadStatus::kTruncated;
    const std::uint64_t checksum = get_u64(file_bytes.data() + 20);
    if (fnv1a(file_bytes.data() + kHeaderSize, payload_size) != checksum)
        return LoadStatus::kBadChecksum;
    data_.assign(file_bytes, kHeaderSize, payload_size);
    return LoadStatus::kOk;
}

const char*
Reader::take(std::size_t n)
{
    PPM_ASSERT(n <= remaining(),
               "snapshot payload underrun: field extends past the "
               "checksummed payload");
    const char* p = data_.data() + pos_;
    pos_ += n;
    return p;
}

std::uint8_t
Reader::u8()
{
    return static_cast<std::uint8_t>(*take(1));
}

std::uint32_t
Reader::u32()
{
    return get_u32(take(4));
}

std::uint64_t
Reader::u64()
{
    return get_u64(take(8));
}

std::string
Reader::str()
{
    const std::uint64_t n = u64();
    const char* p = take(n);
    return std::string(p, n);
}

std::size_t
Reader::count()
{
    const std::uint64_t n = u64();
    PPM_ASSERT(n <= remaining(),
               "snapshot payload underrun: element count exceeds the "
               "bytes left in the checksummed payload");
    return static_cast<std::size_t>(n);
}

void
Reader::expect_count(std::size_t live, const char* what)
{
    const std::uint64_t n = u64();
    if (n != live) {
        panic("snapshot mismatch: %s (snapshot has %llu, this run %zu)",
              what, static_cast<unsigned long long>(n), live);
    }
}

bool
write_file(const std::string& path, const Writer& w, std::string* error)
{
    const std::string bytes = w.finalize();
    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
        if (error != nullptr)
            *error = "cannot open " + tmp + " for writing";
        return false;
    }
    const std::size_t written =
        std::fwrite(bytes.data(), 1, bytes.size(), f);
    const bool flushed = std::fclose(f) == 0;
    if (written != bytes.size() || !flushed) {
        if (error != nullptr)
            *error = "short write to " + tmp;
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        if (error != nullptr)
            *error = "cannot rename " + tmp + " to " + path;
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

LoadStatus
read_file(const std::string& path, Reader* r)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return LoadStatus::kTruncated;
    std::string bytes;
    char chunk[1 << 16];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0)
        bytes.append(chunk, n);
    std::fclose(f);
    return r->open(bytes);
}

} // namespace ppm::snap
